// Benchmarks regenerating every table and figure of the paper, plus
// scaling benchmarks for each engine. Run with:
//
//	go test -bench=. -benchmem
//
// The Table/Fig benchmarks time a full regeneration of the published
// artifact (workload construction + analysis + measurement), so their
// outputs are the reproduction itself; correctness of the produced
// rows/series is asserted by the tests in internal/repro.
package elmore_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"elmore"
	"elmore/internal/rctree"
	"elmore/internal/repro"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

// --- Paper artifacts: one benchmark per table and figure. ---

func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := repro.TableI()
		if err != nil {
			b.Fatal(err)
		}
		if bad := res.Check(); len(bad) != 0 {
			b.Fatalf("structural violations: %v", bad)
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := repro.TableII()
		if err != nil {
			b.Fatal(err)
		}
		if bad := res.Check(); len(bad) != 0 {
			b.Fatalf("structural violations: %v", bad)
		}
	}
}

func BenchmarkFig3StepAndImpulse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4SymmetricDensity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := repro.Fig4(); len(s) != 1 {
			b.Fatal("series count")
		}
	}
}

func BenchmarkFig5DrivingPointResponse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12DelayCurves(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := repro.Fig12(nil)
		if err != nil {
			b.Fatal(err)
		}
		if bad := res.Check(); len(bad) != 0 {
			b.Fatalf("structural violations: %v", bad)
		}
	}
}

func BenchmarkFig13ImpulseFamily(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Fig13(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14ErrorSurface(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := repro.Fig14(nil)
		if err != nil {
			b.Fatal(err)
		}
		if bad := res.Check(); len(bad) != 0 {
			b.Fatalf("structural violations: %v", bad)
		}
	}
}

// --- Engine scaling: the O(N) claims behind the paper's "calculated
// so easily and efficiently" motivation. ---

func benchSizes() []int { return []int{100, 1000, 10000, 100000} }

func BenchmarkElmoreDelays(b *testing.B) {
	for _, n := range benchSizes() {
		tree := topo.Random(42, topo.RandomOptions{N: n})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				td := elmore.ElmoreDelays(tree)
				if td[0] <= 0 {
					b.Fatal("bad delay")
				}
			}
		})
	}
}

// benchTopologies yields, per size, the random tree the scaling
// ledger has always used ("n=N") and a pure chain ("chain=N"): a chain
// is the deepest tree of its size, so any per-node cost that grows with
// depth shows up there as superlinear scaling.
func benchTopologies(b *testing.B, run func(b *testing.B, tree *rctree.Tree)) {
	for _, n := range benchSizes() {
		random := topo.Random(42, topo.RandomOptions{N: n})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { run(b, random) })
	}
	for _, n := range benchSizes() {
		chain := topo.Chain(n, 1, 1e-15)
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) { run(b, chain) })
	}
}

func BenchmarkAnalyzeBounds(b *testing.B) {
	benchTopologies(b, func(b *testing.B, tree *rctree.Tree) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := elmore.Analyze(tree); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMomentsOrder6(b *testing.B) {
	benchTopologies(b, func(b *testing.B, tree *rctree.Tree) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := elmore.Moments(tree, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkExactSystemBuild(b *testing.B) {
	for _, n := range []int{25, 50, 100, 200} {
		tree := topo.Random(42, topo.RandomOptions{N: n})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := elmore.NewExactSystem(tree); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExactDelay50(b *testing.B) {
	b.ReportAllocs()
	tree := topo.Random(42, topo.RandomOptions{N: 100})
	sys, err := elmore.NewExactSystem(tree)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Delay50Step(i % tree.N()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimTransient(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		tree := topo.Chain(n, 1, 1e-15)
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := elmore.Simulate(tree, elmore.SimOptions{
					Probes: []int{n - 1},
					DT:     0, TEnd: 0,
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		})
	}
}

// BenchmarkSimPlanReuse measures the steady-state cost of re-running a
// prebuilt simulation plan: compile/stamp/factor are paid once outside
// the loop and RunInto reuses one Result, so each op is the bare step
// loop and must not allocate.
func BenchmarkSimPlanReuse(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		tree := topo.Chain(n, 1, 1e-15)
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			// Same horizon/step policy Simulate defaults to.
			tEnd := 0.0
			for _, d := range elmore.ElmoreDelays(tree) {
				if 10*d > tEnd {
					tEnd = 10 * d
				}
			}
			plan, err := elmore.NewSimPlan(tree, elmore.SimPlanOptions{DT: tEnd / 4096})
			if err != nil {
				b.Fatal(err)
			}
			runner := plan.Runner()
			res := new(elmore.SimResult)
			opts := elmore.SimRunOptions{TEnd: tEnd, Probes: []int{n - 1}}
			// Warm-up populates res's buffers so the timed loop is the
			// pure steady state even at -benchtime=1x.
			if err := runner.RunInto(nil, opts, res); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := runner.RunInto(nil, opts, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAWEFitOrder3(b *testing.B) {
	b.ReportAllocs()
	tree := topo.Random(42, topo.RandomOptions{N: 200})
	ms, err := elmore.Moments(tree, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := elmore.FitAWE(ms, i%tree.N(), 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPiReduction(b *testing.B) {
	tree := topo.Random(42, topo.RandomOptions{N: 10000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := elmore.ReduceToPi(tree); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetlistParse(b *testing.B) {
	deck := elmore.FormatNetlist(topo.Random(42, topo.RandomOptions{N: 5000}), "bench")
	b.SetBytes(int64(len(deck)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := elmore.ParseNetlistString(deck); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetlistFormat(b *testing.B) {
	tree := topo.Random(42, topo.RandomOptions{N: 5000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := elmore.FormatNetlist(tree, "bench"); !strings.HasSuffix(s, ".end\n") {
			b.Fatal("bad deck")
		}
	}
}

// --- Incremental delta re-analysis vs full recompute. ---

// BenchmarkIncrementalSetC measures one what-if cycle on the engine: a
// single-node capacitance perturbation, a worst-case query (Sigma
// forces the full order-3 flush), and a revert. Compare against
// BenchmarkAnalyzeBounds at the same n for the full-recompute baseline
// it replaces.
func BenchmarkIncrementalSetC(b *testing.B) {
	for _, n := range benchSizes() {
		tree := topo.Random(42, topo.RandomOptions{N: n})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inc, err := elmore.NewIncremental(tree)
			if err != nil {
				b.Fatal(err)
			}
			leaf := n - 1
			c0 := tree.C(leaf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := inc.SetC(leaf, c0*(1+float64(i%7))); err != nil {
					b.Fatal(err)
				}
				if s := inc.Sigma(leaf); s < 0 {
					b.Fatal("bad sigma")
				}
				inc.Revert()
			}
		})
	}
}

// BenchmarkIncrementalSetR is the resistance-side twin, probing with an
// order-1 query (Elmore) — the optimizer inner loop's actual shape.
func BenchmarkIncrementalSetR(b *testing.B) {
	for _, n := range benchSizes() {
		tree := topo.Random(42, topo.RandomOptions{N: n})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inc, err := elmore.NewIncremental(tree)
			if err != nil {
				b.Fatal(err)
			}
			leaf := n - 1
			r0 := tree.R(leaf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := inc.SetR(leaf, r0*(1+float64(i%7))); err != nil {
					b.Fatal(err)
				}
				if d := inc.Elmore(leaf); d <= 0 {
					b.Fatal("bad delay")
				}
				inc.Revert()
			}
		})
	}
}

// --- Extension experiments beyond the paper's artifacts. ---

func BenchmarkExtPRHWaveformBounds(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		series, err := repro.FigPRH("C5")
		if err != nil {
			b.Fatal(err)
		}
		if bad := repro.CheckPRHFigure(series); len(bad) != 0 {
			b.Fatalf("bracket violations: %v", bad)
		}
	}
}

func BenchmarkExtInputShapeStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := repro.InputShapeStudy("C5", 0.3e-9)
		if err != nil {
			b.Fatal(err)
		}
		if bad := repro.CheckInputShapes(rows); len(bad) != 0 {
			b.Fatalf("violations: %v", bad)
		}
	}
}

// --- Observability overhead. ---

// BenchmarkTelemetryDisabled measures the cost the telemetry hooks add
// to instrumented code when no registry or tracer is installed — the
// state every library consumer and un-flagged CLI run is in. It must
// stay at a few nanoseconds with zero allocations.
func BenchmarkTelemetryDisabled(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		_, sp := telemetry.Start(ctx, "bench.disabled")
		sp.AttrInt("i", int64(i))
		sp.End()
		telemetry.C("bench.disabled_counter").Add(1)
	}
}

package sim

import (
	"strings"
	"testing"

	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/topo"
)

// A plan run must reproduce sim.Run exactly: Run is now a one-shot
// plan execution, and the compiled kernels are bit-identical to the
// historical user-order sweeps.
func TestPlanMatchesRun(t *testing.T) {
	trees := map[string]*rctree.Tree{
		"fig1":     topo.Fig1Tree(),
		"line25":   topo.Line25Tree(),
		"random1k": topo.Random(9, topo.RandomOptions{N: 1000}),
		"star":     topo.Star(40, 5, 50, 2e-14),
	}
	in := signal.SaturatedRamp{Tr: 0.3e-9}
	for name, tree := range trees {
		t.Run(name, func(t *testing.T) {
			probe := tree.N() - 1
			opts := Options{Input: in, Probes: []int{0, probe}}
			want, err := Run(tree, opts)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := NewPlan(tree, PlanOptions{DT: want.Times[1] - want.Times[0]})
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.Run(in, RunOptions{TEnd: want.Times[len(want.Times)-1], Probes: []int{0, probe}})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Times) != len(want.Times) {
				t.Fatalf("steps: plan %d, run %d", len(got.Times), len(want.Times))
			}
			for _, node := range []int{0, probe} {
				gv, _ := got.Voltages(node)
				wv, _ := want.Voltages(node)
				for s := range wv {
					if gv[s] != wv[s] {
						t.Fatalf("node %d step %d: plan %v != run %v", node, s, gv[s], wv[s])
					}
				}
			}
		})
	}
}

// One Runner recycling one Result must not allocate in steady state —
// the contract that makes plan-driven characterization sweeps cheap —
// on a small chain and on a wide tree alike.
func TestRunIntoZeroAllocSteadyState(t *testing.T) {
	wide := topo.Random(21, topo.RandomOptions{N: rctree.MinParallelNodes + 1000, Chaininess: 0.05})
	if w := wide.N() / rctree.Compile(wide).Levels(); w < rctree.MinParallelWidth {
		t.Fatalf("wide test tree has only %d nodes per level", w)
	}
	for name, tree := range map[string]*rctree.Tree{
		"chain400": topo.Chain(400, 1, 1e-15),
		"wide":     wide,
	} {
		plan, err := NewPlan(tree, PlanOptions{DT: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		r := plan.Runner()
		res := &Result{}
		opts := RunOptions{TEnd: 100e-12, Probes: []int{tree.N() - 1}}
		in := signal.Step{}
		// Warm up: first call sizes the buffers (and telemetry counters).
		if err := r.RunInto(in, opts, res); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := r.RunInto(in, opts, res); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: RunInto steady state allocated %v objects per run, want 0", name, allocs)
		}
	}
}

// Re-running into a Result must invalidate its cached waveforms, and
// repeated Cross calls must agree with each other and with a fresh
// computation.
func TestCrossCachedAndInvalidated(t *testing.T) {
	tree := topo.Fig1Tree()
	plan, err := NewPlan(tree, PlanOptions{DT: 5e-12})
	if err != nil {
		t.Fatal(err)
	}
	r := plan.Runner()
	res := &Result{}
	probe, _ := tree.Index("C5")
	opts := RunOptions{Probes: []int{probe}}
	if err := r.RunInto(signal.Step{}, opts, res); err != nil {
		t.Fatal(err)
	}
	first, err := res.Cross(probe, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		again, err := res.Cross(probe, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("repeated Cross diverged: %v then %v", first, again)
		}
	}
	w1, err := res.Waveform(probe)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := res.Waveform(probe)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Fatal("Waveform rebuilt instead of reusing the cached one")
	}
	// A slower input through the same Result must not see stale
	// waveforms.
	if err := r.RunInto(signal.SaturatedRamp{Tr: 2e-9}, opts, res); err != nil {
		t.Fatal(err)
	}
	slower, err := res.Cross(probe, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if slower <= first {
		t.Fatalf("stale waveform cache: ramp cross %v not after step cross %v", slower, first)
	}
}

// A plan snapshots element values; errors surface with Run-compatible
// messages.
func TestPlanErrors(t *testing.T) {
	tree := topo.Fig1Tree()
	if _, err := NewPlan(tree, PlanOptions{DT: 0}); err == nil ||
		!strings.Contains(err.Error(), "invalid time step") {
		t.Fatalf("DT=0: %v", err)
	}
	if _, err := NewPlan(tree, PlanOptions{DT: 1e-12, Method: Method(7)}); err == nil ||
		!strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("bad method: %v", err)
	}
	plan, err := NewPlan(tree, PlanOptions{DT: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(nil, RunOptions{Probes: []int{99}}); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Fatalf("bad probe: %v", err)
	}
	if _, err := plan.Run(nil, RunOptions{TEnd: 1e-22}); err == nil ||
		!strings.Contains(err.Error(), "shorter than step") {
		t.Fatalf("short horizon: %v", err)
	}
}

// Result buffers shrink-reuse correctly: a second run with more probes
// and more steps regrows, a third with fewer reuses.
func TestRunIntoResize(t *testing.T) {
	tree := topo.Chain(50, 1, 1e-15)
	plan, err := NewPlan(tree, PlanOptions{DT: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	r := plan.Runner()
	res := &Result{}
	for _, cfg := range []RunOptions{
		{TEnd: 50e-12, Probes: []int{49}},
		{TEnd: 150e-12}, // all nodes, more steps
		{TEnd: 30e-12, Probes: []int{0, 10}},
	} {
		if err := r.RunInto(signal.Step{}, cfg, res); err != nil {
			t.Fatal(err)
		}
		rows := len(cfg.Probes)
		if rows == 0 {
			rows = tree.N()
		}
		if len(res.values) != rows {
			t.Fatalf("rows = %d, want %d", len(res.values), rows)
		}
		wantSteps := int(cfg.TEnd/plan.DT()) + 1
		if len(res.Times) != wantSteps {
			t.Fatalf("samples = %d, want %d", len(res.Times), wantSteps)
		}
		// Fresh oracle for the same options must agree exactly.
		fresh, err := plan.Run(signal.Step{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		probes := cfg.Probes
		if len(probes) == 0 {
			for i := 0; i < tree.N(); i++ {
				probes = append(probes, i)
			}
		}
		for _, node := range probes {
			a, _ := res.Voltages(node)
			b, _ := fresh.Voltages(node)
			for s := range b {
				if a[s] != b[s] {
					t.Fatalf("node %d step %d: reused %v != fresh %v", node, s, a[s], b[s])
				}
			}
		}
	}
}

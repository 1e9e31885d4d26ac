package elmore_test

import (
	"math"
	"os"
	"testing"
	"time"

	"elmore"
	"elmore/internal/topo"
)

// TestIncrementalSpeedupSmoke is the bench-incremental lane's assertion
// (ISSUE 8 acceptance): on a 100k-node chain, a single-node SetC
// followed by re-bounding the perturbed sink must run >= 10x faster
// through the incremental engine than through a full AnalyzeBounds
// recompute. It is a timing test, so it only runs when
// ELMORE_BENCH_SMOKE=1 (the `make bench-incremental` lane and CI set
// it); plain `go test ./...` skips it to stay load-insensitive.
func TestIncrementalSpeedupSmoke(t *testing.T) {
	if os.Getenv("ELMORE_BENCH_SMOKE") != "1" {
		t.Skip("set ELMORE_BENCH_SMOKE=1 to run the incremental speedup assertion")
	}
	const n = 100000
	const reps = 5
	tree := topo.Chain(n, 1, 1e-15)
	leaf := n - 1
	c0 := tree.C(leaf)

	// Full path: mutate the tree, recompute every bound from scratch.
	// One measurement of the O(n) full pipeline; the assertion is a
	// 10x floor, not a tight ratio. The resulting Analysis doubles as
	// the incremental side's starting state.
	if err := tree.SetC(leaf, 2*c0); err != nil {
		t.Fatal(err)
	}
	fullStart := time.Now()
	an, err := elmore.Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	fullPer := time.Since(fullStart)
	fullTD := an.Bounds[leaf].Elmore

	// Incremental path: perturb the engine, re-bound the perturbed
	// sink. The loop ends back on the engine's bind-time value, so the
	// final re-bound must reproduce the measured full analysis bit for
	// bit.
	inc, err := elmore.NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	incStart := time.Now()
	for i := 0; i < reps; i++ {
		v := c0 * float64(3+i)
		if i == reps-1 {
			v = 2 * c0
		}
		if err := inc.SetC(leaf, v); err != nil {
			t.Fatal(err)
		}
		if err := an.Reanalyze(inc, []int{leaf}); err != nil {
			t.Fatal(err)
		}
	}
	incPer := time.Since(incStart) / reps

	// Same final perturbation on both paths -> bit-identical delay.
	if math.Float64bits(an.Bounds[leaf].Elmore) != math.Float64bits(fullTD) {
		t.Fatalf("incremental T_D %v != full recompute %v", an.Bounds[leaf].Elmore, fullTD)
	}

	speedup := float64(fullPer) / float64(incPer)
	t.Logf("full %v/op, incremental %v/op, speedup %.1fx", fullPer, incPer, speedup)
	if speedup < 10 {
		t.Fatalf("incremental path is only %.1fx faster than full recompute (full %v, incremental %v); want >= 10x",
			speedup, fullPer, incPer)
	}
}

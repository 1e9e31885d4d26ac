package moments

import (
	"context"
	"math"
	"testing"

	"elmore/internal/topo"
)

// Arena budgets: the arena absorbs exactly the sweep-scratch
// allocation, so each *With variant costs one alloc less than its
// allocating twin (see alloc_test.go for the base budgets).
const (
	computeArenaAllocBudget = computeAllocBudget - 1 // scratch from arena
	prhArenaAllocBudget     = prhAllocBudget - 1
)

// dirtyArena returns an arena whose buffer is pre-poisoned with NaN at
// a capacity larger than any test tree needs: if a kernel ever reads a
// scratch slot before writing it, the NaN propagates into the result
// and the bit-identity checks below catch it.
func dirtyArena(n int) *Arena {
	ar := new(Arena)
	buf := ar.scratch(n)
	for i := range buf {
		buf[i] = math.NaN()
	}
	return ar
}

// TestComputeWithArenaBitIdentical is the arena contract: drawing the
// sweep scratch from a reused (and deliberately dirty) arena must give
// bit-identical moments to the allocating path, across trees of
// different sizes sharing one arena — growth and shrink both covered.
func TestComputeWithArenaBitIdentical(t *testing.T) {
	ar := dirtyArena(4096)
	// Descending then ascending sizes: the second pass reuses a buffer
	// larger than needed, the growth path reallocates mid-sequence.
	for _, n := range []int{900, 300, 37, 1, 500, 1200} {
		tree := topo.Random(int64(n), topo.RandomOptions{N: n})
		want, err := Compute(tree, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ComputeWith(tree, 3, ar)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q <= 3; q++ {
			for i := 0; i < tree.N(); i++ {
				if got.M(q, i) != want.M(q, i) {
					t.Fatalf("N=%d m_%d(%d): arena %v != alloc %v", n, q, i, got.M(q, i), want.M(q, i))
				}
			}
		}
	}
}

// TestComputePRHWithArenaBitIdentical is the same contract for the
// fused PRH computation.
func TestComputePRHWithArenaBitIdentical(t *testing.T) {
	ar := dirtyArena(4096)
	for _, n := range []int{700, 50, 1500} {
		tree := topo.Random(int64(n), topo.RandomOptions{N: n})
		want := ComputePRH(tree)
		got := ComputePRHWith(tree, ar)
		for i := 0; i < tree.N(); i++ {
			if got.TD[i] != want.TD[i] || got.rkk[i] != want.rkk[i] || got.tr[i] != want.tr[i] {
				t.Fatalf("N=%d node %d: arena (TD=%v rkk=%v tr=%v) != alloc (TD=%v rkk=%v tr=%v)",
					n, i, got.TD[i], got.rkk[i], got.tr[i], want.TD[i], want.rkk[i], want.tr[i])
			}
		}
	}
}

// TestArenaResultsOutliveArena pins the ownership rule: only transient
// scratch comes from the arena, so a Set computed with it must stay
// intact after the arena's buffer is reused and scribbled over — cached
// Sets are shared across workers while arenas keep cycling.
func TestArenaResultsOutliveArena(t *testing.T) {
	ar := new(Arena)
	tree := topo.Random(3, topo.RandomOptions{N: 200})
	ms, err := ComputeWith(tree, 3, ar)
	if err != nil {
		t.Fatal(err)
	}
	snap := make([]float64, tree.N())
	for i := range snap {
		snap[i] = ms.M(1, i)
	}
	for i := range ar.buf {
		ar.buf[i] = math.NaN()
	}
	if _, err := ComputeWith(topo.Random(4, topo.RandomOptions{N: 150}), 3, ar); err != nil {
		t.Fatal(err)
	}
	for i := range snap {
		if ms.M(1, i) != snap[i] {
			t.Fatalf("node %d: cached moment changed after arena reuse: %v != %v", i, ms.M(1, i), snap[i])
		}
	}
}

func TestArenaScratchGrowsAndReuses(t *testing.T) {
	ar := new(Arena)
	a := ar.scratch(64)
	if len(a) != 64 {
		t.Fatalf("scratch(64) len = %d", len(a))
	}
	b := ar.scratch(32)
	if &b[0] != &a[0] {
		t.Errorf("shrinking request reallocated instead of reslicing")
	}
	c := ar.scratch(128)
	if len(c) != 128 {
		t.Fatalf("scratch(128) len = %d", len(c))
	}
	var nilAr *Arena
	d := nilAr.scratch(16)
	if len(d) != 16 {
		t.Errorf("nil arena scratch(16) len = %d, want a plain allocation", len(d))
	}
}

func TestWithArenaRoundTrip(t *testing.T) {
	if ArenaFrom(context.Background()) != nil {
		t.Errorf("ArenaFrom on a bare context returned a non-nil arena")
	}
	ar := new(Arena)
	ctx := WithArena(context.Background(), ar)
	if got := ArenaFrom(ctx); got != ar {
		t.Errorf("ArenaFrom = %p, want %p", got, ar)
	}
}

// Arena-fed alloc budgets: one below the allocating path, exactly the
// sweep scratch the arena absorbs.
func TestComputeWithArenaAllocBudget(t *testing.T) {
	tree := topo.Random(11, topo.RandomOptions{N: 300})
	ar := new(Arena)
	if _, err := ComputeWith(tree, 3, ar); err != nil { // warm plan cache and arena
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := ComputeWith(tree, 3, ar); err != nil {
			t.Fatal(err)
		}
	})
	if got > computeArenaAllocBudget {
		t.Errorf("ComputeWith(arena) = %.1f allocs/op, budget %d", got, computeArenaAllocBudget)
	}
}

func TestComputePRHWithArenaAllocBudget(t *testing.T) {
	tree := topo.Random(11, topo.RandomOptions{N: 300})
	ar := new(Arena)
	ComputePRHWith(tree, ar)
	got := testing.AllocsPerRun(200, func() { ComputePRHWith(tree, ar) })
	if got > prhArenaAllocBudget {
		t.Errorf("ComputePRHWith(arena) = %.1f allocs/op, budget %d", got, prhArenaAllocBudget)
	}
}

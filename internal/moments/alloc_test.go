package moments

import (
	"testing"

	"elmore/internal/rctree"
	"elmore/internal/topo"
)

// Allocation budgets for the moment kernels. These are exact counts,
// not estimates — a new make, a closure capture of a reassigned
// variable, or an interface conversion on the hot path shows up here as
// a +1 before it shows up as a benchmark regression.
//
//	Compute:     Set header, row slice header array, row backing,
//	             sweep scratch                                   = 4
//	ComputePRH:  PRHTerms, fused user backing, compiled scratch  = 3
//	ElmoreDelays: td, compiled scratch                           = 2
const (
	computeAllocBudget = 4
	prhAllocBudget     = 3
	elmoreAllocBudget  = 2
)

// allocTrees are the inputs every budget must hold on: a 300-node net
// and a wide tree of the class the benchmark's deep-nets corpus
// carries. The kernels are one serial sweep each, so the counts do not
// depend on size or shape.
func allocTrees(t *testing.T) map[string]*rctree.Tree {
	return map[string]*rctree.Tree{
		"random300": topo.Random(11, topo.RandomOptions{N: 300}),
		"wide":      wideTree(t),
	}
}

// wideTree is a random tree of rctree.MinParallelNodes+1000 nodes with
// an average level width of at least rctree.MinParallelWidth.
func wideTree(t *testing.T) *rctree.Tree {
	t.Helper()
	tree := topo.Random(21, topo.RandomOptions{N: rctree.MinParallelNodes + 1000, Chaininess: 0.05})
	if w := tree.N() / rctree.Compile(tree).Levels(); w < rctree.MinParallelWidth {
		t.Fatalf("wide test tree has only %d nodes per level", w)
	}
	return tree
}

func TestComputeAllocBudget(t *testing.T) {
	for name, tree := range allocTrees(t) {
		if _, err := Compute(tree, 3); err != nil { // warm the compiled-plan cache
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := Compute(tree, 3); err != nil {
				t.Fatal(err)
			}
		})
		if got > computeAllocBudget {
			t.Errorf("%s: Compute(order=3) = %.1f allocs/op, budget %d", name, got, computeAllocBudget)
		}
	}
}

func TestComputePRHAllocBudget(t *testing.T) {
	for name, tree := range allocTrees(t) {
		ComputePRH(tree)
		got := testing.AllocsPerRun(200, func() { ComputePRH(tree) })
		if got > prhAllocBudget {
			t.Errorf("%s: ComputePRH = %.1f allocs/op, budget %d", name, got, prhAllocBudget)
		}
	}
}

func TestElmoreDelaysAllocBudget(t *testing.T) {
	for name, tree := range allocTrees(t) {
		ElmoreDelays(tree)
		got := testing.AllocsPerRun(200, func() { ElmoreDelays(tree) })
		if got > elmoreAllocBudget {
			t.Errorf("%s: ElmoreDelays = %.1f allocs/op, budget %d", name, got, elmoreAllocBudget)
		}
	}
}

// The fused ComputePRH must produce bit-identical terms to computing
// each ingredient with its standalone public API: the sweeps are the
// same gather-form kernels in the same order, so there is no legitimate
// source of divergence — not even in the last ulp. T_R is checked
// against a per-node root-first walk over Tree.DownstreamC with the
// same recurrence step.
func TestComputePRHBitIdenticalToStandalone(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		tree := topo.Random(seed, topo.RandomOptions{N: 500})
		p := ComputePRH(tree)
		td := ElmoreDelays(tree)
		down := tree.DownstreamC()
		var path []int
		for i := 0; i < tree.N(); i++ {
			if p.TD[i] != td[i] {
				t.Fatalf("seed %d node %d: fused TD %v != ElmoreDelays %v", seed, i, p.TD[i], td[i])
			}
			path = path[:0]
			for j := i; j != rctree.Source; j = tree.Parent(j) {
				path = append(path, j)
			}
			var rp, s float64
			for k := len(path) - 1; k >= 0; k-- {
				j := path[k]
				a := tree.R(j)
				if k < len(path)-1 {
					a += rp
				}
				s = trStep(s, tree.R(j), a, rp, down[j])
				rp = a
			}
			if want := s / rp; p.TR(i) != want || p.PathResistance(i) != rp {
				t.Fatalf("seed %d node %d: fused T_R %v, R_ii %v; root-first walk %v, %v",
					seed, i, p.TR(i), p.PathResistance(i), want, rp)
			}
		}
	}
}

func BenchmarkComputeOrder3(b *testing.B) {
	tree := topo.Random(11, topo.RandomOptions{N: 1000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(tree, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputePRH(b *testing.B) {
	tree := topo.Random(11, topo.RandomOptions{N: 1000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ComputePRH(tree)
	}
}

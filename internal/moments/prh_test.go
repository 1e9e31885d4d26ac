package moments

import (
	"strconv"
	"testing"

	"elmore/internal/rctree"
	"elmore/internal/topo"
)

// trOracleTol is the relative tolerance between the O(N) pre-order
// T_R recurrence and the O(N)-per-node TRDirect definition. The two sum
// the same nonnegative terms in different orders; the worst disagreement
// on the trees below is about 1.4e-14, so 1e-12 leaves a margin of ~70x.
const trOracleTol = 1e-12

// checkTROracle compares ComputePRH's T_R against TRDirect at the given
// nodes (every node when nodes is nil).
func checkTROracle(t *testing.T, label string, tree *rctree.Tree, nodes []int) {
	t.Helper()
	p := ComputePRH(tree)
	if nodes == nil {
		for i := 0; i < tree.N(); i++ {
			nodes = append(nodes, i)
		}
	}
	for _, i := range nodes {
		got, want := p.TR(i), TRDirect(tree, i)
		if !approx(got, want, trOracleTol) {
			t.Fatalf("%s node %s: T_R %v, TRDirect %v (rel tol %g)", label, tree.Name(i), got, want, trOracleTol)
		}
	}
}

func mustBuild(t *testing.T, b *rctree.Builder) *rctree.Tree {
	t.Helper()
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestTRMatchesDirectChain(t *testing.T) {
	checkTROracle(t, "uniform chain", topo.Chain(400, 25, 3e-15), nil)
	// Non-uniform values, so every path term differs.
	b := rctree.NewBuilder()
	prev := b.MustRoot("n0", 7, 2e-15)
	for k := 1; k < 300; k++ {
		prev = b.MustAttach(prev, "n"+strconv.Itoa(k), float64(1+k%13), float64(1+k%7)*1e-15)
	}
	checkTROracle(t, "graded chain", mustBuild(t, b), nil)
}

func TestTRMatchesDirectStar(t *testing.T) {
	checkTROracle(t, "star", topo.Star(40, 6, 50, 2e-14), nil)
}

func TestTRMatchesDirectDeepFan(t *testing.T) {
	// A long trunk ending in a balanced fan: deep paths with many
	// branch points along them.
	b := rctree.NewBuilder()
	prev := b.MustRoot("t0", 30, 1e-14)
	for k := 1; k < 60; k++ {
		prev = b.MustAttach(prev, "t"+strconv.Itoa(k), 30, 1e-14)
	}
	var grow func(parent int, name string, d int)
	grow = func(parent int, name string, d int) {
		if d == 0 {
			return
		}
		for f := 0; f < 3; f++ {
			child := b.MustAttach(parent, name+strconv.Itoa(f), float64(10+5*f), float64(1+d)*1e-15)
			grow(child, name+strconv.Itoa(f), d-1)
		}
	}
	grow(prev, "f", 5)
	checkTROracle(t, "deep fan", mustBuild(t, b), nil)
	checkTROracle(t, "balanced", topo.Balanced(6, 3, 40, 1e-14), nil)
}

func TestTRMatchesDirectForest(t *testing.T) {
	// Three root components: T_R at a node must ignore every capacitor
	// outside its own component (they share no resistance with it).
	b := rctree.NewBuilder()
	for r := 0; r < 3; r++ {
		root := b.MustRoot("r"+strconv.Itoa(r), float64(20+10*r), float64(1+r)*1e-14)
		prev := root
		for k := 0; k < 20+5*r; k++ {
			prev = b.MustAttach(prev, "r"+strconv.Itoa(r)+"_"+strconv.Itoa(k), float64(5+k%4), 3e-15)
			if k%6 == 0 {
				b.MustAttach(root, "r"+strconv.Itoa(r)+"_s"+strconv.Itoa(k), 9, 7e-15)
			}
		}
	}
	checkTROracle(t, "forest", mustBuild(t, b), nil)
}

func TestTRMatchesDirectZeroDownstreamC(t *testing.T) {
	// Node "dead" and its whole subtree carry no capacitance, so the
	// recurrence adds nothing there: T_R(dead) = S(parent) / R_dead.
	b := rctree.NewBuilder()
	root := b.MustRoot("root", 40, 2e-14)
	mid := b.MustAttach(root, "mid", 15, 5e-15)
	dead := b.MustAttach(mid, "dead", 8, 0)
	b.MustAttach(dead, "dead_leaf", 3, 0)
	b.MustAttach(mid, "live", 12, 9e-15)
	b.MustAttach(root, "side", 20, 4e-15)
	tree := mustBuild(t, b)
	checkTROracle(t, "zero downstream C", tree, nil)

	p := ComputePRH(tree)
	di, mi := tree.MustIndex("dead"), tree.MustIndex("mid")
	want := p.TR(mi) * p.PathResistance(mi) / p.PathResistance(di)
	if !approx(p.TR(di), want, 1e-15) {
		t.Fatalf("T_R(dead) = %v, want S(mid)/R_dead = %v", p.TR(di), want)
	}
}

// TestTRWideTreeMatchesDirect runs a wide tree (see wideTree) through
// ComputePRHWith on a dirty arena: the fused Elmore term must match
// ElmoreDelays bit for bit, and a sample of nodes must match TRDirect.
func TestTRWideTreeMatchesDirect(t *testing.T) {
	tree := wideTree(t)
	n := tree.N()
	p := ComputePRHWith(tree, dirtyArena(2*n))
	td := ElmoreDelays(tree)
	for i := 0; i < n; i++ {
		if p.TD[i] != td[i] {
			t.Fatalf("node %d: fused TD %v != ElmoreDelays %v", i, p.TD[i], td[i])
		}
	}
	var sample []int
	for i := 0; i < n; i += 499 {
		sample = append(sample, i)
	}
	checkTROracle(t, "wide", tree, sample)
}

// Incremental.TR on a clean engine is an array read of the T_R
// numerator its order-1 sweeps maintain; it must not allocate.
func TestIncrementalTRAllocFree(t *testing.T) {
	tree := topo.Random(5, topo.RandomOptions{N: 600})
	inc, err := NewIncremental(tree)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		for i := 0; i < tree.N(); i += 7 {
			inc.TR(i)
		}
	})
	if got != 0 {
		t.Fatalf("Incremental.TR = %.1f allocs/run, want 0", got)
	}
}

package moments

import (
	"fmt"
	"testing"

	"elmore/internal/rctree"
	"elmore/internal/topo"
)

// The compiled recurrences — Compute's order-5 sweeps and the
// ElmoreDelays kernel — must agree with the O(N^2) definitional oracle
// on the paper's reference trees and on random, star and balanced
// shapes.
func TestComputeMatchesDirectOracle(t *testing.T) {
	trees := map[string]*rctree.Tree{
		"fig1":     topo.Fig1Tree(),
		"line25":   topo.Line25Tree(),
		"random1k": topo.Random(9, topo.RandomOptions{N: 1000}),
		"star":     topo.Star(300, 3, 50, 2e-14),
		"balanced": topo.Balanced(8, 3, 75, 1e-14),
	}
	for name, tree := range trees {
		t.Run(name, func(t *testing.T) {
			s, err := Compute(tree, 5)
			if err != nil {
				t.Fatal(err)
			}
			td := ElmoreDelays(tree)
			for i := 0; i < tree.N(); i++ {
				want := ElmoreDelayDirect(tree, i)
				if !approx(s.Elmore(i), want, 1e-12) || !approx(td[i], want, 1e-12) {
					t.Fatalf("node %d: Compute Elmore %v, ElmoreDelays %v, direct %v",
						i, s.Elmore(i), td[i], want)
				}
			}
		})
	}
}

// The compiled recurrence must agree with the O(N^2) definitional
// oracle regardless of topology.
func TestCompiledMatchesDirectOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		tree := topo.RandomSmall(seed, 40)
		s, err := Compute(tree, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tree.N(); i++ {
			want := ElmoreDelayDirect(tree, i)
			got := s.Elmore(i)
			if diff := got - want; diff > 1e-18+1e-12*want || diff < -(1e-18+1e-12*want) {
				t.Fatalf("seed %d node %d: Elmore %v, direct %v", seed, i, got, want)
			}
		}
	}
}

// Moment sets computed before and after a SetR round-trip must agree:
// the compiled-plan cache has to rebuild on mutation, not serve stale
// element values.
func TestComputeSeesMutations(t *testing.T) {
	tree := topo.Random(4, topo.RandomOptions{N: 200})
	before, err := Compute(tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	orig := tree.R(17)
	if err := tree.SetR(17, orig*3); err != nil {
		t.Fatal(err)
	}
	during, err := Compute(tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	if during.Elmore(17) == before.Elmore(17) {
		t.Fatal("moments did not observe SetR (stale compiled plan?)")
	}
	if err := tree.SetR(17, orig); err != nil {
		t.Fatal(err)
	}
	after, err := Compute(tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tree.N(); i++ {
		if after.Elmore(i) != before.Elmore(i) {
			t.Fatalf("node %d: Elmore not restored after SetR round-trip", i)
		}
	}
}

func ExampleElmoreDelays() {
	td := ElmoreDelays(topo.Fig1Tree())
	tree := topo.Fig1Tree()
	i, _ := tree.Index("C5")
	fmt.Printf("T_D(C5) = %.2fns\n", td[i]*1e9)
	// Output: T_D(C5) = 1.20ns
}

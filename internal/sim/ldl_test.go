package sim

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"elmore/internal/linalg"
	"elmore/internal/rctree"
	"elmore/internal/topo"
)

// The compiled tree solver must match a dense LU solve on the same
// matrix, through the user->compiled permutation and back.
func TestTreeLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		tree := topo.RandomSmall(rng.Int63(), 25)
		n := tree.N()
		diag := make([]float64, n)
		offd := make([]float64, n)
		dense := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			diag[i] = 2 + rng.Float64()*3
		}
		for i := 0; i < n; i++ {
			if p := tree.Parent(i); p != rctree.Source {
				offd[i] = -(0.1 + rng.Float64()*0.4) // keep diagonally dominant
				dense.Set(i, p, offd[i])
				dense.Set(p, i, offd[i])
			}
		}
		for i := 0; i < n; i++ {
			dense.Set(i, i, diag[i])
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		want, err := linalg.SolveLU(dense, rhs)
		if err != nil {
			t.Fatalf("trial %d: dense solve: %v", trial, err)
		}
		// Permute the user-indexed system into compiled order.
		cp := rctree.Compile(tree)
		diagC := make([]float64, n)
		offdC := make([]float64, n)
		rhsC := make([]float64, n)
		for ci := 0; ci < n; ci++ {
			ui := cp.ToUser[ci]
			diagC[ci] = diag[ui]
			offdC[ci] = offd[ui]
			rhsC[ci] = rhs[ui]
		}
		f, err := factorCompiled(cp, diagC, offdC, offdC, tree.Name)
		if err != nil {
			t.Fatalf("trial %d: factorCompiled: %v", trial, err)
		}
		got := append([]float64(nil), rhsC...)
		f.solve(got)
		for i := range want {
			if !approx(got[cp.FromUser[i]], want[i], 1e-8) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[cp.FromUser[i]], want[i])
			}
		}
	}
}

// A non-positive pivot must be reported with the offending node's name:
// elimination runs children first, so the first bad pivot of an
// all-negative diagonal is the deepest node.
func TestFactorRejectsBadPivot(t *testing.T) {
	tree := topo.Chain(4, 1, 1e-15)
	cp := rctree.Compile(tree)
	n := cp.N()
	diag := make([]float64, n)
	offd := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = -1 // every pivot negative
	}
	_, err := factorCompiled(cp, diag, offd, offd, tree.Name)
	if err == nil {
		t.Fatal("factorCompiled accepted a negative diagonal")
	}
	if name := tree.Name(int(cp.ToUser[n-1])); !strings.Contains(err.Error(), strconv.Quote(name)) {
		t.Fatalf("error %q does not name the deepest node %q", err, name)
	}
}

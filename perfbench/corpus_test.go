package main

import (
	"bytes"
	"math"
	"testing"

	"elmore/internal/netlist"
	"elmore/internal/rctree"
)

func corpusDigest(t *testing.T, workload string, seed int64) string {
	t.Helper()
	c, err := buildCorpus(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := c.write(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return digest
}

func TestCorpusDeterministic(t *testing.T) {
	for _, w := range []string{"sweep-small", "deep-nets"} {
		a, b := corpusDigest(t, w, 5), corpusDigest(t, w, 5)
		if a != b {
			t.Errorf("%s: seed 5 gave digests %s and %s", w, a, b)
		}
		if c := corpusDigest(t, w, 6); c == a {
			t.Errorf("%s: seeds 5 and 6 gave the same corpus", w)
		}
	}
	_, a, _ := newServeCorpus(5).requests(200)
	_, b, _ := newServeCorpus(5).requests(200)
	_, c, _ := newServeCorpus(6).requests(200)
	if a != b || a == c {
		t.Errorf("serve-open digests: seed 5 %s / %s, seed 6 %s", a, b, c)
	}
}

func TestRepeatShares(t *testing.T) {
	for w, want := range map[string]float64{"sweep-small": 2.0 / 3, "deep-nets": 0} {
		c, err := buildCorpus(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.repeatFrac(); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: repeated-net share %.4f, want %.4f", w, got, want)
		}
	}
	_, _, rep := newServeCorpus(1).requests(4000)
	if math.Abs(rep-hotShare) > 0.03 {
		t.Errorf("serve-open: repeated-net share %.4f, want about %.2f", rep, hotShare)
	}
}

// TestDeepNetsShapes: the chains are chains, and the wide trees run the
// level-parallel kernels (node count and average level width at or
// above the thresholds). Decks round-trip through the parser to the
// tree the oracle builds directly.
func TestDeepNetsShapes(t *testing.T) {
	c, err := buildCorpus("deep-nets", 3)
	if err != nil {
		t.Fatal(err)
	}
	chains, wide := 0, 0
	for _, nt := range c.nets[1:] {
		tree, err := nt.tree()
		if err != nil {
			t.Fatal(err)
		}
		cp := rctree.Compile(tree)
		switch {
		case cp.Levels() == tree.N():
			chains++
			if tree.N() < deepChainMin || tree.N() > deepChainMax {
				t.Errorf("%s: chain of %d nodes", nt.name, tree.N())
			}
		case tree.N() >= rctree.MinParallelNodes && tree.N()/cp.Levels() >= rctree.MinParallelWidth:
			wide++
		default:
			t.Errorf("%s: %d nodes over %d levels is neither a chain nor wide", nt.name, tree.N(), cp.Levels())
		}
		deck, err := netlist.Parse(bytes.NewReader(nt.deck()))
		if err != nil {
			t.Fatal(err)
		}
		if deck.Tree.N() != tree.N() {
			t.Errorf("%s: parsed %d nodes, built %d", nt.name, deck.Tree.N(), tree.N())
		}
		for _, i := range []int{0, tree.N() / 2, tree.N() - 1} {
			j, ok := deck.Tree.Index(tree.Name(i))
			if !ok || deck.Tree.R(j) != tree.R(i) || deck.Tree.C(j) != tree.C(i) {
				t.Errorf("%s: node %s differs between deck and oracle tree", nt.name, tree.Name(i))
			}
		}
	}
	if chains != deepChains || wide != deepWide {
		t.Errorf("%d chains and %d wide trees, want %d and %d", chains, wide, deepChains, deepWide)
	}
}

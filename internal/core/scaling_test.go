//go:build !race && unix

package core

import (
	"runtime"
	"syscall"
	"testing"
	"time"

	"elmore/internal/rctree"
	"elmore/internal/topo"
)

// TestAnalyzeLinearOnChains guards the O(N) claim where it is easiest
// to lose: on a pure chain every node is as deep as the tree is long,
// so any per-node cost that walks the root path makes Analyze
// quadratic. Quadrupling the chain must cost about 4x (linear), well
// under the 16x a per-node path walk gives; the bound of 8 sits
// between the two. Each size takes the best of three trials over the
// same total node count, the sizes interleaved. Timing-based, so it is
// skipped under -short and (by build tag) under the race detector.
func TestAnalyzeLinearOnChains(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped under -short")
	}
	// Process CPU time, not wall time: other test processes sharing the
	// machine delay this one without charging it CPU.
	cpuTime := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	small, large := topo.Chain(2048, 10, 1e-15), topo.Chain(8192, 10, 1e-15)
	perNode := func(tree *rctree.Tree) time.Duration {
		reps := 65536 / tree.N()
		runtime.GC()
		start := cpuTime()
		for r := 0; r < reps; r++ {
			if _, err := Analyze(tree); err != nil {
				t.Fatal(err)
			}
		}
		return (cpuTime() - start) / time.Duration(reps)
	}
	perNode(small) // warm the compiled plans
	perNode(large)
	bestSmall, bestLarge := time.Duration(1<<62), time.Duration(1<<62)
	for trial := 0; trial < 3; trial++ { // interleaved, so drift hits both sizes alike
		bestSmall = min(bestSmall, perNode(small))
		bestLarge = min(bestLarge, perNode(large))
	}
	ratio := float64(bestLarge) / float64(bestSmall)
	t.Logf("Analyze chain 2k: %v, 8k: %v, ratio %.2f (linear ~4, per-node path walk ~16)", bestSmall, bestLarge, ratio)
	if ratio > 8 {
		t.Fatalf("Analyze on a chain scales superlinearly: 8k/2k time ratio %.2f > 8", ratio)
	}
}

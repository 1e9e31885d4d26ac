package batch

// Tests for the per-worker plumbing the scaling fix added to the
// worker loop: the context-carried scratch arena and the steady-state
// allocation budget of a cache-warm net job.

import (
	"context"
	"fmt"
	"testing"

	"elmore/internal/core"
	"elmore/internal/health"
	"elmore/internal/topo"
)

// TestWorkerOwnsDistinctArena asserts each worker goroutine gets its
// own scratch arena: with no cache, every job's moment and PRH sweeps
// draw from its worker's arena, so an arena shared across workers would
// race (caught under -race) and corrupt the bounds. Four workers over
// nets of different sizes must reproduce a plain sequential analysis
// bit for bit.
func TestWorkerOwnsDistinctArena(t *testing.T) {
	var jobs []Job
	var want []*core.Analysis
	for i := 0; i < 64; i++ {
		tree := topo.Random(int64(i)+1, topo.RandomOptions{N: 8 + i%23})
		a, err := core.Analyze(tree)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, netJob(fmt.Sprintf("j%d", i), tree))
		want = append(want, a)
	}
	for _, r := range (&Engine{Workers: 4}).Run(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
		for k, b := range r.Net.Analysis.Bounds {
			if b != want[r.Index].Bounds[k] {
				t.Fatalf("job %s node %d: bounds %+v, sequential %+v", r.ID, k, b, want[r.Index].Bounds[k])
			}
		}
	}
}

// workerJobAllocBudget is the steady-state marginal allocation count
// of one cache-warm net job in the worker loop: the moment set is a
// cache hit and the PRH scratch comes from the worker's arena, so what
// remains is the result plumbing (PRHTerms + fused backing, Analysis +
// bounds, NetResult + sinks, reorder parking) — ~7 measured; 8 leaves
// one alloc of headroom before the regression trips.
const workerJobAllocBudget = 8

// TestWorkerLoopAllocBudget pins the arena + sharded-cache fast path
// by marginal cost: the difference between a 40-job and an 8-job run
// divided out per job, which cancels the engine's fixed setup
// (channels, goroutines, stats). Before the arena the scratch alone
// added two allocations per job on top of this budget. The budget is
// for the disabled observability path, so the test runs with no health
// monitor installed even when the environment installs one.
func TestWorkerLoopAllocBudget(t *testing.T) {
	prev := health.SetDefault(nil)
	defer health.SetDefault(prev)
	tree := chainNet(t, 300)
	e := &Engine{Workers: 1, Cache: NewCache()}
	mk := func(k int) []Job {
		jobs := make([]Job, k)
		for i := range jobs {
			jobs[i] = netJob(fmt.Sprintf("j%d", i), tree, "n299")
		}
		return jobs
	}
	for _, r := range e.Run(context.Background(), mk(4)) { // warm cache + compiled plan
		if r.Err != nil {
			t.Fatalf("warm-up job %s: %v", r.ID, r.Err)
		}
	}
	run := func(k int) float64 {
		jobs := mk(k)
		return testing.AllocsPerRun(20, func() { e.Run(context.Background(), jobs) })
	}
	small, large := run(8), run(40)
	perJob := (large - small) / 32
	if perJob > workerJobAllocBudget {
		t.Errorf("worker loop = %.2f allocs/job (runs: 8 jobs %.0f, 40 jobs %.0f), budget %d",
			perJob, small, large, workerJobAllocBudget)
	}
}

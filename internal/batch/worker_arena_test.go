package batch

// Tests for the per-worker plumbing the scaling fix added to the
// worker loop: the context-carried scratch arena, the OnWorker
// decorate/cleanup hook, and the steady-state allocation budget of a
// cache-warm net job.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"elmore/internal/health"
	"elmore/internal/moments"
	"elmore/internal/telemetry"
)

// TestWorkerOwnsDistinctArena asserts each worker goroutine gets its
// own scratch arena in its context — sharing one across workers would
// race the sweep buffers — and that OnWorker observes the context
// after the arena is attached, so journal-style decorators can rely on
// it being there.
func TestWorkerOwnsDistinctArena(t *testing.T) {
	const workers = 4
	var mu sync.Mutex
	arenas := make(map[*moments.Arena]int)
	e := &Engine{
		Workers: workers,
		OnWorker: func(ctx context.Context, worker int) (context.Context, func()) {
			ar := moments.ArenaFrom(ctx)
			if ar == nil {
				t.Errorf("worker %d: context carries no arena", worker)
				return nil, nil
			}
			mu.Lock()
			arenas[ar]++
			mu.Unlock()
			return nil, nil
		},
	}
	tree := chainNet(t, 8)
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = netJob(fmt.Sprintf("j%d", i), tree)
	}
	for _, r := range e.Run(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
	}
	if len(arenas) != workers {
		t.Errorf("%d workers share %d arenas, want one each", workers, len(arenas))
	}
	for ar, n := range arenas {
		if n != 1 {
			t.Errorf("arena %p handed to %d workers", ar, n)
		}
	}
}

// TestOnWorkerDecoratesAndCleansUp pins the hook contract: the
// returned context replaces the worker's context for OnStart and every
// job, and the returned cleanup runs exactly once per worker at exit.
func TestOnWorkerDecoratesAndCleansUp(t *testing.T) {
	type markKey struct{}
	const workers = 3
	var mu sync.Mutex
	cleanups := make(map[int]int)
	marked := 0
	e := &Engine{
		Workers: workers,
		OnWorker: func(ctx context.Context, worker int) (context.Context, func()) {
			return context.WithValue(ctx, markKey{}, worker), func() {
				mu.Lock()
				cleanups[worker]++
				mu.Unlock()
			}
		},
		OnStart: func(ctx context.Context, index int, id string, _ telemetry.TraceContext) {
			if w, ok := ctx.Value(markKey{}).(int); ok && w >= 0 {
				mu.Lock()
				marked++
				mu.Unlock()
			}
		},
	}
	tree := chainNet(t, 6)
	jobs := make([]Job, 30)
	for i := range jobs {
		jobs[i] = netJob(fmt.Sprintf("j%d", i), tree)
	}
	e.Run(context.Background(), jobs)
	if marked != len(jobs) {
		t.Errorf("OnStart saw the decorated context for %d of %d jobs", marked, len(jobs))
	}
	if len(cleanups) != workers {
		t.Errorf("cleanup ran for %d workers, want %d", len(cleanups), workers)
	}
	for w, n := range cleanups {
		if n != 1 {
			t.Errorf("worker %d cleanup ran %d times, want once", w, n)
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

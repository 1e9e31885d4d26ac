package batch

import (
	"context"
	"fmt"
	"time"

	"elmore/internal/telemetry"
)

// Per-worker accounting. Each worker goroutine owns one WorkerStats for
// the duration of a Run and is its only writer; RunFunc reads the slice
// only after the worker WaitGroup settles, so the fields are plain
// (non-atomic) and cost one time.Now call per bucket transition —
// noise next to a job's moment pass.
//
// The time buckets tile a worker's wall time exactly, because one
// timestamp chains through every transition:
//
//	WallNS = IdleNS + BusyNS + StallNS
//
//	IdleNS  — blocked receiving on the dispatch channel (no work ready),
//	          including the final blocked receive that observes close.
//	BusyNS  — picking a job up (gauges, lineage, journal start record)
//	          and running it (compute, retries, degradation).
//	StallNS — blocked sending a finished Result (reorder-buffer
//	          backpressure: the consumer is behind).
//
// LockWaitNS is a sub-bucket of BusyNS, not a fourth tile: it counts
// time blocked on the shared Cache (mutex acquisition plus waiting for
// another worker's in-flight compute of the same entry), attributed via
// the context the engine threads into each job.
type WorkerStats struct {
	Worker      int   // worker index, 0-based
	Jobs        int64 // jobs this worker completed
	BusyNS      int64 // time picking up and running jobs
	IdleNS      int64 // time blocked waiting for work
	StallNS     int64 // time blocked handing results to the reorder buffer
	LockWaitNS  int64 // of BusyNS: time blocked on shared-cache locks
	CacheHits   int64 // cache hits observed by this worker
	CacheMisses int64 // cache misses (this worker computed the entry)
	WallNS      int64 // total time the worker goroutine was alive
}

// Accounted returns the fraction of wall time explained by the three
// top-level buckets: 1.0 by construction for an engine run, so anything
// less means the attribution itself is broken.
func (ws WorkerStats) Accounted() float64 {
	if ws.WallNS <= 0 {
		return 0
	}
	return float64(ws.BusyNS+ws.IdleNS+ws.StallNS) / float64(ws.WallNS)
}

// Utilization returns BusyNS/WallNS — the fraction of the worker's life
// spent doing jobs rather than waiting.
func (ws WorkerStats) Utilization() float64 {
	if ws.WallNS <= 0 {
		return 0
	}
	return float64(ws.BusyNS) / float64(ws.WallNS)
}

// PoolStats is the whole-run accounting RunFunc assembles after the
// workers exit: one WorkerStats per worker plus reorder-buffer pressure
// figures. RunFunc returns it, and the Reporter summary folds it in.
type PoolStats struct {
	Jobs          int
	Workers       int
	WallNS        int64         // RunFunc wall time (dispatch to last result)
	Worker        []WorkerStats // one entry per worker, indexed by Worker
	ReorderPeak   int           // peak reorder-buffer occupancy (buffered results)
	ReorderStalls int64         // results that arrived ahead of the emit cursor
}

// Efficiency returns the parallel efficiency of the run: total busy
// time divided by workers × wall time. 1.0 means every worker computed
// for the whole run; the shortfall is idle + stall + overhead —
// exactly what a flat scaling curve is made of.
func (rs PoolStats) Efficiency() float64 {
	if rs.WallNS <= 0 || rs.Workers <= 0 {
		return 0
	}
	var busy int64
	for _, ws := range rs.Worker {
		busy += ws.BusyNS
	}
	return float64(busy) / (float64(rs.Workers) * float64(rs.WallNS))
}

// workerGaugeNames are the per-worker gauge leaves publish maintains
// under the batch.worker{N}. prefix. One list, so publishing and
// resetting stale workers cannot drift apart.
var workerGaugeNames = [...]string{
	"jobs", "busy_seconds", "idle_seconds", "stall_seconds",
	"lock_wait_seconds", "utilization",
}

// publish mirrors the run's accounting into reg as gauges so the
// Prometheus exposition shows the last run's shape: one efficiency
// gauge plus a small fixed set per worker (worker counts are bounded by
// GOMAXPROCS, so the name-space stays small). Gauges are Set, not
// Add — each run overwrites the last, and workers beyond this run's
// count left over from a wider previous run are zeroed (batch.workers
// records the high-water mark within this registry). Nil-safe.
func (rs PoolStats) publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	prev := int(reg.Gauge("batch.workers").Value())
	reg.Gauge("batch.workers").Set(float64(rs.Workers))
	reg.Gauge("batch.parallel_efficiency").Set(rs.Efficiency())
	reg.Gauge("batch.reorder_peak").Set(float64(rs.ReorderPeak))
	for _, ws := range rs.Worker {
		p := fmt.Sprintf("batch.worker%d.", ws.Worker)
		reg.Gauge(p + "jobs").Set(float64(ws.Jobs))
		reg.Gauge(p + "busy_seconds").Set(float64(ws.BusyNS) / 1e9)
		reg.Gauge(p + "idle_seconds").Set(float64(ws.IdleNS) / 1e9)
		reg.Gauge(p + "stall_seconds").Set(float64(ws.StallNS) / 1e9)
		reg.Gauge(p + "lock_wait_seconds").Set(float64(ws.LockWaitNS) / 1e9)
		reg.Gauge(p + "utilization").Set(ws.Utilization())
	}
	for w := rs.Workers; w < prev; w++ {
		p := fmt.Sprintf("batch.worker%d.", w)
		for _, leaf := range workerGaugeNames {
			reg.Gauge(p + leaf).Set(0)
		}
	}
}

// workerStatsKey carries a *WorkerStats through the context the engine
// hands each job, so lower layers (the shared Cache) can attribute
// their lock wait to the worker that paid it.
type workerStatsKey struct{}

func withWorkerStats(ctx context.Context, ws *WorkerStats) context.Context {
	return context.WithValue(ctx, workerStatsKey{}, ws)
}

// workerStatsFrom returns the WorkerStats carried by ctx, or nil when
// the caller is not a batch worker (direct Cache use, tests).
func workerStatsFrom(ctx context.Context) *WorkerStats {
	ws, _ := ctx.Value(workerStatsKey{}).(*WorkerStats)
	return ws
}

// lockTimer measures one blocking region (mutex acquire, once-wait) and
// charges it to the worker, if any. Usage:
//
//	t0 := lockStart(ws)
//	mu.Lock()
//	lockEnd(ws, t0)
func lockStart(ws *WorkerStats) time.Time {
	if ws == nil {
		return time.Time{}
	}
	return time.Now()
}

func lockEnd(ws *WorkerStats, t0 time.Time) {
	if ws == nil {
		return
	}
	ws.LockWaitNS += time.Since(t0).Nanoseconds()
}

package core

import (
	"testing"

	"elmore/internal/faultinject"
	"elmore/internal/health"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

// analyzeAllocBudget is the allocation count for a full Analyze: 2 here
// (Analysis, Bounds slice) + 4 in moments.Compute + 3 in
// moments.ComputePRH. The kernels are plain loops over caller-provided
// sweep buffers; a closure capturing those buffers, or per-array
// allocation in ComputePRH, shows up here as a budget overrun.
const analyzeAllocBudget = 9

func TestAnalyzeAllocBudget(t *testing.T) {
	if health.Enabled() {
		t.Skip("health monitor installed; the instrumented path allocates by design")
	}
	tree := topo.Random(42, topo.RandomOptions{N: 300})
	if _, err := Analyze(tree); err != nil { // warm compiled-plan + counter caches
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := Analyze(tree); err != nil {
			t.Fatal(err)
		}
	})
	if got > analyzeAllocBudget {
		t.Errorf("Analyze = %.1f allocs/op, budget %d", got, analyzeAllocBudget)
	}
}

// TestDisabledObservabilityZeroAlloc asserts that the hooks Analyze
// leaves permanently in its hot path — fault-injection points, health
// gates, telemetry counters — are allocation-free when no injector,
// monitor, or registry is installed. The time bound is checked by
// BenchmarkDisabledObservabilityPath (a few ns/op: three atomic loads
// and nil checks).
func TestDisabledObservabilityZeroAlloc(t *testing.T) {
	if health.Enabled() || faultinject.Enabled() {
		t.Skip("injector or monitor installed; disabled-path contract does not apply")
	}
	got := testing.AllocsPerRun(1000, func() {
		if err := faultinject.Fire("core.analyze.bench"); err != nil {
			t.Fatal(err)
		}
		if health.Enabled() {
			t.Fatal("health flipped on mid-test")
		}
		telemetry.C("core.analyses").Inc()
		telemetry.C("core.nodes_analyzed").Add(300)
	})
	if got != 0 {
		t.Errorf("disabled observability path = %.1f allocs/op, want 0", got)
	}
}

// BenchmarkDisabledObservabilityPath measures the fixed overhead the
// observability hooks add to every Analyze when everything is turned
// off. The contract is a handful of nanoseconds and zero allocations
// per composite op (one Fire, one Enabled, two counter updates).
func BenchmarkDisabledObservabilityPath(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := faultinject.Fire("core.analyze.bench"); err != nil {
			b.Fatal(err)
		}
		if health.Enabled() {
			b.Fatal("health must be disabled for this benchmark")
		}
		telemetry.C("core.analyses").Inc()
		telemetry.C("core.nodes_analyzed").Add(300)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	tree := topo.Random(42, topo.RandomOptions{N: 1000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(tree); err != nil {
			b.Fatal(err)
		}
	}
}

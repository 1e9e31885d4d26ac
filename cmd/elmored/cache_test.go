package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"elmore/internal/netlist"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

// elmoreAt POSTs one spec and returns the Elmore delay reported at its
// only sink.
func elmoreAt(t *testing.T, url string, spec map[string]any) float64 {
	t.Helper()
	b, _ := json.Marshal(spec)
	lines, sum, status := analyze(t, url, string(b)+"\n", nil)
	if status != http.StatusOK || sum.Failed != 0 || len(lines) != 1 {
		t.Fatalf("status=%d summary=%+v lines=%v", status, sum, lines)
	}
	sinks, _ := lines[0]["sinks"].([]any)
	if len(sinks) != 1 {
		t.Fatalf("want one sink, got %v", lines[0])
	}
	return sinks[0].(map[string]any)["elmore"].(float64)
}

// TestAnalyzeRereadsEditedDeckFile: a path job is keyed by the file's
// contents, not its name, so editing the deck between two requests
// yields the new values instead of the tree parsed the first time.
func TestAnalyzeRereadsEditedDeckFile(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	path := filepath.Join(t.TempDir(), "net.sp")
	spec := map[string]any{"id": "f", "net": path, "sinks": []string{"z"}}

	if err := os.WriteFile(path, []byte(testDeck), 0o644); err != nil {
		t.Fatal(err)
	}
	before := elmoreAt(t, ts.URL, spec)
	// 100*(20f+30f) + 150*30f = 9.5ps.
	if want := 9.5e-12; before < want*(1-1e-12) || before > want*(1+1e-12) {
		t.Fatalf("elmore before edit = %g, want %g", before, want)
	}

	edited := strings.Replace(testDeck, "R2 a z 150", "R2 a z 450", 1)
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	after := elmoreAt(t, ts.URL, spec)
	// 100*(20f+30f) + 450*30f = 18.5ps.
	if want := 18.5e-12; after < want*(1-1e-12) || after > want*(1+1e-12) {
		t.Fatalf("elmore after edit = %g, want %g (stale tree served)", after, want)
	}
}

// liveHeap reads the runtime's live-heap estimate after a full GC.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestDistinctNetsHoldFlatHeap streams 300 distinct inline 2000-node
// nets through one server under a 16 MiB cache budget: the live heap
// must stay within the budget plus a fixed slack however many nets
// arrive, and the cache must report bytes within its budget.
func TestDistinctNetsHoldFlatHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 300 large nets")
	}
	reg := telemetry.NewRegistry()
	prevReg := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prevReg)
	const (
		budgetMB = 16
		budget   = budgetMB << 20
		slack    = 8 << 20
		nets     = 300
		perReq   = 10
	)
	cfg := testConfig()
	cfg.CacheMB = budgetMB
	cfg.MaxBody = 32 << 20
	s, ts := startTestServer(t, cfg)

	base := liveHeap()
	peak := uint64(0)
	for r := 0; r < nets/perReq; r++ {
		var body strings.Builder
		for k := 0; k < perReq; k++ {
			i := r*perReq + k
			deck := netlist.Format(topo.Random(int64(i+1), topo.RandomOptions{N: 2000}), fmt.Sprintf("net %d", i))
			b, _ := json.Marshal(map[string]any{"id": fmt.Sprint(i), "netlist": deck, "sinks": []string{"n1"}})
			body.Write(b)
			body.WriteByte('\n')
		}
		if _, sum, status := analyze(t, ts.URL, body.String(), nil); status != http.StatusOK || sum.Failed != 0 || sum.Emitted != perReq {
			t.Fatalf("request %d: status=%d summary=%+v", r, status, sum)
		}
		if r%5 == 4 {
			if h := liveHeap(); h > peak {
				peak = h
			}
		}
	}
	grown := int64(peak) - int64(base)
	t.Logf("live heap %d -> peak %d KiB (+%d KiB) over %d nets; cache %d entries, %d KiB, %d evictions",
		base>>10, peak>>10, grown>>10, nets, s.eng.Cache.Len(), s.eng.Cache.Bytes()>>10,
		reg.Counter("batch.cache_evictions").Value())
	if grown > budget+slack {
		t.Errorf("live heap grew %d KiB over %d distinct nets, want <= budget %d KiB + slack %d KiB",
			grown>>10, nets, budget>>10, slack>>10)
	}
	if b := s.eng.Cache.Bytes(); b > budget {
		t.Errorf("cache holds %d bytes, budget %d", b, budget)
	}
	if g := reg.Gauge("batch.cache_bytes").Value(); g != float64(s.eng.Cache.Bytes()) {
		t.Errorf("batch.cache_bytes gauge = %v, cache reports %d", g, s.eng.Cache.Bytes())
	}
	if reg.Counter("batch.cache_evictions").Value() == 0 {
		t.Error("no evictions after streaming far more than the budget")
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz["cache_entries"] != float64(s.eng.Cache.Len()) || hz["cache_bytes"] != float64(s.eng.Cache.Bytes()) {
		t.Errorf("healthz cache_entries=%v cache_bytes=%v, cache has %d entries, %d bytes",
			hz["cache_entries"], hz["cache_bytes"], s.eng.Cache.Len(), s.eng.Cache.Bytes())
	}
}

// TestCacheOffStillServes: -cache-mb 0 runs every job uncached and
// /healthz reports an empty cache.
func TestCacheOffStillServes(t *testing.T) {
	cfg := testConfig()
	cfg.CacheMB = 0
	s, ts := startTestServer(t, cfg)
	if _, sum, status := analyze(t, ts.URL, specBody(3), nil); status != http.StatusOK || sum.Failed != 0 || sum.Emitted != 3 {
		t.Fatalf("status=%d summary=%+v", status, sum)
	}
	if s.eng.Cache != nil {
		t.Fatal("-cache-mb 0 built a cache")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz["cache_entries"] != 0.0 || hz["cache_bytes"] != 0.0 {
		t.Errorf("healthz cache_entries=%v cache_bytes=%v, want 0 and 0", hz["cache_entries"], hz["cache_bytes"])
	}
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"elmore/internal/cliutil"
	"elmore/internal/faultinject"
	"elmore/internal/telemetry"
)

const testDeck = `Vin in 0 1
R1 in a 100
C1 a 0 20f
R2 a z 150
C2 z 0 30f
`

// specLine renders one inline-netlist job spec.
func specLine(id string) string {
	b, _ := json.Marshal(map[string]any{"id": id, "netlist": testDeck, "sinks": []string{"z"}})
	return string(b)
}

func specBody(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(specLine(fmt.Sprintf("j%d", i)))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func testConfig() config {
	return config{
		Engine:      cliutil.EngineFlags{Workers: 2, Degrade: true},
		MaxDeadline: time.Minute, MaxJobs: 1000, MaxBody: 1 << 20, CacheMB: 8,
	}
}

func startTestServer(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(context.Background(), cfg)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.cancelRun)
	return s, ts
}

// analyze POSTs body and returns the result lines and trailing summary.
func analyze(t *testing.T, url, body string, hdr map[string]string) (lines []map[string]any, sum serveSummary, status int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/analyze", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if m["record"] == "serve_summary" {
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
			continue
		}
		lines = append(lines, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines, sum, resp.StatusCode
}

func TestAnalyzeStreamsResults(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	lines, sum, status := analyze(t, ts.URL, specBody(5), nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(lines) != 5 || sum.Total != 5 || sum.Emitted != 5 || sum.Failed != 0 || sum.Interrupted {
		t.Fatalf("lines=%d summary=%+v", len(lines), sum)
	}
	for i, m := range lines {
		if m["error"] != nil {
			t.Errorf("job %d error: %v", i, m["error"])
		}
		if m["id"] != fmt.Sprintf("j%d", i) {
			t.Errorf("out-of-order result %d: %v", i, m["id"])
		}
	}
}

func TestBoundOneShot(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	resp, err := http.Post(ts.URL+"/v1/bound", "application/json", strings.NewReader(specLine("one")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var rec struct {
		ID    string `json:"id"`
		Error string `json:"error"`
		Sinks []struct {
			Node   string  `json:"node"`
			Elmore float64 `json:"elmore"`
			Lower  float64 `json:"lower"`
		} `json:"sinks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Error != "" || len(rec.Sinks) != 1 || rec.Sinks[0].Node != "z" {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Sinks[0].Elmore <= 0 || rec.Sinks[0].Lower > rec.Sinks[0].Elmore {
		t.Fatalf("bound ordering violated: %+v", rec.Sinks[0])
	}
}

func TestBoundRejectsMalformedSpec(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	resp, err := http.Post(ts.URL+"/v1/bound", "application/json", strings.NewReader(`{"nope":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field spec status = %d, want 400", resp.StatusCode)
	}
}

func TestRateShed429WithRetryAfter(t *testing.T) {
	cfg := testConfig()
	cfg.Rate, cfg.Burst = 1, 2
	reg := telemetry.NewRegistry()
	prevReg := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prevReg)
	_, ts := startTestServer(t, cfg)
	// The tenant's burst admits two; the third inside the same second
	// must shed with 429 + Retry-After.
	statuses := make([]int, 3)
	for i := range statuses {
		resp, err := http.Post(ts.URL+"/v1/bound?tenant=acme", "application/json", strings.NewReader(specLine("r")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		statuses[i] = resp.StatusCode
		if i == 2 {
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("statuses = %v, want the third to be 429", statuses)
			}
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("shed response missing Retry-After")
			}
		}
	}
	if statuses[0] != http.StatusOK || statuses[1] != http.StatusOK {
		t.Fatalf("burst requests shed: %v", statuses)
	}
	// The shed shows in the /metrics exposition.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	shedRow := false
	for _, line := range strings.Split(string(metrics), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "serve_requests_shed" {
			n, err := strconv.ParseFloat(f[1], 64)
			shedRow = err == nil && n >= 1
		}
	}
	if !shedRow {
		t.Fatalf("/metrics has no serve_requests_shed >= 1 after a shed:\n%s", metrics)
	}
	// Another tenant is unaffected.
	resp, err = http.Post(ts.URL+"/v1/bound?tenant=globex", "application/json", strings.NewReader(specLine("r")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh tenant status = %d", resp.StatusCode)
	}
}

func TestCapacityShed503WithRetryAfter(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInFlight = 1
	_, ts := startTestServer(t, cfg)
	// Hold the only slot with a request slowed inside the handler.
	prev := faultinject.SetDefault(faultinject.New(1, faultinject.Rule{
		Point: "serve.decode", Kind: faultinject.KindDelay, Every: 1, Delay: 300 * time.Millisecond, Limit: 1,
	}))
	defer faultinject.SetDefault(prev)
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/bound?tenant=slow", "application/json", strings.NewReader(specLine("s")))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // let the slow request take the slot
	resp, err := http.Post(ts.URL+"/v1/bound?tenant=fast", "application/json", strings.NewReader(specLine("f")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("capacity shed missing Retry-After")
	}
	if got := <-done; got != http.StatusOK {
		t.Fatalf("slot-holding request status = %d", got)
	}
}

func TestDeadlineRejectsMalformed(t *testing.T) {
	_, ts := startTestServer(t, testConfig())
	resp, err := http.Post(ts.URL+"/v1/bound?deadline=banana", "application/json", strings.NewReader(specLine("d")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad deadline status = %d, want 400", resp.StatusCode)
	}
}

func TestDeadlineCutsSlowBatch(t *testing.T) {
	prev := faultinject.SetDefault(faultinject.New(1, faultinject.Rule{
		Point: "batch.dispatch", Kind: faultinject.KindDelay, Every: 1, Delay: 50 * time.Millisecond,
	}))
	defer faultinject.SetDefault(prev)
	_, ts := startTestServer(t, testConfig())
	start := time.Now()
	_, sum, status := analyze(t, ts.URL, specBody(40), map[string]string{"X-Elmore-Deadline": "100ms"})
	if status != http.StatusOK {
		t.Fatalf("status = %d (stream responses are 200 with an interrupted summary)", status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not cut the batch: took %v", elapsed)
	}
	// 40 jobs x 50ms on 2 workers ≈ 1s of work against a 100ms deadline:
	// the run must end early, either interrupted or with deadline errors.
	if !sum.Interrupted && sum.Failed == 0 {
		t.Fatalf("slow batch beat a 100ms deadline: %+v", sum)
	}
}

// TestHotTreeLRUSkipsReparse: repeated inline decks are served from the
// batch cache's source index — one parse, one entry — across requests.
func TestHotTreeLRUSkipsReparse(t *testing.T) {
	reg := telemetry.NewRegistry()
	prevReg := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prevReg)
	s, ts := startTestServer(t, testConfig())
	for i := 0; i < 3; i++ {
		if _, sum, _ := analyze(t, ts.URL, specBody(2), nil); sum.Failed != 0 {
			t.Fatalf("round %d failed: %+v", i, sum)
		}
	}
	if got := s.eng.Cache.Len(); got != 1 {
		t.Fatalf("cache entries = %d, want 1 (all jobs share one deck)", got)
	}
	if hits := reg.Counter("serve.hot_tree_hits").Value(); hits < 4 {
		t.Fatalf("hot_tree_hits = %d, want >= 4 (6 loads, 1 parse)", hits)
	}
	if misses := reg.Counter("serve.hot_tree_misses").Value(); misses != 1 {
		t.Fatalf("hot_tree_misses = %d, want 1", misses)
	}
}

func TestDrainingShedsAndHealthzFlips(t *testing.T) {
	s, ts := startTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy healthz = %d", resp.StatusCode)
	}
	if err := s.drain(time.Second); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/bound", "application/json", strings.NewReader(specLine("late")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("post-drain request = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

func TestMaxJobsRejected(t *testing.T) {
	cfg := testConfig()
	cfg.MaxJobs = 3
	_, ts := startTestServer(t, cfg)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader(specBody(5)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch status = %d, want 413", resp.StatusCode)
	}
}

func TestInjectedAcceptFault(t *testing.T) {
	prev := faultinject.SetDefault(faultinject.New(1, faultinject.Rule{
		Point: "serve.accept", Kind: faultinject.KindError, Every: 1, Limit: 1,
	}))
	defer faultinject.SetDefault(prev)
	s, ts := startTestServer(t, testConfig())
	resp, err := http.Post(ts.URL+"/v1/bound", "application/json", strings.NewReader(specLine("x")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected accept fault status = %d, want 500", resp.StatusCode)
	}
	// The fault path must not leak gate or limiter slots.
	if s.gate.InFlight() != 0 || s.limiter.InFlight() != 0 {
		t.Fatalf("leaked slots: gate=%d limiter=%d", s.gate.InFlight(), s.limiter.InFlight())
	}
}

package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStallShowsInP99 is the coordinated-omission check: one request
// stalls the only connection for 300 ms. Timed from the actual send,
// only that one request is slow; timed from its due time, as runStep
// does, every request scheduled during the stall is late too, so the
// stall shows in p99.
func TestStallShowsInP99(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 20 {
			time.Sleep(stall)
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	var mu sync.Mutex
	var service []float64 // closed-loop view: from actual send
	do := func(int) error {
		t0 := time.Now()
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		mu.Lock()
		service = append(service, float64(time.Since(t0))/1e6)
		mu.Unlock()
		return nil
	}
	st := runStep(1, 200, time.Second, 0, do)
	if st.ok != st.sent || st.sent != 200 {
		t.Fatalf("%d of %d requests ok", st.ok, st.sent)
	}
	p99 := quantile(st.lat, 0.99)
	if p99 < float64(stall)/2e6 {
		t.Errorf("p99 from due time is %.1f ms; a %v stall must show", p99, stall)
	}
	if sp99 := quantile(service, 0.99); sp99 > float64(stall)/4e6 {
		t.Errorf("service-time p99 %.1f ms: only one request stalled, so timed from the send it should stay small", sp99)
	}
	if st.meets(100, 1) {
		t.Error("a step with a 300 ms stall met a 100 ms p99 objective")
	}
	t.Logf("p50 %.2f ms, p99 %.2f ms from due time; service p99 %.2f ms; achieved %.1f/s",
		quantile(st.lat, 0.5), p99, quantile(service, 0.99), st.achieved())
}

// TestSlowServerIsInvalid: a server that cannot keep up achieves well
// under 95% of the offered rate, leaves a backlog and fails the
// objective.
func TestSlowServerIsInvalid(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
	}))
	defer srv.Close()
	do := func(int) error {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			return err
		}
		resp.Body.Close()
		return nil
	}
	st := runStep(1, 200, 500*time.Millisecond, 0, do)
	if st.achieved() >= 0.95*st.offered || st.meets(1000, 1) || st.backlog == 0 {
		t.Errorf("slow server: achieved %.1f of %.1f, backlog %d, meets %v",
			st.achieved(), st.offered, st.backlog, st.meets(1000, 1))
	}
}

// TestFastServerMeets: a fast server keeps the schedule.
func TestFastServerMeets(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	do := func(int) error {
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			return err
		}
		resp.Body.Close()
		return nil
	}
	st := runStep(2, 100, 500*time.Millisecond, 0, do)
	if !st.meets(100, 2) {
		t.Errorf("fast server missed: achieved %.1f of %.1f, p99 %.2f ms, backlog %d",
			st.achieved(), st.offered, quantile(st.lat, 0.99), st.backlog)
	}
}

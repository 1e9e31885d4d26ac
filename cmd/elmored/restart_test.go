package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"elmore/internal/faultinject"
)

// TestKillAndRestartExactlyOnce is the acceptance test for graceful
// drain + journal-backed resume: a drain forced mid-batch (the SIGTERM
// path in main) loses zero accepted jobs and duplicates none — the
// union of the interrupted stream and the resumed stream is exactly
// the submitted job set.
func TestKillAndRestartExactlyOnce(t *testing.T) {
	const njobs = 40
	journalDir := t.TempDir()
	cfg := testConfig()
	cfg.JournalDir = journalDir
	body := specBody(njobs)

	// Slow every attempt so the drain lands mid-batch.
	prev := faultinject.SetDefault(faultinject.New(1, faultinject.Rule{
		Point: "batch.dispatch", Kind: faultinject.KindDelay, Every: 1, Delay: 10 * time.Millisecond,
	}))
	defer faultinject.SetDefault(prev)

	// --- incarnation A: interrupt mid-batch ---
	sA := newServer(context.Background(), cfg)
	tsA := httptest.NewServer(sA.handler())
	drained := make(chan error, 1)
	idsA, sumA := streamBatch(t, tsA.URL, "b1", body, 3, func() {
		// The SIGTERM sequence from main, mid-stream: a short window,
		// then force-cancel. The handler journals what it cancelled.
		go func() { drained <- sA.drain(50 * time.Millisecond) }()
	})
	<-drained
	tsA.Close()
	if !sumA.Interrupted {
		t.Fatalf("run A summary not interrupted: %+v (drain landed too late?)", sumA)
	}
	if len(idsA) >= njobs {
		t.Fatalf("run A emitted all %d jobs; nothing left to prove resume with", njobs)
	}
	if sumA.Emitted != len(idsA) {
		t.Fatalf("summary emitted=%d but stream carried %d results", sumA.Emitted, len(idsA))
	}

	// --- incarnation B: fresh server, same journal dir, same batch ---
	faultinject.SetDefault(prev) // full speed for the resume
	sB := newServer(context.Background(), cfg)
	tsB := httptest.NewServer(sB.handler())
	defer tsB.Close()
	defer sB.cancelRun()

	idsB, sumB := streamBatch(t, tsB.URL, "b1", body, 0, nil)
	if sumB.Interrupted {
		t.Fatalf("resume run interrupted: %+v", sumB)
	}
	if sumB.Skipped != len(idsA) {
		t.Errorf("resume skipped %d jobs, but run A delivered %d", sumB.Skipped, len(idsA))
	}
	assertExactlyOnce(t, njobs, idsA, idsB)
}

// streamBatch POSTs body as the journaled batch id and returns the job
// IDs its stream delivered and the trailing summary, failing on any
// job error. kick, when non-nil, runs once after the first kickAfter
// results, while the batch is still streaming.
func streamBatch(t *testing.T, url, id, body string, kickAfter int, kick func()) (ids []string, sum serveSummary) {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze?batch="+id, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if m["record"] == "serve_summary" {
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
			break
		}
		if m["error"] != nil {
			t.Fatalf("batch %s: job %v failed: %v", id, m["id"], m["error"])
		}
		ids = append(ids, m["id"].(string))
		if kick != nil && len(ids) == kickAfter {
			kick()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("batch %s: stream cut after %d results: %v", id, len(ids), err)
	}
	return ids, sum
}

// assertExactlyOnce fails unless the streams together deliver each of
// the jobs j0..j(n-1) exactly once.
func assertExactlyOnce(t *testing.T, n int, streams ...[]string) {
	t.Helper()
	seen := map[string]int{}
	for _, ids := range streams {
		for _, id := range ids {
			seen[id]++
		}
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("j%d", i)
		if seen[id] != 1 {
			t.Errorf("job %s delivered %d times across the restart, want exactly once", id, seen[id])
		}
		delete(seen, id)
	}
	for id := range seen {
		t.Errorf("stream delivered unknown job %s", id)
	}
}

// TestConcurrentSameBatchConflicts: one batch ID journals one run at a
// time — a second concurrent POST for the same ID is refused instead
// of corrupting the journal.
func TestConcurrentSameBatchConflicts(t *testing.T) {
	cfg := testConfig()
	cfg.JournalDir = t.TempDir()
	prev := faultinject.SetDefault(faultinject.New(1, faultinject.Rule{
		Point: "batch.dispatch", Kind: faultinject.KindDelay, Every: 1, Delay: 20 * time.Millisecond,
	}))
	defer faultinject.SetDefault(prev)
	_, ts := startTestServer(t, cfg)
	done := make(chan int, 1)
	go func() {
		_, _, status := analyze(t, ts.URL, specBody(20), map[string]string{"X-Batch-ID": "dup"})
		done <- status
	}()
	time.Sleep(30 * time.Millisecond) // first run is inside the batch
	resp, err := http.Post(ts.URL+"/v1/analyze?batch=dup", "application/x-ndjson", strings.NewReader(specBody(2)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent same-batch status = %d, want 409", resp.StatusCode)
	}
	if status := <-done; status != http.StatusOK {
		t.Fatalf("original batch status = %d", status)
	}
}

// TestBatchIDValidation: IDs become journal filenames, so traversal
// shapes are refused.
func TestBatchIDValidation(t *testing.T) {
	cfg := testConfig()
	cfg.JournalDir = t.TempDir()
	_, ts := startTestServer(t, cfg)
	for _, id := range []string{"../evil", "a/b", "x y", strings.Repeat("z", 65)} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader(specBody(1)))
		req.Header.Set("X-Batch-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("batch ID %q status = %d, want 409", id, resp.StatusCode)
		}
	}
	// Journaling without -journal-dir is refused, not silently dropped.
	_, ts2 := startTestServer(t, testConfig())
	resp, err := http.Post(ts2.URL+"/v1/analyze?batch=ok", "application/x-ndjson", strings.NewReader(specBody(1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("journal-less batch status = %d, want 409", resp.StatusCode)
	}
}

package cliutil

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"elmore/internal/faultinject"
	"elmore/internal/telemetry"
)

// syncBuffer lets the test poll emitted output while RunBatch is still
// writing from its emitter goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := strings.TrimSpace(b.buf.String())
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// TestRunBatchSIGTERMDumpsAndResumes is the satellite contract for the
// one-shot CLIs: a supervisor's SIGTERM mid-batch behaves like SIGQUIT
// plus a clean exit — the flight recorder dumps, the journal stays
// consistent — and a second -resume run completes the batch with every
// job emitted exactly once across the two outputs.
func TestRunBatchSIGTERMDumpsAndResumes(t *testing.T) {
	dir := t.TempDir()
	const njobs = 40
	var specs strings.Builder
	for i := 0; i < njobs; i++ {
		fmt.Fprintf(&specs, `{"id":"j%d","netlist":"Vin in 0 1\nR1 in z %d\nC1 z 0 20f\n"}`+"\n", i, 100+i)
	}
	jobsPath := filepath.Join(dir, "jobs.ndjson")
	if err := os.WriteFile(jobsPath, []byte(specs.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	dumpPath := filepath.Join(dir, "flight.ndjson")
	// Default MinGap stays: the sigterm dump goes through FlightForceDump,
	// which must land even right after a throttled fault dump.
	fr := telemetry.NewFlightRecorder(2, 64)
	fr.SetDumpPath(dumpPath)
	prevFR := telemetry.SetFlightRecorder(fr)
	defer telemetry.SetFlightRecorder(prevFR)

	// Slow every attempt down so the TERM lands mid-batch.
	prevInj := faultinject.SetDefault(faultinject.New(1, faultinject.Rule{
		Point: "batch.dispatch", Kind: faultinject.KindDelay, Every: 1, Delay: 5 * time.Millisecond,
	}))
	defer faultinject.SetDefault(prevInj)

	flags := func() *BatchFlags {
		return &BatchFlags{
			Jobs:        jobsPath,
			EngineFlags: EngineFlags{Workers: 2},
			Resume:      filepath.Join(dir, "journal.ndjson"),
		}
	}

	var out1 syncBuffer
	errc := make(chan error, 1)
	go func() {
		errc <- flags().RunBatch(context.Background(), nil, 0, &out1, os.Stderr)
	}()
	// Wait for results to start flowing, then TERM ourselves: RunBatch's
	// handler intercepts it, so the test process survives.
	deadline := time.Now().Add(5 * time.Second)
	for len(out1.Lines()) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("no results emitted before the kill window")
		}
		time.Sleep(time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("interrupted run reported success; want the context error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunBatch did not return after SIGTERM")
	}
	got1 := out1.Lines()
	if len(got1) >= njobs {
		t.Fatalf("first run emitted all %d jobs; the kill landed too late to test resume", len(got1))
	}
	dump, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatalf("no flight dump after SIGTERM: %v", err)
	}
	if !strings.Contains(string(dump), `"sigterm"`) {
		t.Errorf("flight dump lacks a sigterm-reason block:\n%s", dump)
	}

	// Resume: the second run must finish cleanly and fill in exactly the
	// missing jobs.
	var out2 syncBuffer
	if err := flags().RunBatch(context.Background(), nil, 0, &out2, os.Stderr); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	seen := map[string]int{}
	for _, line := range append(got1, out2.Lines()...) {
		var rec struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad result line %q: %v", line, err)
		}
		if rec.Error != "" {
			t.Errorf("job %s failed: %s", rec.ID, rec.Error)
		}
		seen[rec.ID]++
	}
	for i := 0; i < njobs; i++ {
		id := fmt.Sprintf("j%d", i)
		if seen[id] != 1 {
			t.Errorf("job %s emitted %d times across the kill-and-restart cycle, want exactly once", id, seen[id])
		}
	}
}

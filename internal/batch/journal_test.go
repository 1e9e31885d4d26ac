package batch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"elmore/internal/rctree"
)

func openJournal(t *testing.T, path string) (*Journal, *Replay) {
	t.Helper()
	jr, rp, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	return jr, rp
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	jr, rp := openJournal(t, path)
	if len(rp.Done) != 0 || len(rp.Started) != 0 {
		t.Fatalf("fresh journal replayed state: %+v", rp)
	}
	w := jr.Writer()
	if err := w.Start(0, "a", ""); err != nil {
		t.Fatal(err)
	}
	if err := w.Start(1, "b", ""); err != nil {
		t.Fatal(err)
	}
	if err := w.Done(0, "a"); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	jr2, rp2 := openJournal(t, path)
	if !rp2.Done[JobKey(0, "a")] || len(rp2.Done) != 1 {
		t.Errorf("Done = %v, want exactly {0:a}", rp2.Done)
	}
	if !rp2.Started[JobKey(1, "b")] || len(rp2.Started) != 1 {
		t.Errorf("Started = %v, want exactly {1:b} (done keys must leave Started)", rp2.Started)
	}
	// The reopened journal appends, never truncates.
	w2 := jr2.Writer()
	if err := w2.Done(1, "b"); err != nil {
		t.Fatal(err)
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jr2.Close(); err != nil {
		t.Fatal(err)
	}
	jr3, rp3 := openJournal(t, path)
	defer jr3.Close()
	if len(rp3.Done) != 2 || len(rp3.Started) != 0 {
		t.Errorf("after second run: Done=%v Started=%v", rp3.Done, rp3.Started)
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	cases := []struct {
		name string
		tail string
	}{
		{"mid-append", `{"op":"start","key":"1:`},
		{"undecodable-last-line", "{garbage\n"},
		{"unknown-op-last-line", `{"op":"wip","key":"1:b"}` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.ndjson")
			content := `{"op":"start","key":"0:a"}` + "\n" +
				`{"op":"done","key":"0:a"}` + "\n" + tc.tail
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			jr, rp := openJournal(t, path)
			defer jr.Close()
			if !rp.Done[JobKey(0, "a")] || len(rp.Done) != 1 || len(rp.Started) != 0 {
				t.Errorf("replay = %+v, want the intact prefix only", rp)
			}
		})
	}
}

func TestJournalInteriorCorruptionRejected(t *testing.T) {
	cases := []struct {
		name    string
		content string
		want    string
	}{
		{
			"undecodable interior line",
			`{"op":"start","key":"0:a"}` + "\n{garbage\n" + `{"op":"done","key":"0:a"}` + "\n",
			"line 2",
		},
		{
			"unknown interior op",
			`{"op":"frobnicate","key":"0:a"}` + "\n" + `{"op":"done","key":"0:a"}` + "\n",
			"unknown op",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.ndjson")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := OpenJournal(path)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("OpenJournal = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

func TestJournalSyncBatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	jr, _ := openJournal(t, path)
	jr.SyncEvery = 2
	w := jr.Writer()
	if err := w.Done(0, "a"); err != nil {
		t.Fatal(err)
	}
	// One done record is below the batch size: still buffered.
	if b, err := os.ReadFile(path); err != nil || len(b) != 0 {
		t.Errorf("journal flushed before the batch filled: %q err=%v", b, err)
	}
	if err := w.Done(1, "b"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(b), "\n"); got != 2 {
		t.Errorf("after SyncEvery dones the file holds %d lines, want 2", got)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var jr *Journal
	if w := jr.Writer(); w != nil {
		t.Errorf("nil journal handed out writer %v", w)
	}
	if err := jr.Sync(); err != nil {
		t.Errorf("nil Sync: %v", err)
	}
	if err := jr.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// decodeRecords parses an NDJSON result stream.
func decodeRecords(t *testing.T, b []byte) []ResultRecord {
	t.Helper()
	var recs []ResultRecord
	for ln, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if line == "" {
			continue
		}
		var rec ResultRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("output line %d: %v", ln+1, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestRunSpecsJournalResumeExactlyOnce is the kill-and-restart
// integration test: run one, interrupted mid-batch (its loader cancels
// the batch context once a dozen jobs have started), emits a prefix and
// journals it; run two resumes from the journal, skips the done jobs,
// re-queues the in-flight ones, and finishes the rest; across the
// concatenated outputs every job appears exactly once. A third run
// finds nothing left to do.
func TestRunSpecsJournalResumeExactlyOnce(t *testing.T) {
	netPath, lib := writeSpecFiles(t)
	const n = 40
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf(`{"id":"n%d","net":%q,"sinks":["z"]}`, i, netPath))
	}
	stream := strings.Join(lines, "\n")
	journalPath := filepath.Join(t.TempDir(), "resume.journal")

	// Run 1: the batch context is cancelled after a dozen jobs start —
	// the graceful-shutdown path a SIGTERM takes in the CLIs.
	jr1, rp1 := openJournal(t, journalPath)
	if len(rp1.Done) != 0 || len(rp1.Started) != 0 {
		t.Fatalf("fresh journal replayed state: %+v", rp1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var loads atomic.Int32
	counting := func(net, netlist string) (*rctree.Tree, error) {
		if loads.Add(1) == 12 {
			cancel()
		}
		return DefaultTreeLoader(net, netlist)
	}
	var out1 bytes.Buffer
	st1, err := runStream(ctx, &Engine{Workers: 4}, stream, &out1,
		SpecRunOptions{Lib: lib, DefaultSlew: 25e-12, Loader: counting, Journal: jr1, Replay: rp1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if err := jr1.Close(); err != nil {
		t.Fatal(err)
	}
	if st1.Emitted >= n {
		t.Fatalf("interrupted run emitted all %d jobs; cancellation had no effect", n)
	}
	recs1 := decodeRecords(t, out1.Bytes())
	if len(recs1) != st1.Emitted {
		t.Fatalf("run 1 wrote %d lines but reported Emitted=%d", len(recs1), st1.Emitted)
	}

	// Run 2: resume. Done jobs are skipped, in-flight ones re-queued.
	jr2, rp2 := openJournal(t, journalPath)
	if len(rp2.Done) != st1.Emitted {
		t.Errorf("journal replayed %d done jobs, want %d (one per emitted line)", len(rp2.Done), st1.Emitted)
	}
	var out2 bytes.Buffer
	st2, err := runStream(context.Background(), &Engine{Workers: 4}, stream, &out2,
		SpecRunOptions{Lib: lib, DefaultSlew: 25e-12, Journal: jr2, Replay: rp2})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := jr2.Close(); err != nil {
		t.Fatal(err)
	}
	if st2.Skipped != st1.Emitted {
		t.Errorf("resume skipped %d jobs, want %d", st2.Skipped, st1.Emitted)
	}
	if st2.Requeued != len(rp2.Started) {
		t.Errorf("resume re-queued %d jobs, want %d in-flight journal entries", st2.Requeued, len(rp2.Started))
	}
	if st2.Emitted != n-st1.Emitted {
		t.Errorf("resume emitted %d jobs, want the remaining %d", st2.Emitted, n-st1.Emitted)
	}

	// Exactly-once: the concatenated outputs cover every job once.
	seen := make(map[int]int)
	for _, rec := range append(recs1, decodeRecords(t, out2.Bytes())...) {
		seen[rec.Index]++
		if want := fmt.Sprintf("n%d", rec.Index); rec.ID != want {
			t.Errorf("record index %d has id %q, want %q (index remap broken)", rec.Index, rec.ID, want)
		}
		if rec.Error != "" {
			t.Errorf("job %d failed: %s", rec.Index, rec.Error)
		}
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Errorf("job %d emitted %d times, want exactly once", i, seen[i])
		}
	}

	// Run 3: everything is done; nothing runs, nothing is emitted.
	jr3, rp3 := openJournal(t, journalPath)
	var out3 bytes.Buffer
	st3, err := runStream(context.Background(), &Engine{Workers: 4}, stream, &out3,
		SpecRunOptions{Lib: lib, DefaultSlew: 25e-12, Journal: jr3, Replay: rp3})
	if err != nil {
		t.Fatalf("third run: %v", err)
	}
	if err := jr3.Close(); err != nil {
		t.Fatal(err)
	}
	if st3.Skipped != n || st3.Emitted != 0 || out3.Len() != 0 {
		t.Errorf("third run: skipped=%d emitted=%d out=%q, want all %d skipped",
			st3.Skipped, st3.Emitted, out3.String(), n)
	}
}

// TestJournalStartKeysAreSpecIndices: a resume submits only the jobs
// its replay leaves, so a job's position in the engine's job slice is
// not its position in the spec stream. Each dispatched job must get
// exactly one start record keyed by its spec index — the key the next
// replay looks it up by — never by the submitted index.
func TestJournalStartKeysAreSpecIndices(t *testing.T) {
	netPath, lib := writeSpecFiles(t)
	const n, done = 10, 4
	var specs []JobSpec
	for i := 0; i < n; i++ {
		specs = append(specs, JobSpec{ID: fmt.Sprintf("n%d", i), Net: netPath, Sinks: []string{"z"}})
	}
	path := filepath.Join(t.TempDir(), "resume.journal")
	jr, _ := openJournal(t, path)
	w := jr.Writer()
	for i := 0; i < done; i++ {
		if err := w.Start(i, specs[i].ID, ""); err != nil {
			t.Fatal(err)
		}
		if err := w.Done(i, specs[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	jr, rp := openJournal(t, path)
	var out bytes.Buffer
	st, err := RunSpecs(context.Background(), &Engine{Workers: 3}, specs, &out,
		SpecRunOptions{Lib: lib, DefaultSlew: 25e-12, Journal: jr, Replay: rp})
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Skipped != done || st.Emitted != n-done {
		t.Fatalf("skipped=%d emitted=%d, want %d/%d", st.Skipped, st.Emitted, done, n-done)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	starts := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(string(after[len(before):])), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.Op == "start" {
			starts[rec.Key]++
		}
	}
	if len(starts) != n-done {
		t.Errorf("resume wrote start records %v, want one for each of the %d dispatched jobs", starts, n-done)
	}
	for i := done; i < n; i++ {
		if key := JobKey(i, specs[i].ID); starts[key] != 1 {
			t.Errorf("start records for %s = %d, want exactly 1 (all starts: %v)", key, starts[key], starts)
		}
	}
	for _, rec := range decodeRecords(t, out.Bytes()) {
		if want := fmt.Sprintf("n%d", rec.Index); rec.ID != want {
			t.Errorf("record index %d has id %q, want %q", rec.Index, rec.ID, want)
		}
	}
}

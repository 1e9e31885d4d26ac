package batch

// Tests for the per-worker buffered journal writers that replaced
// per-record locking on the shared journal: buffering and flush
// thresholds, nil-safety, fsync accounting, and replay correctness
// when buffered writers interleave with each other.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJournalWriterBuffersUntilBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	jr, _ := openJournal(t, path)
	defer jr.Close()
	jr.SyncEvery = 3
	w := jr.Writer()
	if err := w.Start(0, "a", ""); err != nil {
		t.Fatal(err)
	}
	if err := w.Start(1, "b", ""); err != nil {
		t.Fatal(err)
	}
	// Two records are below the batch size: nothing reaches the file,
	// and nothing even reaches the journal's own buffer.
	if b, _ := os.ReadFile(path); len(b) != 0 {
		t.Errorf("writer leaked records to the file before the batch filled: %q", b)
	}
	if err := w.Done(0, "a"); err != nil {
		t.Fatal(err)
	}
	// Third record fills the batch: the writer flushes through the
	// journal, and the one buffered done triggers nothing on its own
	// (pending 1 < SyncEvery 3) — but the bufio layer was handed the
	// bytes, so a Sync makes them durable.
	if err := jr.Sync(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(b), "\n"); got != 3 {
		t.Errorf("after a full batch + sync the file holds %d lines, want 3", got)
	}
}

func TestJournalWriterFlushCountsDonesTowardFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	jr, _ := openJournal(t, path)
	defer jr.Close()
	jr.SyncEvery = 2
	w := jr.Writer()
	// Two dones buffered below the flush threshold... then an explicit
	// Flush: the journal's pending counter must absorb both at once and
	// fsync immediately — a writer must not launder done records past
	// the durability batching.
	if err := w.Done(0, "a"); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); len(b) != 0 {
		t.Errorf("done records reached the file before flush: %q", b)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Done(1, "b"); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// pending hit SyncEvery on the second flush: the records are on
	// disk without any explicit Sync call.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(b), "\n"); got != 2 {
		t.Errorf("after pending reached SyncEvery the file holds %d lines, want 2", got)
	}
}

func TestJournalWriterNilSafe(t *testing.T) {
	var jr *Journal
	w := jr.Writer()
	if w != nil {
		t.Fatalf("nil journal produced a non-nil writer")
	}
	if err := w.Start(0, "a", ""); err != nil {
		t.Errorf("nil writer Start: %v", err)
	}
	if err := w.Done(0, "a"); err != nil {
		t.Errorf("nil writer Done: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Errorf("nil writer Flush: %v", err)
	}
}

func TestJournalWriterEmptyFlushIsNoOp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	jr, _ := openJournal(t, path)
	defer jr.Close()
	w := jr.Writer()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); len(b) != 0 {
		t.Errorf("empty flushes wrote %q", b)
	}
}

// TestJournalWriterReplayInterleaved is the correctness case behind
// per-worker buffering: worker writers flush their start records in
// arbitrary order relative to each other and to the emitter's done
// records — a done may even reach the file before its start (the
// worker's buffer flushed late). Replay must still classify every job
// correctly: done keys in Done only, started-but-not-done keys
// re-queued.
func TestJournalWriterReplayInterleaved(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	jr, _ := openJournal(t, path)
	jr.SyncEvery = 100 // no auto-flush; the test controls the order
	w1, w2 := jr.Writer(), jr.Writer()
	emit := jr.Writer()

	// Worker 1 starts jobs 0,1; worker 2 starts jobs 2,3. The emitter
	// records dones for 0 and 2 and flushes FIRST; worker 2 flushes
	// next; worker 1's buffer is lost with the crash (never flushed).
	for _, s := range []struct {
		w   *JournalWriter
		idx int
		id  string
	}{{w1, 0, "a"}, {w1, 1, "b"}, {w2, 2, "c"}, {w2, 3, "d"}} {
		if err := s.w.Start(s.idx, s.id, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := emit.Done(0, "a"); err != nil {
		t.Fatal(err)
	}
	if err := emit.Done(2, "c"); err != nil {
		t.Fatal(err)
	}
	if err := emit.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	// w1 never flushes: its starts vanish, as a crash would make them.
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	jr2, rp := openJournal(t, path)
	defer jr2.Close()
	// Job 0: done (its start is lost — harmless, done wins). Job 2:
	// done recorded before its start line; replay must not resurrect it
	// into Started. Job 3: started, not done — re-queued. Job 1: both
	// records lost — replays as never started, also re-queued by the
	// spec scan.
	if !rp.Done[JobKey(0, "a")] || !rp.Done[JobKey(2, "c")] || len(rp.Done) != 2 {
		t.Errorf("Done = %v, want exactly {0:a, 2:c}", rp.Done)
	}
	if !rp.Started[JobKey(3, "d")] || len(rp.Started) != 1 {
		t.Errorf("Started = %v, want exactly {3:d}", rp.Started)
	}
}

package batch

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"elmore/internal/faultinject"
	"elmore/internal/telemetry"
)

// Journal is the crash-safe checkpoint log of a batch run: an
// append-only NDJSON file with one record per state transition,
//
//	{"op":"start","key":"17:n17"}
//	{"op":"done","key":"17:n17"}
//
// where the key is the job's position in the spec stream plus its ID
// (JobKey). "start" is appended the moment a worker picks the job up;
// "done" only after the job's result line has reached the output
// writer, so on replay a done job is provably emitted exactly once and
// a started-but-not-done job was in flight when the process died and
// must be re-queued.
//
// Durability is batched: the file is fsynced every SyncEvery done
// records (and on Close), bounding both the data-loss window after a
// crash — at most SyncEvery duplicated result lines, never a lost one —
// and the per-job fsync cost. A torn final line (the crash happened
// mid-append) is tolerated on replay; torn interior lines are not, as
// they indicate corruption rather than an interrupted append.
//
// Records reach the file through JournalWriters, one per goroutine; a
// Journal is safe for concurrent use by the writers of one run.
type Journal struct {
	// SyncEvery is the number of done records between fsyncs; <= 0
	// means 32.
	SyncEvery int

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	pending int // done records since the last fsync
}

// journalRecord is one NDJSON journal line. Start records carry the
// job's trace ID (PR 9) so a crashed run's in-flight jobs keep their
// lineage across resume; done records don't repeat it. Pre-PR-9
// journals without the field replay unchanged.
type journalRecord struct {
	Op    string `json:"op"` // "start" or "done"
	Key   string `json:"key"`
	Trace string `json:"trace,omitempty"`
}

// JobKey names one job for the journal: its position in the spec
// stream plus its caller-chosen ID. The index keeps distinct jobs with
// duplicate (or empty) IDs distinct; the ID catches a resume against a
// reordered spec file.
func JobKey(index int, id string) string {
	return fmt.Sprintf("%d:%s", index, id)
}

// Replay is the state recovered from an existing journal.
type Replay struct {
	// Done holds the keys of jobs whose results were fully emitted.
	Done map[string]bool
	// Started holds the keys of jobs that were picked up but never
	// finished — in flight when the previous run died. (Keys in Done
	// are removed from Started.)
	Started map[string]bool
}

// OpenJournal opens (creating if needed) the journal at path, replays
// any existing records, and returns the journal positioned for
// appending plus the recovered state.
func OpenJournal(path string) (*Journal, *Replay, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("batch: journal: %w", err)
	}
	rp, err := readReplay(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Position for appending after the replay scan.
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("batch: journal: %w", err)
	}
	return &Journal{f: f, w: bufio.NewWriter(f)}, rp, nil
}

// readReplay scans the journal records from r. A torn final line is
// tolerated (the previous process died mid-append); any other
// malformed line fails the replay.
func readReplay(r io.Reader) (*Replay, error) {
	rp := &Replay{Done: make(map[string]bool), Started: make(map[string]bool)}
	br := bufio.NewReader(r)
	lineNo := 0
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			// A non-empty remainder without a trailing newline is the
			// torn tail of an interrupted append: ignore it.
			return rp, nil
		}
		if err != nil {
			return nil, fmt.Errorf("batch: journal: %w", err)
		}
		lineNo++
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var rec journalRecord
		if derr := json.Unmarshal([]byte(line), &rec); derr != nil {
			// Is this the final line? Peek: EOF right after means the
			// newline made it but the payload did not decode — still
			// treat an undecodable *last* line as torn.
			if _, perr := br.Peek(1); perr == io.EOF {
				return rp, nil
			}
			return nil, fmt.Errorf("batch: journal line %d: %w", lineNo, derr)
		}
		switch rec.Op {
		case "start":
			if !rp.Done[rec.Key] {
				rp.Started[rec.Key] = true
			}
		case "done":
			rp.Done[rec.Key] = true
			delete(rp.Started, rec.Key)
		default:
			if _, perr := br.Peek(1); perr == io.EOF {
				return rp, nil
			}
			return nil, fmt.Errorf("batch: journal line %d: unknown op %q", lineNo, rec.Op)
		}
	}
}

// Writer returns a private buffered appender onto the journal, the only
// way records are appended. Each batch worker holds its own Writer:
// records accumulate in a local buffer with no locking at all, and the
// shared file lock is taken once per flush — a batch boundary —
// instead of once per record, so journal durability stops serializing
// the workers and the result emitter. A nil journal returns a nil
// writer, whose methods are all no-ops, mirroring the nil-*Journal
// contract.
//
// Durability window: start records are advisory (a lost start replays
// exactly like a never-started job — re-queued), so buffering them
// costs nothing on crash. Done records buffer at most SyncEvery deep
// before the writer flushes, and only the single emit goroutine writes
// dones, so the crash window stays the documented "at most SyncEvery
// duplicated result lines, never a lost one".
func (j *Journal) Writer() *JournalWriter {
	if j == nil {
		return nil
	}
	return &JournalWriter{j: j}
}

// JournalWriter is one goroutine's buffered view of a Journal. Not
// safe for concurrent use — that is the point: each worker owns one.
type JournalWriter struct {
	j       *Journal
	buf     []byte
	records int // buffered records of any kind (flush trigger)
	dones   int // buffered done records (fsync accounting at flush)
}

// append buffers one record, flushing when a batch has accumulated.
func (w *JournalWriter) append(op string, index int, id, trace string, done bool) error {
	if w == nil {
		return nil
	}
	if err := faultinject.Fire("batch.journal"); err != nil {
		return fmt.Errorf("batch: journal: %w", err)
	}
	b, err := json.Marshal(journalRecord{Op: op, Key: JobKey(index, id), Trace: trace})
	if err != nil {
		return fmt.Errorf("batch: journal: %w", err)
	}
	w.buf = append(w.buf, b...)
	w.buf = append(w.buf, '\n')
	w.records++
	if done {
		w.dones++
	}
	if w.records >= w.j.syncEvery() {
		return w.Flush()
	}
	return nil
}

// Start buffers a record that the job was picked up by a worker;
// trace is the job's lineage ID ("" when observability is off).
func (w *JournalWriter) Start(index int, id, trace string) error {
	return w.append("start", index, id, trace, false)
}

// Done buffers a record that the job's result was emitted. The caller
// must already have written the result line: the journal's done-after-
// write ordering only deepens under buffering (the done record reaches
// the file later, never earlier).
func (w *JournalWriter) Done(index int, id string) error {
	return w.append("done", index, id, "", true)
}

// Flush hands the buffered records to the journal under one lock
// acquisition, counting the buffered dones toward the journal's fsync
// batching. Call it at batch boundaries (worker exit, end of run);
// full buffers flush themselves.
func (w *JournalWriter) Flush() error {
	if w == nil || len(w.buf) == 0 {
		return nil
	}
	w.j.mu.Lock()
	defer w.j.mu.Unlock()
	if _, err := w.j.w.Write(w.buf); err != nil {
		return fmt.Errorf("batch: journal: %w", err)
	}
	w.buf = w.buf[:0]
	w.records = 0
	w.j.pending += w.dones
	w.dones = 0
	if w.j.pending >= w.j.syncEvery() {
		return w.j.syncLocked()
	}
	return nil
}

// syncEvery returns the effective fsync batch size.
func (j *Journal) syncEvery() int {
	if j.SyncEvery > 0 {
		return j.SyncEvery
	}
	return 32
}

// syncLocked flushes the buffer and fsyncs; callers hold j.mu.
func (j *Journal) syncLocked() error {
	j.pending = 0
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("batch: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("batch: journal: %w", err)
	}
	telemetry.C("batch.journal_syncs").Inc()
	return nil
}

// Sync flushes the buffer and fsyncs the journal file.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	serr := j.syncLocked()
	cerr := j.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

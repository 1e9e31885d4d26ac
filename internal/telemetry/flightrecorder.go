package telemetry

// Always-on flight recorder: a lock-free ring of recent
// span/event records, sharded per worker, that costs nothing to leave
// enabled (zero-allocation append, fixed memory) and dumps its
// contents to NDJSON when something goes wrong — SIGQUIT, a panic
// isolated by the batch engine, a breaker opening, a slow-job
// threshold breach, or an injected fault. It is the postmortem
// counterpart to -trace: always recording, bounded, and only ever
// written out on demand.
//
// Concurrency model: every slot field is an atomic word and each
// record is framed by seqlock-style begin/commit markers. A writer
// claims a slot with one atomic increment on its shard, stores the
// begin marker, the data words, then the commit marker. A dumper reads
// in the opposite order — commit, data, begin — so any append that
// began after the record it read was committed shows up as a mismatch;
// the record was torn by that concurrent overwrite and it is skipped
// (and counted) rather than misreported. This keeps append lock-free
// and dump race-free without any mutual exclusion between them.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FlightKind classifies a flight-recorder event.
type FlightKind uint8

// Flight event kinds. The zero value marks an empty slot and is never
// recorded.
const (
	FlightSpan        FlightKind = iota + 1 // a completed span (name in Label)
	FlightJobDone                           // a batch job finished (ok or failed)
	FlightRetry                             // a retry was scheduled (attempt in Code)
	FlightDegraded                          // job fell back to the Elmore-bound interval
	FlightPanic                             // a panic was isolated
	FlightFault                             // an injected fault fired (point in Label)
	FlightBreakerOpen                       // a circuit breaker opened
	FlightSlowJob                           // a job breached the slow threshold
)

var flightKindNames = [...]string{
	FlightSpan:        "span",
	FlightJobDone:     "job_done",
	FlightRetry:       "retry",
	FlightDegraded:    "degraded",
	FlightPanic:       "panic",
	FlightFault:       "fault",
	FlightBreakerOpen: "breaker_open",
	FlightSlowJob:     "slow_job",
}

// String returns the NDJSON spelling of the kind.
func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) && flightKindNames[k] != "" {
		return flightKindNames[k]
	}
	return fmt.Sprintf("kind_%d", uint8(k))
}

// flightLabelWords is the label capacity in 8-byte words; labels are
// truncated to 32 bytes so a slot stays fixed-size.
const flightLabelWords = 4

// FlightEvent is one logical record. Label is truncated to 32 bytes on
// append; Code carries a small kind-specific payload (retry attempt,
// error class, signal number).
type FlightEvent struct {
	Kind  FlightKind
	When  int64 // unix nanoseconds; stamped on append when zero
	Trace TraceContext
	Index int64 // batch job index, or -1
	DurNS int64
	Code  int64
	Label string
}

// flightSlot is one fixed-size record. All fields are atomics so a
// concurrent dump never constitutes a data race with appends; the
// begin/commit markers detect tearing instead.
type flightSlot struct {
	begin  atomic.Uint64 // claim marker: shard sequence at write start
	commit atomic.Uint64 // same sequence once the record is complete
	when   atomic.Int64
	meta   atomic.Uint64 // kind | labelLen<<8 | index-sign<<16 | attempt<<32
	index  atomic.Uint64
	dur    atomic.Int64
	code   atomic.Int64
	hi, lo atomic.Uint64
	label  [flightLabelWords]atomic.Uint64
}

// flightShard is one worker's ring. The sequence counter is padded
// onto its own cache line so workers never false-share.
type flightShard struct {
	seq  atomic.Uint64
	_    [7]uint64
	mask uint64
	slot []flightSlot
}

func (s *flightShard) append(ev *FlightEvent) {
	seq := s.seq.Add(1)
	sl := &s.slot[seq&s.mask]
	sl.begin.Store(seq)
	sl.when.Store(ev.When)
	n := len(ev.Label)
	if n > flightLabelWords*8 {
		n = flightLabelWords * 8
	}
	var signBit uint64
	idx := ev.Index
	if idx < 0 {
		signBit = 1
		idx = -idx
	}
	sl.meta.Store(uint64(ev.Kind) | uint64(n)<<8 | signBit<<16 |
		uint64(uint32(ev.Trace.Attempt))<<32)
	sl.index.Store(uint64(idx))
	sl.dur.Store(ev.DurNS)
	sl.code.Store(ev.Code)
	sl.hi.Store(ev.Trace.Hi)
	sl.lo.Store(ev.Trace.Lo)
	for w := 0; w < flightLabelWords; w++ {
		var word uint64
		for b := 0; b < 8; b++ {
			if i := w*8 + b; i < n {
				word |= uint64(ev.Label[i]) << uint(8*b)
			}
		}
		sl.label[w].Store(word)
	}
	sl.commit.Store(seq)
}

// load snapshots the slot; ok is false when the slot is empty or was
// torn by a concurrent append. The markers are read in the reverse of
// the order append stores them: the data words are consistent only if
// no append began after the commit this read started from.
func (sl *flightSlot) load() (ev FlightEvent, seq uint64, ok bool) {
	seq = sl.commit.Load()
	if seq == 0 {
		return ev, 0, false // empty, or its first append is in flight
	}
	ev.When = sl.when.Load()
	meta := sl.meta.Load()
	ev.Kind = FlightKind(meta & 0xff)
	n := int(meta >> 8 & 0xff)
	ev.Trace.Attempt = int32(uint32(meta >> 32))
	ev.Index = int64(sl.index.Load())
	if meta>>16&1 == 1 {
		ev.Index = -ev.Index
	}
	ev.DurNS = sl.dur.Load()
	ev.Code = sl.code.Load()
	ev.Trace.Hi = sl.hi.Load()
	ev.Trace.Lo = sl.lo.Load()
	var buf [flightLabelWords * 8]byte
	for w := 0; w < flightLabelWords; w++ {
		word := sl.label[w].Load()
		for b := 0; b < 8; b++ {
			buf[w*8+b] = byte(word >> uint(8*b))
		}
	}
	if n > len(buf) {
		n = len(buf)
	}
	ev.Label = string(buf[:n])
	if sl.begin.Load() != seq {
		return ev, 0, false // torn by a concurrent overwrite
	}
	return ev, seq, true
}

// FlightRecorder holds the sharded rings plus dump state. Create with
// NewFlightRecorder; a nil recorder is valid and records nothing.
type FlightRecorder struct {
	shards []flightShard
	smask  uint64
	rr     atomic.Uint64 // shard rotor for hint-less appends

	dumpMu   sync.Mutex
	dumpPath string       // "" dumps to Stderr
	Stderr   io.Writer    // fallback dump target; defaults to os.Stderr
	lastDump atomic.Int64 // unix ns of last dump, for throttling
	MinGap   time.Duration
	now      func() time.Time // test hook
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewFlightRecorder returns a recorder with shards rings (rounded up
// to a power of two, min 1) of slotsPerShard slots each (rounded up to
// a power of two, default 512). Memory is fixed at construction:
// roughly shards * slots * 96 bytes.
func NewFlightRecorder(shards, slotsPerShard int) *FlightRecorder {
	if shards < 1 {
		shards = 1
	}
	if slotsPerShard <= 0 {
		slotsPerShard = 512
	}
	shards = ceilPow2(shards)
	slotsPerShard = ceilPow2(slotsPerShard)
	fr := &FlightRecorder{
		shards: make([]flightShard, shards),
		smask:  uint64(shards - 1),
		MinGap: time.Second,
		now:    time.Now,
	}
	for i := range fr.shards {
		fr.shards[i].slot = make([]flightSlot, slotsPerShard)
		fr.shards[i].mask = uint64(slotsPerShard - 1)
	}
	return fr
}

// SetDumpPath directs TriggerDump output to an NDJSON file (opened in
// append mode per dump, so successive dumps stack in one file).
func (fr *FlightRecorder) SetDumpPath(path string) {
	if fr == nil {
		return
	}
	fr.dumpMu.Lock()
	fr.dumpPath = path
	fr.dumpMu.Unlock()
}

// Record appends ev to the shard chosen by a round-robin rotor.
// Zero-allocation, lock-free, safe from any goroutine; no-op on nil.
func (fr *FlightRecorder) Record(ev FlightEvent) {
	if fr == nil {
		return
	}
	fr.record(fr.rr.Add(1), ev)
}

// RecordShard appends ev to the shard for the given worker index, so
// each batch worker writes its own ring and appends never contend.
func (fr *FlightRecorder) RecordShard(worker int, ev FlightEvent) {
	if fr == nil {
		return
	}
	fr.record(uint64(worker), ev)
}

func (fr *FlightRecorder) record(shard uint64, ev FlightEvent) {
	if ev.When == 0 {
		ev.When = fr.now().UnixNano()
	}
	fr.shards[shard&fr.smask].append(&ev)
}

// flightDumpHeader and flightRecord are the dump NDJSON schema. Like
// span records, extend by appending fields only.
type flightDumpHeader struct {
	Record string `json:"record"` // "flight_dump"
	Reason string `json:"reason"`
	TimeNS int64  `json:"t_ns"`
	Events int    `json:"events"`
	Torn   int    `json:"torn"`
}

type flightRecord struct {
	Record  string `json:"record"` // "flight"
	Kind    string `json:"kind"`
	TimeNS  int64  `json:"t_ns"`
	TraceID string `json:"trace_id,omitempty"`
	Attempt int32  `json:"attempt,omitempty"`
	Index   int64  `json:"index"`
	DurNS   int64  `json:"dur_ns,omitempty"`
	Code    int64  `json:"code,omitempty"`
	Label   string `json:"label,omitempty"`
}

// Snapshot reads every committed record, oldest first. Torn records
// (overwritten mid-read) are skipped and counted. Safe to call while
// appends continue.
func (fr *FlightRecorder) Snapshot() (events []FlightEvent, torn int) {
	if fr == nil {
		return nil, 0
	}
	type seqEvent struct {
		ev  FlightEvent
		seq uint64
		sh  int
	}
	var all []seqEvent
	for si := range fr.shards {
		sh := &fr.shards[si]
		for i := range sh.slot {
			ev, seq, ok := sh.slot[i].load()
			if !ok {
				if sh.slot[i].begin.Load() != 0 {
					torn++
				}
				continue
			}
			all = append(all, seqEvent{ev, seq, si})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ev.When != all[j].ev.When {
			return all[i].ev.When < all[j].ev.When
		}
		if all[i].sh != all[j].sh {
			return all[i].sh < all[j].sh
		}
		return all[i].seq < all[j].seq
	})
	events = make([]FlightEvent, len(all))
	for i, se := range all {
		events[i] = se.ev
	}
	return events, torn
}

// DumpTo writes a dump block — one flight_dump header line followed by
// one flight line per record — to w. Unthrottled; TriggerDump is the
// throttled entry point.
func (fr *FlightRecorder) DumpTo(w io.Writer, reason string) error {
	if fr == nil {
		return nil
	}
	events, torn := fr.Snapshot()
	enc := json.NewEncoder(w)
	if err := enc.Encode(flightDumpHeader{
		Record: "flight_dump", Reason: reason,
		TimeNS: fr.now().UnixNano(), Events: len(events), Torn: torn,
	}); err != nil {
		return err
	}
	for _, ev := range events {
		rec := flightRecord{
			Record: "flight", Kind: ev.Kind.String(), TimeNS: ev.When,
			Index: ev.Index, DurNS: ev.DurNS, Code: ev.Code, Label: ev.Label,
		}
		if ev.Trace.Valid() {
			rec.TraceID = ev.Trace.TraceID()
			rec.Attempt = ev.Trace.Attempt
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// TriggerDump writes one dump block to the configured path (append
// mode) or Stderr, throttled to one dump per MinGap so a panic storm
// or breaker flapping can't flood the disk. Returns false when
// throttled or on write error; safe from any goroutine and on nil.
func (fr *FlightRecorder) TriggerDump(reason string) bool {
	return fr.dump(reason, false)
}

// ForceDump is TriggerDump without the MinGap throttle, for last-gasp
// dumps on the process-exit path (SIGTERM, fatal errors): a fault dump
// moments earlier must not suppress the final state of the ring.
func (fr *FlightRecorder) ForceDump(reason string) bool {
	return fr.dump(reason, true)
}

func (fr *FlightRecorder) dump(reason string, force bool) bool {
	if fr == nil {
		return false
	}
	now := fr.now().UnixNano()
	last := fr.lastDump.Load()
	if !force {
		if last != 0 && now-last < int64(fr.MinGap) {
			return false
		}
		if !fr.lastDump.CompareAndSwap(last, now) {
			return false // another dump racing; it wins
		}
	} else {
		fr.lastDump.Store(now)
	}
	fr.dumpMu.Lock()
	defer fr.dumpMu.Unlock()
	C("flight.dumps").Inc()
	if fr.dumpPath == "" {
		w := fr.Stderr
		if w == nil {
			w = os.Stderr
		}
		return fr.DumpTo(w, reason) == nil
	}
	f, err := os.OpenFile(fr.dumpPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return false
	}
	defer f.Close()
	return fr.DumpTo(f, reason) == nil
}

// defaultFlight is the process-wide recorder. The disabled path — no
// recorder installed — is one atomic load and a nil check.
var defaultFlight atomic.Pointer[FlightRecorder]

// SetFlightRecorder installs fr as the process default (nil disables)
// and returns the previous recorder.
func SetFlightRecorder(fr *FlightRecorder) (prev *FlightRecorder) {
	return defaultFlight.Swap(fr)
}

// Flight returns the process-default recorder, or nil when disabled.
// All FlightRecorder methods are nil-safe, so call sites never guard.
func Flight() *FlightRecorder { return defaultFlight.Load() }

// FlightEnabled reports whether a recorder is installed; hot paths use
// it to skip event construction entirely when disabled.
func FlightEnabled() bool { return defaultFlight.Load() != nil }

// FlightRecord appends ev to the default recorder (rotor-sharded).
func FlightRecord(ev FlightEvent) { defaultFlight.Load().Record(ev) }

// FlightRecordShard appends ev to the default recorder on the given
// worker's shard.
func FlightRecordShard(worker int, ev FlightEvent) {
	defaultFlight.Load().RecordShard(worker, ev)
}

// FlightDump triggers a throttled dump of the default recorder.
func FlightDump(reason string) bool { return defaultFlight.Load().TriggerDump(reason) }

// FlightForceDump dumps the default recorder unthrottled — the
// process-exit variant of FlightDump.
func FlightForceDump(reason string) bool { return defaultFlight.Load().ForceDump(reason) }

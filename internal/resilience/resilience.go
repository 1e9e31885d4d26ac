// Package resilience carries the failure-handling machinery the batch
// engine wires around every job: error classification, retry with
// exponential backoff and jitter, and a per-circuit circuit breaker.
// Its design premise comes straight from the paper: because the Elmore
// delay T_D = m1 is a *guaranteed* upper bound on the 50% delay
// (Theorem 1) and max(mu-sigma, 0) a guaranteed lower bound
// (Corollary 1), an expensive transient simulation that keeps failing
// never has to take the answer down with it — the engine can always
// degrade to the closed-form bound interval, which costs one O(N)
// moment pass. This package decides *when* to give up on the
// expensive path; the batch engine performs the degradation.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"elmore/internal/health"
	"elmore/internal/telemetry"
)

// Class is the retry-relevant classification of a job failure.
type Class int

const (
	// Permanent marks data and spec errors (bad netlist, unknown node,
	// invalid rise time): re-running cannot help.
	Permanent Class = iota
	// Transient marks failures worth retrying: injected faults,
	// per-attempt deadline expiry, and anything exposing a
	// Transient() bool method that returns true.
	Transient
	// Panicked marks a recovered worker panic (wrapped in
	// *PanicError). Retried only when the policy opts in.
	Panicked
	// Canceled marks parent-context cancellation: the batch is being
	// torn down, so the job is neither retried nor degraded — a
	// crash-safe journal re-queues it on the next run.
	Canceled
)

// String returns the lowercase class name.
func (c Class) String() string {
	switch c {
	case Permanent:
		return "permanent"
	case Transient:
		return "transient"
	case Panicked:
		return "panicked"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// transienter is the marker interface errors use to self-declare as
// retry-worthy (e.g. faultinject.Error).
type transienter interface{ Transient() bool }

// Classify maps an error to its Class. nil classifies as Permanent —
// callers should not classify successes.
func Classify(err error) Class {
	switch {
	case err == nil:
		return Permanent
	case errors.Is(err, context.Canceled):
		return Canceled
	case errors.Is(err, context.DeadlineExceeded):
		return Transient
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return Panicked
	}
	var tr transienter
	if errors.As(err, &tr) && tr.Transient() {
		return Transient
	}
	return Permanent
}

// Degradable reports whether a final failure should be degraded to the
// moment-based Elmore bounds rather than surfaced as an error: any
// transient or panicked failure, plus a circuit-breaker rejection.
// Permanent data errors and parent cancellation are not degradable —
// the former because the moments would fail identically, the latter
// because the batch is being torn down and the job will be re-queued.
func Degradable(err error) bool {
	switch Classify(err) {
	case Transient, Panicked:
		return true
	}
	var oe *OpenError
	return errors.As(err, &oe)
}

// PanicError wraps a recovered panic value so it survives as an error
// through the retry loop with its own class.
type PanicError struct {
	Value any // the recovered value
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panicked: %v", e.Value)
}

// Policy configures retry behavior. The zero value retries nothing;
// DefaultPolicy gives sensible production defaults.
type Policy struct {
	// MaxAttempts is the total number of attempts, including the
	// first; values <= 1 disable retry.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it (Multiplier overrides), capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; <= 0 means 100 * BaseDelay.
	MaxDelay time.Duration
	// Multiplier is the per-attempt backoff growth factor; <= 1 means 2.
	Multiplier float64
	// Jitter is the fraction of each backoff randomized away in
	// [0, Jitter); negative disables, 0 means the default 0.5. Jitter
	// decorrelates retry storms when many workers fail together.
	Jitter float64
	// RetryPanics also retries Panicked failures. Off by default: a
	// panic is more likely a logic bug than a transient condition, but
	// chaos runs inject panics deliberately and want them survived.
	RetryPanics bool

	// seq drives deterministic-per-process jitter without any global
	// rand dependency.
	seq atomic.Uint64
}

// DefaultPolicy returns the production defaults: 3 attempts, 50ms base
// backoff doubling to a 5s cap, half-width jitter.
func DefaultPolicy() *Policy {
	return &Policy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 5 * time.Second}
}

// Attempts returns the attempt budget (at least 1; 1 on a nil policy).
func (p *Policy) Attempts() int {
	if p == nil || p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// splitmix64 is the SplitMix64 finalizer, used for cheap jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Backoff returns the delay before attempt+1, for attempt >= 1:
// BaseDelay * Multiplier^(attempt-1), capped at MaxDelay, minus a
// jitter fraction drawn deterministically from an internal sequence.
func (p *Policy) Backoff(attempt int) time.Duration {
	if p == nil || p.BaseDelay <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 100 * p.BaseDelay
	}
	d := float64(p.BaseDelay) * math.Pow(mult, float64(attempt-1))
	if d > float64(maxd) {
		d = float64(maxd)
	}
	jit := p.Jitter
	switch {
	case jit < 0:
		jit = 0
	case jit == 0:
		jit = 0.5
	case jit > 1:
		jit = 1
	}
	if jit > 0 {
		u := float64(splitmix64(p.seq.Add(1))>>11) / (1 << 53)
		d *= 1 - jit*u
	}
	return time.Duration(d)
}

// Sleep blocks for Backoff(attempt) or until ctx is done, returning
// ctx's error in the latter case so retry loops stop promptly on
// cancellation.
func (p *Policy) Sleep(ctx context.Context, attempt int) error {
	d := p.Backoff(attempt)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// OpenError is the rejection a tripped circuit breaker returns: the
// circuit identified by Fingerprint has failed Failures consecutive
// times and further attempts are being skipped until the cooldown.
type OpenError struct {
	Fingerprint uint64
	Failures    int
}

// Error implements error.
func (e *OpenError) Error() string {
	return fmt.Sprintf("resilience: circuit open for tree %016x after %d consecutive failures", e.Fingerprint, e.Failures)
}

// breakerState is one circuit's state machine position.
type breakerState int

const (
	stateClosed breakerState = iota
	stateOpen
	stateHalfOpen
)

// breakerEntry tracks one fingerprint.
type breakerEntry struct {
	state       breakerState
	consecutive int       // consecutive failures while closed/half-open
	openedAt    time.Time // when the circuit last opened
	probing     bool      // a half-open probe is in flight
}

// Breaker is a per-fingerprint circuit breaker: a tree whose jobs keep
// failing is cut off after Threshold consecutive failures, so a batch
// with thousands of repeats of one poisoned net stops burning retries
// on it (the engine degrades such jobs to the closed-form bounds
// instead). After Cooldown one probe attempt is allowed through; its
// success closes the circuit, its failure re-opens it.
//
// A Breaker is safe for concurrent use and may be shared by engines.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens a circuit;
	// <= 0 means 8.
	Threshold int
	// Cooldown is the open -> half-open delay; <= 0 means 30s.
	Cooldown time.Duration

	mu  sync.Mutex
	m   map[uint64]*breakerEntry
	now func() time.Time // test hook; nil means time.Now
}

func (b *Breaker) clock() time.Time {
	if b.now != nil {
		return b.now()
	}
	return time.Now()
}

func (b *Breaker) threshold() int {
	if b.Threshold > 0 {
		return b.Threshold
	}
	return 8
}

func (b *Breaker) cooldown() time.Duration {
	if b.Cooldown > 0 {
		return b.Cooldown
	}
	return 30 * time.Second
}

func (b *Breaker) entry(fp uint64) *breakerEntry {
	if b.m == nil {
		b.m = make(map[uint64]*breakerEntry)
	}
	e := b.m[fp]
	if e == nil {
		e = &breakerEntry{}
		b.m[fp] = e
	}
	return e
}

// Allow reports whether an attempt on the circuit may proceed,
// returning an *OpenError when it may not. On a nil breaker every
// attempt is allowed. After the cooldown exactly one caller is
// admitted as the half-open probe; concurrent callers keep getting
// rejected until the probe reports Success or Failure.
func (b *Breaker) Allow(fp uint64) error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entry(fp)
	switch e.state {
	case stateClosed:
		return nil
	case stateOpen:
		if b.clock().Sub(e.openedAt) >= b.cooldown() {
			e.state = stateHalfOpen
			e.probing = true
			telemetry.C("resilience.breaker_probes").Inc()
			return nil
		}
	case stateHalfOpen:
		if !e.probing {
			e.probing = true
			telemetry.C("resilience.breaker_probes").Inc()
			return nil
		}
	}
	telemetry.C("resilience.breaker_rejects").Inc()
	return &OpenError{Fingerprint: fp, Failures: e.consecutive}
}

// Success reports a finished attempt that succeeded: it closes the
// circuit and resets its failure count. No-op on nil.
func (b *Breaker) Success(fp uint64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entry(fp)
	e.state = stateClosed
	e.consecutive = 0
	e.probing = false
}

// Failure reports a finished attempt that failed. Threshold
// consecutive failures open the circuit; a failed half-open probe
// re-opens it immediately. No-op on nil.
func (b *Breaker) Failure(fp uint64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entry(fp)
	e.consecutive++
	e.probing = false
	opened := false
	switch e.state {
	case stateClosed:
		if e.consecutive >= b.threshold() {
			opened = true
		}
	case stateHalfOpen:
		opened = true
	}
	if opened {
		e.state = stateOpen
		e.openedAt = b.clock()
		telemetry.C("resilience.breaker_opens").Inc()
		health.Note(health.Event{
			Check:  "resilience.breaker_open",
			Tree:   fmt.Sprintf("%016x", fp),
			Detail: fmt.Sprintf("circuit opened after %d consecutive failures", e.consecutive),
		})
		if telemetry.FlightEnabled() {
			// A breaker opening means a tree is failing repeatedly — dump
			// the ring so the attempts that tripped it are on disk.
			telemetry.FlightRecord(telemetry.FlightEvent{
				Kind:  telemetry.FlightBreakerOpen,
				Index: -1,
				Code:  int64(e.consecutive),
				Label: fmt.Sprintf("%016x", fp),
			})
			telemetry.FlightDump("breaker-open")
		}
	}
}

// Open reports whether the circuit is currently open (rejecting
// without a cooldown check). For tests and introspection.
func (b *Breaker) Open(fp uint64) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.m[fp]
	return ok && e.state == stateOpen
}

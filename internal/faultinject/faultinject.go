// Package faultinject is a deterministic, seed-driven fault injector
// for chaos testing the batch/sim/core stack. The paper's central
// result — the Elmore delay T_D = m1 is a guaranteed upper bound on the
// 50% delay (Theorem 1) — means a correct answer survives any sim
// failure, and this package manufactures those failures on demand so
// the resilience layer's retry, circuit-breaker, and graceful-
// degradation paths can be proven under load rather than trusted.
//
// The design mirrors package health: a process-wide default injector
// reached through an atomic pointer, where nil means "disabled" and
// the disabled path costs one atomic load and zero allocations — safe
// to leave at named injection points inside hot loops permanently.
//
//	inj := faultinject.New(1, faultinject.Rule{
//	    Point: "sim.step", Kind: faultinject.KindError, Prob: 0.01,
//	})
//	prev := faultinject.SetDefault(inj)
//	defer faultinject.SetDefault(prev)
//
// Injection points are dotted "<package>.<site>" names. The points
// currently wired into the engines:
//
//	sim.factor       NewPlan, before compile/stamp/factor
//	sim.step         every integration step of Runner.RunInto
//	sim.state        NaN poisoning of the state vector (KindNaN rules)
//	moments.compute  moments.Compute, before the traversals
//	moments.m1       NaN poisoning of the computed m_1 (KindNaN rules)
//	batch.dispatch   batch.Engine, at the top of every job attempt
//	batch.write      batch.WriteResult, before encoding
//	batch.journal    batch.Journal.Record, before appending
//	serve.accept     cmd/elmored, before a request enters the drain gate
//	serve.decode     cmd/elmored, before the request body is decoded
//	serve.admit      cmd/elmored, before the limiter's admission decision
//
// Decisions are deterministic: each rule keeps its own visit counter,
// and probability rules hash (seed, point, visit number) with
// splitmix64, so a given seed fires on exactly the same visit numbers
// every run, regardless of goroutine interleaving.
//
// Setting the environment variable ELMORE_FAULTS to a rule spec (see
// ParseSpec) installs an injector at package init, seeded by
// ELMORE_FAULT_SEED (default 1) — the hook the chaos CI lane and the
// README walkthrough use to inject faults into unmodified binaries.
package faultinject

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"elmore/internal/telemetry"
)

// Kind selects what a firing rule does to the caller.
type Kind int

const (
	// KindError makes Fire return an *Error (classified as transient
	// by the resilience package).
	KindError Kind = iota
	// KindPanic makes Fire panic with a *Panic value.
	KindPanic
	// KindDelay makes Fire sleep for the rule's Delay before returning
	// nil — the fuel for per-attempt timeouts and client deadlines.
	KindDelay
	// KindNaN makes Poison return NaN instead of the caller's value.
	// Fire ignores NaN rules; Poison ignores all other kinds.
	KindNaN
)

// String returns the spec token for the kind.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindNaN:
		return "nan"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rule schedules one fault at one injection point. A rule fires on a
// visit when the visit number matches its deterministic schedule:
// every Nth visit (Every), with probability Prob per visit (hashed
// from the injector seed and the visit number), or both. A rule with
// neither Every nor Prob set never fires. After skips the first
// visits; Limit caps the total number of fires (0 = unlimited).
type Rule struct {
	Point string        // injection point name (e.g. "sim.step")
	Kind  Kind          // what to do when the rule fires
	Prob  float64       // per-visit firing probability in [0, 1]
	Every int           // fire on every Nth visit (deterministic)
	After int           // skip the first After visits
	Limit int           // max total fires; 0 means unlimited
	Delay time.Duration // sleep duration for KindDelay rules
}

// rule is a compiled Rule with its runtime counters.
type rule struct {
	Rule
	visits atomic.Int64
	fires  atomic.Int64
}

// Injector evaluates rules at injection points. Immutable after New;
// safe for concurrent use.
type Injector struct {
	seed  uint64
	rules map[string][]*rule
}

// New compiles rules into an injector. Rules for the same point are
// evaluated in order; the first firing rule wins the visit.
func New(seed int64, rules ...Rule) *Injector {
	inj := &Injector{seed: uint64(seed), rules: make(map[string][]*rule, len(rules))}
	for _, r := range rules {
		inj.rules[r.Point] = append(inj.rules[r.Point], &rule{Rule: r})
	}
	return inj
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashPoint folds a point name into the seed once per decision.
func hashPoint(seed uint64, point string) uint64 {
	h := seed
	for i := 0; i < len(point); i++ {
		h = splitmix64(h ^ uint64(point[i]))
	}
	return h
}

// decide reports whether the rule fires on this visit (1-based).
func (r *rule) decide(seed uint64, visit int64) bool {
	if visit <= int64(r.After) {
		return false
	}
	if r.Limit > 0 && r.fires.Load() >= int64(r.Limit) {
		return false
	}
	hit := false
	if r.Every > 0 && (visit-int64(r.After))%int64(r.Every) == 0 {
		hit = true
	}
	if !hit && r.Prob > 0 {
		u := float64(splitmix64(hashPoint(seed, r.Point)^uint64(visit))>>11) / (1 << 53)
		hit = u < r.Prob
	}
	if !hit {
		return false
	}
	if r.Limit > 0 && r.fires.Add(1) > int64(r.Limit) {
		return false
	}
	if r.Limit == 0 {
		r.fires.Add(1)
	}
	return true
}

// Error is the typed error a KindError rule injects. The resilience
// package classifies it as transient, so retry loops re-run the
// attempt.
type Error struct {
	Point string // injection point that fired
	Visit int64  // 1-based visit number at that point's rule
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s (visit %d)", e.Point, e.Visit)
}

// Transient marks injected errors as retry-worthy for the resilience
// classifier.
func (e *Error) Transient() bool { return true }

// Panic is the value a KindPanic rule panics with, so recover sites
// and chaos assertions can tell injected panics from real ones.
type Panic struct {
	Point string
	Visit int64
}

// String renders the panic value for recovered-panic error messages.
func (p *Panic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (visit %d)", p.Point, p.Visit)
}

// fire evaluates the point's error/panic/delay rules for one visit.
func (inj *Injector) fire(point string) error {
	rules := inj.rules[point]
	if len(rules) == 0 {
		return nil
	}
	for _, r := range rules {
		if r.Kind == KindNaN {
			continue
		}
		visit := r.visits.Add(1)
		if !r.decide(inj.seed, visit) {
			continue
		}
		fired(point)
		switch r.Kind {
		case KindPanic:
			panic(&Panic{Point: point, Visit: visit})
		case KindDelay:
			time.Sleep(r.Delay)
			return nil
		default:
			return &Error{Point: point, Visit: visit}
		}
	}
	return nil
}

// poison evaluates the point's NaN rules for one visit.
func (inj *Injector) poison(point string, v float64) float64 {
	for _, r := range inj.rules[point] {
		if r.Kind != KindNaN {
			continue
		}
		if r.decide(inj.seed, r.visits.Add(1)) {
			fired(point)
			return math.NaN()
		}
	}
	return v
}

// fired counts one injection in the telemetry registry: the aggregate
// "faultinject.fired" plus a per-point counter. Each injection is also
// logged to the flight recorder — and, since an injected fault is by
// definition an anomaly worth a postmortem, triggers a (throttled)
// dump: the obs-smoke lane relies on a seeded chaos run always leaving
// a dump behind.
func fired(point string) {
	telemetry.C("faultinject.fired").Inc()
	telemetry.C("faultinject.fired." + point).Inc()
	if telemetry.FlightEnabled() {
		telemetry.FlightRecord(telemetry.FlightEvent{
			Kind:  telemetry.FlightFault,
			Index: -1,
			Label: point,
		})
		telemetry.FlightDump("fault")
	}
}

// defaultInjector is the process-wide injector consulted by Fire and
// Poison. nil means injection is disabled.
var defaultInjector atomic.Pointer[Injector]

// SetDefault installs inj as the process-wide injector (nil disables
// injection) and returns the previous one so callers can restore it.
func SetDefault(inj *Injector) (prev *Injector) {
	return defaultInjector.Swap(inj)
}

// Default returns the current injector, or nil when disabled.
func Default() *Injector { return defaultInjector.Load() }

// Enabled reports whether an injector is installed. Hot paths use it
// to gate multi-point sequences behind one atomic load.
func Enabled() bool { return Default() != nil }

// Fire consults the default injector at the named point: it returns an
// injected *Error, sleeps an injected delay, or panics with a *Panic,
// according to the installed schedule. With no injector installed it
// returns nil after a single atomic load.
func Fire(point string) error {
	inj := Default()
	if inj == nil {
		return nil
	}
	return inj.fire(point)
}

// Poison passes v through, or replaces it with NaN when a KindNaN rule
// fires at the named point. With no injector installed it returns v
// after a single atomic load.
func Poison(point string, v float64) float64 {
	inj := Default()
	if inj == nil {
		return v
	}
	return inj.poison(point, v)
}

// ParseSpec parses a comma-separated rule list into Rules. Each rule is
//
//	point:kind[:opt=val[;opt=val...]]
//
// with kind one of error, panic, delay, nan, and options p (per-visit
// probability), every, after, limit, and delay (a Go duration, for
// delay rules). Examples:
//
//	sim.step:error:p=0.01
//	moments.compute:panic:every=100;limit=3
//	batch.dispatch:delay:p=0.05;delay=50ms
//	sim.state:nan:every=500
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		parts := strings.SplitN(tok, ":", 3)
		if len(parts) < 2 || parts[0] == "" {
			return nil, fmt.Errorf("faultinject: rule %q: want point:kind[:opts]", tok)
		}
		r := Rule{Point: parts[0]}
		switch parts[1] {
		case "error":
			r.Kind = KindError
		case "panic":
			r.Kind = KindPanic
		case "delay":
			r.Kind = KindDelay
		case "nan":
			r.Kind = KindNaN
		default:
			return nil, fmt.Errorf("faultinject: rule %q: unknown kind %q", tok, parts[1])
		}
		if len(parts) == 3 {
			for _, opt := range strings.Split(parts[2], ";") {
				opt = strings.TrimSpace(opt)
				if opt == "" {
					continue
				}
				k, v, ok := strings.Cut(opt, "=")
				if !ok {
					return nil, fmt.Errorf("faultinject: rule %q: option %q: want key=value", tok, opt)
				}
				var err error
				switch k {
				case "p":
					r.Prob, err = strconv.ParseFloat(v, 64)
					if err == nil && (r.Prob < 0 || r.Prob > 1 || math.IsNaN(r.Prob)) {
						err = fmt.Errorf("probability out of [0,1]")
					}
				case "every":
					r.Every, err = strconv.Atoi(v)
					if err == nil && r.Every < 0 {
						err = fmt.Errorf("must be >= 0")
					}
				case "after":
					r.After, err = strconv.Atoi(v)
					if err == nil && r.After < 0 {
						err = fmt.Errorf("must be >= 0")
					}
				case "limit":
					r.Limit, err = strconv.Atoi(v)
					if err == nil && r.Limit < 0 {
						err = fmt.Errorf("must be >= 0")
					}
				case "delay":
					r.Delay, err = time.ParseDuration(v)
					if err == nil && r.Delay < 0 {
						err = fmt.Errorf("must be >= 0")
					}
				default:
					err = fmt.Errorf("unknown option")
				}
				if err != nil {
					return nil, fmt.Errorf("faultinject: rule %q: option %q: %v", tok, opt, err)
				}
			}
		}
		if r.Prob == 0 && r.Every == 0 {
			return nil, fmt.Errorf("faultinject: rule %q: needs p= or every= to ever fire", tok)
		}
		rules = append(rules, r)
	}
	return rules, nil
}

func init() {
	spec := os.Getenv("ELMORE_FAULTS")
	if spec == "" {
		return
	}
	seed := int64(1)
	if s := os.Getenv("ELMORE_FAULT_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			seed = v
		}
	}
	rules, err := ParseSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ELMORE_FAULTS:", err)
		os.Exit(2)
	}
	SetDefault(New(seed, rules...))
}

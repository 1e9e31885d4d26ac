package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"elmore/internal/core"
	"elmore/internal/moments"
	"elmore/internal/rctree"
)

// oracleTol is the relative tolerance between a reported bound and its
// O(N·depth) oracle. The fast kernels sum in another order than the
// definitions, which costs a few ulps per node, far below this.
const oracleTol = 1e-9

// resultRec is the part of a result line the checks read. It is the
// benchmark's own view of the NDJSON format, not the program's type.
type resultRec struct {
	Index     int       `json:"index"`
	ID        string    `json:"id"`
	Error     string    `json:"error"`
	CacheHit  bool      `json:"cache_hit"`
	ElapsedNS int64     `json:"elapsed_ns"`
	Sinks     []sinkRec `json:"sinks"`
}

type sinkRec struct {
	Node    string    `json:"node"`
	Elmore  float64   `json:"elmore"`
	Lower   float64   `json:"lower"`
	PRHTmin float64   `json:"prh_tmin"`
	PRHTmax float64   `json:"prh_tmax"`
	Sigma   float64   `json:"sigma"`
	Input   *inputRec `json:"input"`
}

type inputRec struct {
	Upper float64 `json:"upper"`
	Lower float64 `json:"lower"`
}

// checkResult decodes one result line and checks it against the job it
// answers: index, no error, the requested sinks in order, finite
// values, lower = max(elmore - sigma, 0) <= elmore (Corollary 1) and
// prh_tmin <= prh_tmax at every sink, and
// for a ramp input the Corollary 2 window (upper = T_D for a symmetric
// ramp, lower <= upper).
func checkResult(line []byte, idx int, j job, nt *net) (*resultRec, error) {
	var rec resultRec
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("result %d: %w", idx, err)
	}
	if rec.Index != idx || rec.ID != j.id {
		return nil, fmt.Errorf("result %d: got index %d id %q, want id %q", idx, rec.Index, rec.ID, j.id)
	}
	if rec.Error != "" {
		return nil, fmt.Errorf("result %d: error record: %s", idx, rec.Error)
	}
	want := j.sinks
	if want == nil && len(rec.Sinks) != nt.n() {
		return nil, fmt.Errorf("result %d: %d sinks, want every node (%d)", idx, len(rec.Sinks), nt.n())
	}
	if want != nil && len(rec.Sinks) != len(want) {
		return nil, fmt.Errorf("result %d: %d sinks, want %d", idx, len(rec.Sinks), len(want))
	}
	ramp := j.rise != "step"
	var seen []bool // every-node jobs: each node reported once
	if want == nil {
		seen = make([]bool, nt.n())
	}
	for k, s := range rec.Sinks {
		if want != nil && s.Node != want[k] {
			return nil, fmt.Errorf("result %d: sink %d is %q, want %q", idx, k, s.Node, want[k])
		}
		if want == nil {
			i, err := strconv.Atoi(strings.TrimPrefix(s.Node, "n"))
			if err != nil || i < 1 || i > nt.n() || seen[i-1] {
				return nil, fmt.Errorf("result %d: unexpected or repeated sink %q", idx, s.Node)
			}
			seen[i-1] = true
		}
		if err := checkSink(s, ramp); err != nil {
			return nil, fmt.Errorf("result %d: sink %s: %w", idx, s.Node, err)
		}
	}
	return &rec, nil
}

func checkSink(s sinkRec, ramp bool) error {
	for _, v := range []float64{s.Elmore, s.Lower, s.PRHTmin, s.PRHTmax} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("value %g is not a finite non-negative time", v)
		}
	}
	if !(s.Elmore > 0) {
		return fmt.Errorf("elmore %g is not positive", s.Elmore)
	}
	if !(s.Lower <= s.Elmore*(1+1e-12)) {
		return fmt.Errorf("lower %g > elmore %g", s.Lower, s.Elmore)
	}
	if !near(s.Lower, math.Max(s.Elmore-s.Sigma, 0), s.Elmore) {
		return fmt.Errorf("lower %g is not max(elmore - sigma, 0) = %g", s.Lower, math.Max(s.Elmore-s.Sigma, 0))
	}
	if !(s.PRHTmin <= s.PRHTmax*(1+1e-12)) {
		return fmt.Errorf("prh_tmin %g > prh_tmax %g", s.PRHTmin, s.PRHTmax)
	}
	switch {
	case ramp && s.Input == nil:
		return fmt.Errorf("ramp job without an input window")
	case !ramp && s.Input != nil:
		return fmt.Errorf("step job with an input window")
	case ramp:
		if !(s.Input.Lower <= s.Input.Upper) {
			return fmt.Errorf("input lower %g > upper %g", s.Input.Lower, s.Input.Upper)
		}
		if !near(s.Input.Upper, s.Elmore, s.Elmore) {
			return fmt.Errorf("input upper %g != elmore %g for a symmetric ramp", s.Input.Upper, s.Elmore)
		}
	}
	return nil
}

// near reports |got-want| <= oracleTol*scale.
func near(got, want, scale float64) bool {
	return math.Abs(got-want) <= oracleTol*math.Abs(scale)
}

// checkOracle compares one reported sink with the definitions:
// T_D by moments.ElmoreDelayDirect and the PRH 50% window from
// moments.TRDirect and moments.TPDirect.
func checkOracle(t *rctree.Tree, s sinkRec) error {
	i, ok := t.Index(s.Node)
	if !ok {
		return fmt.Errorf("oracle: no node %q", s.Node)
	}
	td := moments.ElmoreDelayDirect(t, i)
	tp := moments.TPDirect(t)
	tr := moments.TRDirect(t, i)
	tmin := core.PRHTmin(tp, td, tr, 0.5)
	tmax := core.PRHTmax(tp, td, tr, 0.5)
	switch {
	case !near(s.Elmore, td, td):
		return fmt.Errorf("oracle %s: elmore %g, direct %g", s.Node, s.Elmore, td)
	case !near(s.PRHTmin, tmin, tp):
		return fmt.Errorf("oracle %s: prh_tmin %g, direct %g", s.Node, s.PRHTmin, tmin)
	case !near(s.PRHTmax, tmax, tp):
		return fmt.Errorf("oracle %s: prh_tmax %g, direct %g", s.Node, s.PRHTmax, tmax)
	}
	return nil
}

// sampled reports whether item k of a run seeded with seed is in the
// oracle sample, which holds about one item in every.
func sampled(seed int64, k, every int) bool {
	r := rng{s: uint64(seed)*0x2545F4914F6CDD1D + uint64(k)}
	return r.next()%uint64(every) == 0
}

package batch

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"elmore/internal/gate"
	netlistpkg "elmore/internal/netlist"
	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/sim"
	"elmore/internal/sta"
	"elmore/internal/telemetry"
)

// JobSpec is one NDJSON job line, as read by the -jobs flag of
// boundstat and sta. A spec is a net job,
//
//	{"id":"n1","net":"nets/n1.sp","sinks":["out"],"rise":"1n"}
//
// a path job,
//
//	{"id":"p1","slew":"30p","stages":[{"cell":"inv_x1","net":"nets/n1.sp","sink":"out"}]}
//
// or — when "dt" is present alongside "net" — a transient sweep,
//
//	{"id":"t1","net":"nets/n1.sp","dt":"1p","sinks":["out"],"levels":[0.5]}
//
// Sinks defaults to every node of the net (for transient jobs it names
// the probes); rise defaults to "step" (a duration such as "0.5n"
// selects a saturated ramp, "0" degenerates to the step); slew defaults
// to the CLI's -slew value.
type JobSpec struct {
	ID string `json:"id,omitempty"`

	// TraceID, when set to a 32-hex-character lineage ID, continues an
	// existing trace instead of minting a fresh one — the hook a
	// sharding coordinator uses to keep one net's lineage intact across
	// worker processes. Malformed values are ignored (fresh mint).
	TraceID string `json:"trace_id,omitempty"`

	// Net jobs. Net names a netlist file; Netlist carries the deck text
	// inline (serve mode, where clients have no shared filesystem).
	// Setting both is an error.
	Net     string   `json:"net,omitempty"`     // netlist file
	Netlist string   `json:"netlist,omitempty"` // inline netlist text
	Sinks   []string `json:"sinks,omitempty"`
	Rise    string   `json:"rise,omitempty"`

	// Path jobs.
	Slew   string      `json:"slew,omitempty"` // input transition time
	Stages []StageSpec `json:"stages,omitempty"`

	// Transient-sweep jobs (net + dt): run the compiled simulation and
	// report threshold crossings instead of the closed-form bounds.
	DT     string    `json:"dt,omitempty"`     // fixed step, e.g. "1p"
	TEnd   string    `json:"t_end,omitempty"`  // horizon; empty estimates one
	Method string    `json:"method,omitempty"` // "trap" (default) or "be"
	Levels []float64 `json:"levels,omitempty"` // thresholds; empty means {0.5}
}

// StageSpec is one stage of a path job: the driving cell, the driven
// net (file path or inline text, as in JobSpec), and the sink node
// feeding the next stage.
type StageSpec struct {
	Cell    string `json:"cell"`
	Net     string `json:"net,omitempty"`
	Netlist string `json:"netlist,omitempty"`
	Sink    string `json:"sink"`
}

// ReadSpecs decodes an NDJSON job stream: one JSON object per line,
// blank lines and #-comment lines skipped. Decode errors carry the line
// number.
func ReadSpecs(r io.Reader) ([]JobSpec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var specs []JobSpec
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var s JobSpec
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("batch: jobs line %d: %w", lineNo, err)
		}
		specs = append(specs, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("batch: jobs: %w", err)
	}
	return specs, nil
}

// ParseRise converts a -rise style token into a signal: "", "step" or
// a zero duration yields the ideal step, a positive duration a
// saturated ramp; negative durations are rejected. It is the one rise
// parser of the batch specs and the CLIs' -rise flags.
func ParseRise(tok string) (signal.Signal, error) {
	tok = strings.TrimSpace(tok)
	if tok == "" || tok == "step" {
		return signal.Step{}, nil
	}
	tr, err := rctree.ParseValue(tok)
	if err != nil {
		return nil, fmt.Errorf("rise %q: %w", tok, err)
	}
	if tr == 0 {
		return signal.Step{}, nil
	}
	s := signal.SaturatedRamp{Tr: tr}
	if err := signal.Validate(s); err != nil {
		return nil, err
	}
	return s, nil
}

// TreeLoader resolves one spec net reference — a file path in net, or
// deck text in netlist (exactly one is non-empty) — into its RC tree.
// Engines with a Cache load through Cache.Loader, which serves
// repeated decks without re-parsing; tests substitute synthetic trees
// without touching the filesystem.
type TreeLoader func(net, netlist string) (*rctree.Tree, error)

// DefaultTreeLoader reads net as a netlist file, or parses netlist as
// inline deck text, with no caching.
func DefaultTreeLoader(net, netlist string) (*rctree.Tree, error) {
	src, err := deckText(net, netlist)
	if err != nil {
		return nil, err
	}
	return parseDeck(net, src)
}

// deckText returns the deck a net reference names: the inline text, or
// the file's current contents.
func deckText(net, netlist string) (string, error) {
	if net == "" {
		return netlist, nil
	}
	b, err := os.ReadFile(net)
	return string(b), err
}

// parseDeck parses deck text src into its RC tree; net, when set, is
// the file it was read from, for the error message.
func parseDeck(net, src string) (*rctree.Tree, error) {
	deck, err := netlistpkg.ParseString(src)
	if err != nil {
		if net != "" {
			return nil, fmt.Errorf("%s: %w", net, err)
		}
		return nil, fmt.Errorf("inline netlist: %w", err)
	}
	return deck.Tree, nil
}

// Job materializes a spec. Spec-level problems (no kind, bad rise or
// slew, unknown cell, missing library) come back as a pre-failed Job —
// never a hard error — so one bad line costs one error record in the
// batch output, in keeping with the engine's fail-soft policy. Netlists
// are resolved lazily inside the worker for the same reason, through
// load (nil means DefaultTreeLoader). defaultSlew is the path-job input
// slew used when the spec leaves "slew" empty; lib may be nil when no
// path jobs occur.
func (s JobSpec) Job(lib *gate.Library, defaultSlew float64, load TreeLoader) Job {
	if load == nil {
		load = DefaultTreeLoader
	}
	j := Job{ID: s.ID}
	if s.TraceID != "" {
		j.Trace, _ = telemetry.ParseTraceID(s.TraceID)
	}
	if s.Net != "" && s.Netlist != "" {
		j.Err = fmt.Errorf("batch: spec sets both net and netlist")
		return j
	}
	isNet := s.Net != "" || s.Netlist != ""
	isPath := len(s.Stages) > 0
	isTran := s.DT != ""
	switch {
	case isNet && isPath:
		j.Err = fmt.Errorf("batch: spec sets both net and stages")
	case !isNet && !isPath:
		j.Err = fmt.Errorf("batch: spec sets neither net nor stages")
	case !isTran && (s.TEnd != "" || s.Method != "" || len(s.Levels) > 0):
		j.Err = fmt.Errorf("batch: spec sets transient fields without dt")
	case isTran && isPath:
		j.Err = fmt.Errorf("batch: spec sets both dt and stages")
	case isTran:
		input, err := ParseRise(s.Rise)
		if err != nil {
			j.Err = fmt.Errorf("batch: spec: %w", err)
			return j
		}
		dt, err := rctree.ParseValue(s.DT)
		if err != nil {
			j.Err = fmt.Errorf("batch: spec dt: %w", err)
			return j
		}
		var tEnd float64
		if s.TEnd != "" {
			if tEnd, err = rctree.ParseValue(s.TEnd); err != nil {
				j.Err = fmt.Errorf("batch: spec t_end: %w", err)
				return j
			}
		}
		method, err := parseMethod(s.Method)
		if err != nil {
			j.Err = fmt.Errorf("batch: spec method: %w", err)
			return j
		}
		file, inline := s.Net, s.Netlist
		j.Tran = &TranJob{
			Load:   func() (*rctree.Tree, error) { return load(file, inline) },
			DT:     dt,
			TEnd:   tEnd,
			Method: method,
			Inputs: []signal.Signal{input},
			Probes: s.Sinks,
			Levels: s.Levels,
		}
	case isNet:
		input, err := ParseRise(s.Rise)
		if err != nil {
			j.Err = fmt.Errorf("batch: spec: %w", err)
			return j
		}
		file, inline := s.Net, s.Netlist
		j.Net = &NetJob{
			Load:  func() (*rctree.Tree, error) { return load(file, inline) },
			Sinks: s.Sinks,
			Input: input,
		}
	default: // path job
		slew := defaultSlew
		if s.Slew != "" {
			v, err := rctree.ParseValue(s.Slew)
			if err != nil {
				j.Err = fmt.Errorf("batch: spec slew: %w", err)
				return j
			}
			slew = v
		}
		if lib == nil {
			j.Err = fmt.Errorf("batch: path job needs a cell library")
			return j
		}
		cells := make([]*gate.Cell, len(s.Stages))
		for i, st := range s.Stages {
			if st.Net != "" && st.Netlist != "" {
				j.Err = fmt.Errorf("batch: spec stage %d sets both net and netlist", i)
				return j
			}
			cell, err := lib.Get(st.Cell)
			if err != nil {
				j.Err = fmt.Errorf("batch: spec stage %d: %w", i, err)
				return j
			}
			cells[i] = cell
		}
		stages := s.Stages
		j.Path = &PathJob{
			Load: func() (*sta.Path, error) {
				p := sta.Path{InputSlew: slew}
				for i, st := range stages {
					tree, err := load(st.Net, st.Netlist)
					if err != nil {
						return nil, fmt.Errorf("stage %d: %w", i, err)
					}
					p.Stages = append(p.Stages, sta.Stage{Cell: cells[i], Net: tree, Sink: st.Sink})
				}
				return &p, nil
			},
		}
	}
	return j
}

// parseMethod maps a spec "method" token to the integrator.
func parseMethod(tok string) (sim.Method, error) {
	switch strings.ToLower(strings.TrimSpace(tok)) {
	case "", "trap", "trapezoidal":
		return sim.Trapezoidal, nil
	case "be", "euler", "backward-euler":
		return sim.BackwardEuler, nil
	}
	return sim.Trapezoidal, fmt.Errorf("unknown method %q (want trap or be)", tok)
}

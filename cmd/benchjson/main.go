// Command benchjson converts `go test -bench -benchmem` output into a
// JSON ledger committed next to the code, so performance numbers are
// diffable across PRs.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -label after -merge -o BENCH_3.json
//
// Each benchmark becomes an entry keyed by its name with the
// "Benchmark" prefix stripped (the rest is kept verbatim — a
// -GOMAXPROCS suffix is indistinguishable from a sub-benchmark name
// like workers-8, so before and after must be measured with the same
// GOMAXPROCS) holding ns/op, B/op and allocs/op under the chosen label
// ("before" or "after"). The repeated lines of `go test -count N`
// fold into one side: the median of each column, the sample count,
// and the min and max ns/op. With -merge, entries already in the output
// file are kept, so a before ledger can be filled in with after
// numbers later. When an entry has both sides,
// speedup = before.ns_op / after.ns_op is recorded.
//
// Comparison mode:
//
//	benchjson -diff BASELINE.json CANDIDATE.json
//
// reads two committed ledgers and prints a per-benchmark speedup table
// (baseline ns/op over candidate ns/op; >1 means the candidate is
// faster) plus the geometric-mean ratio over the shared entries, so
// BENCH_N.json deltas across PRs need no manual comparison. A row is
// marked "within noise" when the two sides' [min, max] ns/op ranges
// overlap (a single-sample side is the point range of its ns/op). Each
// side's "after" metrics are used when present, falling back to
// "before".
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// metrics is one measured side of a benchmark entry: the median of
// its samples, their count, and the spread of their ns/op.
type metrics struct {
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
	Samples  int     `json:"samples,omitempty"`
	NsMin    float64 `json:"ns_min,omitempty"`
	NsMax    float64 `json:"ns_max,omitempty"`
}

// nsRange is the side's [min, max] ns/op; ledgers written before
// samples were counted hold one sample, the point range of NsOp.
func (m *metrics) nsRange() (lo, hi float64) {
	if m.Samples == 0 {
		return m.NsOp, m.NsOp
	}
	return m.NsMin, m.NsMax
}

// median returns the median of xs, sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// summarize folds one benchmark's ns/op, B/op and allocs/op sample
// columns into a side.
func summarize(cols *[3][]float64) *metrics {
	m := &metrics{
		NsOp:     median(cols[0]),
		BOp:      int64(math.Round(median(cols[1]))),
		AllocsOp: int64(math.Round(median(cols[2]))),
		Samples:  len(cols[0]),
	}
	m.NsMin, m.NsMax = cols[0][0], cols[0][len(cols[0])-1] // median sorted the column
	return m
}

// entry pairs the two sides of a benchmark and their ratio.
type entry struct {
	Before  *metrics `json:"before,omitempty"`
	After   *metrics `json:"after,omitempty"`
	Speedup float64  `json:"speedup,omitempty"`
}

// ledger is the on-disk document. Map keys are sorted by
// encoding/json, so the file is stable under re-runs.
type ledger struct {
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks map[string]*entry `json:"benchmarks"`
}

// benchLine matches one `go test -bench -benchmem` result line, e.g.
//
//	BenchmarkMomentsOrder6/n=100000  62  19508668 ns/op  3207309 B/op  11 allocs/op
//
// The B/op and allocs/op columns are optional (-benchmem may be off).
var benchLine = regexp.MustCompile(
	`^Benchmark(\S+)\s+\d+\s+([0-9.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "BENCH_3.json", "output JSON `file`")
	label := fs.String("label", "after", "which side the piped numbers are: before or after")
	merge := fs.Bool("merge", false, "load the output file first and merge into it")
	diff := fs.Bool("diff", false, "compare two committed ledgers: benchjson -diff BASELINE.json CANDIDATE.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 {
			return errors.New("-diff needs exactly two ledger files: BASELINE.json CANDIDATE.json")
		}
		return runDiff(fs.Arg(0), fs.Arg(1), stdout)
	}
	if *label != "before" && *label != "after" {
		return fmt.Errorf("-label must be before or after, got %q", *label)
	}

	doc := &ledger{Benchmarks: map[string]*entry{}}
	if *merge {
		raw, err := os.ReadFile(*out)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// First run: nothing to merge.
		case err != nil:
			return err
		default:
			if err := json.Unmarshal(raw, doc); err != nil {
				return fmt.Errorf("%s: %w", *out, err)
			}
			if doc.Benchmarks == nil {
				doc.Benchmarks = map[string]*entry{}
			}
		}
	}

	samples := map[string]*[3][]float64{} // ns/op, B/op, allocs/op columns
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			doc.CPU = strings.TrimSpace(cpu)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		cols := samples[m[1]]
		if cols == nil {
			cols = new([3][]float64)
			samples[m[1]] = cols
		}
		for c, v := range m[2:] {
			x, _ := strconv.ParseFloat(v, 64) // a missing -benchmem column reads 0
			cols[c] = append(cols[c], x)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(samples) == 0 {
		return errors.New("no benchmark lines on stdin")
	}
	lines := 0
	for name, cols := range samples {
		lines += len(cols[0])
		e := doc.Benchmarks[name]
		if e == nil {
			e = &entry{}
			doc.Benchmarks[name] = e
		}
		if *label == "before" {
			e.Before = summarize(cols)
		} else {
			e.After = summarize(cols)
		}
	}

	for _, e := range doc.Benchmarks {
		if e.Before != nil && e.After != nil && e.After.NsOp > 0 {
			e.Speedup = math.Round(100*e.Before.NsOp/e.After.NsOp) / 100
		}
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "benchjson: %d %s entries from %d samples -> %s (%d total)\n",
		len(samples), *label, lines, *out, len(doc.Benchmarks))
	return nil
}

// sideMetrics picks the measured side a ledger entry represents when
// compared across files: the after numbers when present (the ledger's
// final state), otherwise before.
func sideMetrics(e *entry) *metrics {
	if e == nil {
		return nil
	}
	if e.After != nil {
		return e.After
	}
	return e.Before
}

func loadLedger(path string) (*ledger, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &ledger{}
	if err := json.Unmarshal(raw, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// runDiff prints the per-benchmark speedup table between two committed
// ledgers. Ratio = baseline ns/op / candidate ns/op, so >1 means the
// candidate is faster. Entries present on only one side are listed so
// coverage changes are visible, and the geometric mean over the shared
// entries summarizes the delta in one number. Rows whose sides' ns/op
// ranges overlap are marked within noise.
func runDiff(basePath, candPath string, stdout io.Writer) error {
	base, err := loadLedger(basePath)
	if err != nil {
		return err
	}
	cand, err := loadLedger(candPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(base.Benchmarks)+len(cand.Benchmarks))
	seen := map[string]bool{}
	for name := range base.Benchmarks {
		names = append(names, name)
		seen[name] = true
	}
	for name := range cand.Benchmarks {
		if !seen[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "benchmark\tbaseline ns/op\tcandidate ns/op\tspeedup\n")
	logSum, shared := 0.0, 0
	for _, name := range names {
		b := sideMetrics(base.Benchmarks[name])
		c := sideMetrics(cand.Benchmarks[name])
		switch {
		case b == nil:
			fmt.Fprintf(w, "%s\t-\t%.0f\tcandidate only\n", name, c.NsOp)
		case c == nil:
			fmt.Fprintf(w, "%s\t%.0f\t-\tbaseline only\n", name, b.NsOp)
		case !(b.NsOp > 0) || !(c.NsOp > 0):
			fmt.Fprintf(w, "%s\t%.0f\t%.0f\t-\n", name, b.NsOp, c.NsOp)
		default:
			ratio := b.NsOp / c.NsOp
			note := ""
			bLo, bHi := b.nsRange()
			cLo, cHi := c.nsRange()
			if bLo <= cHi && cLo <= bHi {
				note = " (within noise)"
			}
			fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.2fx%s\n", name, b.NsOp, c.NsOp, ratio, note)
			logSum += math.Log(ratio)
			shared++
		}
	}
	if shared > 0 {
		fmt.Fprintf(w, "geomean (%d shared)\t\t\t%.2fx\n", shared, math.Exp(logSum/float64(shared)))
	}
	return w.Flush()
}

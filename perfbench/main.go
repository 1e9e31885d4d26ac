// Command perfbench is the repository benchmark. It runs one workload
// against the shipped programs (boundstat and elmored), checks their
// outputs, and prints one JSON result line:
//
//	perfbench -bin DIR -work DIR --workload sweep-small --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// instead walks a seeded sample of the workload's jobs through the
// layers' public functions in one goroutine and reports per-layer
// metrics. run.sh builds the programs and this command from source and
// passes -bin and -work. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	bin      string // built boundstat and elmored
	work     string // work directory for corpora and spans
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
}

func (o *outcome) successFrac() float64 {
	return float64(o.attempted-o.failed) / float64(o.attempted)
}

var workloads = map[string]func(options) (*outcome, error){
	"sweep-small": runBatchWorkload,
	"deep-nets":   runBatchWorkload,
	"serve-open":  runServeWorkload,
}

func main() {
	var o options
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "sweep-small, deep-nets or serve-open")
	flag.Int64Var(&o.seed, "seed", 1, "corpus seed")
	flag.IntVar(&secs, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer traced run")
	flag.StringVar(&o.bin, "bin", "", "directory holding the built boundstat and elmored")
	flag.StringVar(&o.work, "work", "", "work directory for corpora and spans")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace != 0
	run, ok := workloads[o.workload]
	if !ok || o.bin == "" || o.work == "" || secs < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -work, --seconds >= 1 and --workload sweep-small|deep-nets|serve-open")
		os.Exit(2)
	}
	if o.trace {
		run = runTraced
	}
	var err error
	if o.bin, err = filepath.Abs(o.bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.correct, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.correct {
		os.Exit(1)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

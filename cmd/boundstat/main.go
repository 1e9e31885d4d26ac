// Command boundstat runs a Monte-Carlo study of the paper's bounds on
// random RC trees: it verifies that the Elmore upper bound and the
// mu-sigma lower bound hold at every node (reporting any violation, of
// which there should be none) and prints tightness statistics —
// quantiles of actual/T_D and of the lower-bound gap — per input rise
// time. This quantifies "how conservative is the bound in practice",
// the question the paper's Section IV answers qualitatively.
//
// Usage:
//
//	boundstat [-trees 200] [-max-nodes 20] [-seed 1]
//	          [-rise step,0.5n,2n] [-chaininess 0.5]
//
// With -jobs FILE the tool instead evaluates an NDJSON stream of net
// jobs concurrently (see internal/batch for the job schema) and emits
// one NDJSON result line per job, in job order:
//
//	boundstat -jobs jobs.ndjson -workers 8 -timeout 30s > results.ndjson
//
// Batch runs carry full observability (PR 9): every result line has a
// trace_id minted per job (or continued from the spec's trace_id),
// -flight-dump FILE arms an always-on flight recorder that dumps its
// ring to FILE on SIGQUIT, panic, breaker-open or slow-job breach, and
// -slo p99=50ms,p50=5ms adds latency objectives to the -summary record
// and publishes good/bad/burn-rate gauges through -metrics:
//
//	boundstat -jobs jobs.ndjson -retries 2 -trace trace.ndjson \
//	          -flight-dump flight.ndjson -slo p99=50ms -summary
//
// Inspect the lineage afterwards with tracestat -by-trace.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"elmore/internal/batch"
	"elmore/internal/cliutil"
	"elmore/internal/core"
	"elmore/internal/exact"
	"elmore/internal/signal"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "boundstat:", err)
		os.Exit(1)
	}
}

// quantiles returns min, p10, p50, p90, max of xs.
func quantiles(xs []float64) [5]float64 {
	sort.Float64s(xs)
	q := func(p float64) float64 {
		if len(xs) == 1 {
			return xs[0]
		}
		pos := p * float64(len(xs)-1)
		lo := int(pos)
		f := pos - float64(lo)
		if lo+1 >= len(xs) {
			return xs[len(xs)-1]
		}
		return xs[lo]*(1-f) + xs[lo+1]*f
	}
	return [5]float64{xs[0], q(0.1), q(0.5), q(0.9), xs[len(xs)-1]}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("boundstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nTrees     = fs.Int("trees", 200, "number of random trees")
		maxNodes   = fs.Int("max-nodes", 20, "max nodes per tree")
		seed       = fs.Int64("seed", 1, "base random seed")
		riseSpec   = fs.String("rise", "step,0.5n,2n", "comma-separated rise times ('step' or 0 for the ideal step)")
		chaininess = fs.Float64("chaininess", 0.5, "tree shape parameter in [0,1]")
	)
	cf := cliutil.Add(fs)
	bf := cliutil.AddBatch(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cf.Version {
		fmt.Fprintln(stdout, cliutil.Version("boundstat"))
		return nil
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *nTrees < 1 || *maxNodes < 1 {
		return fmt.Errorf("-trees and -max-nodes must be positive")
	}
	sess, err := cf.Start(stderr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()
	if bf.Jobs != "" {
		// Batch mode replaces the Monte-Carlo study: net and transient
		// jobs from the NDJSON stream (no cell library, so path specs
		// fail soft), results streamed to stdout in job order, with
		// retry/degradation and the -resume journal handled by cliutil.
		return bf.RunBatch(sess.Context(), nil, 0, stdout, stderr)
	}
	ctx, root := telemetry.Start(sess.Context(), "boundstat.run")
	root.AttrInt("trees", int64(*nTrees))
	defer root.End()

	var sigs []signal.Signal
	for _, tok := range strings.Split(*riseSpec, ",") {
		if strings.TrimSpace(tok) == "" {
			return fmt.Errorf("-rise %q: empty list element", *riseSpec)
		}
		sig, err := batch.ParseRise(tok)
		if err != nil {
			return fmt.Errorf("-rise: %w", err)
		}
		sigs = append(sigs, sig)
	}

	ratios := make([][]float64, len(sigs))  // actual / T_D (or generalized upper)
	lowGaps := make([][]float64, len(sigs)) // (actual - lower) / actual
	violations := 0
	nodes := 0
	trees := 0

	mctx, msp := telemetry.Start(ctx, "measure")
	defer msp.End()
	for k := 0; k < *nTrees; k++ {
		tree := topo.Random(*seed+int64(k), topo.RandomOptions{
			N:          1 + (k % *maxNodes),
			Chaininess: *chaininess,
		})
		sys, err := exact.NewSystemContext(mctx, tree)
		if err != nil {
			return err
		}
		an, err := core.AnalyzeContext(mctx, tree)
		if err != nil {
			return err
		}
		trees++
		for i := 0; i < tree.N(); i++ {
			nodes++
			for si, sig := range sigs {
				actual, err := sys.Delay(i, sig, 0)
				if err != nil {
					return err
				}
				// The shipped Corollary 1/2 bounds; for a step, ForInput
				// reduces to [max(T_D - sigma, 0), T_D].
				ib, err := an.ForInput(i, sig)
				if err != nil {
					return err
				}
				upper, lower := ib.Upper, ib.Lower
				if actual > upper*(1+1e-9) {
					violations++
					fmt.Fprintf(stdout, "VIOLATION upper: tree %d node %s sig %v: %g > %g\n",
						k, tree.Name(i), sig, actual, upper)
				}
				if actual < lower-1e-18 {
					violations++
					fmt.Fprintf(stdout, "VIOLATION lower: tree %d node %s sig %v: %g < %g\n",
						k, tree.Name(i), sig, actual, lower)
				}
				ratios[si] = append(ratios[si], actual/upper)
				if actual > 0 {
					lowGaps[si] = append(lowGaps[si], (actual-lower)/actual)
				}
			}
		}
	}

	fmt.Fprintf(stdout, "boundstat: %d trees, %d node-measurements, %d bound violations\n\n",
		trees, nodes, violations)
	fmt.Fprintf(stdout, "tightness of the Elmore upper bound (actual delay / bound):\n")
	fmt.Fprintf(stdout, "%-14s %8s %8s %8s %8s %8s\n", "input", "min", "p10", "p50", "p90", "max")
	for si, sig := range sigs {
		q := quantiles(ratios[si])
		fmt.Fprintf(stdout, "%-14v %8.3f %8.3f %8.3f %8.3f %8.3f\n", sig, q[0], q[1], q[2], q[3], q[4])
	}
	fmt.Fprintf(stdout, "\nrelative slack of the lower bound ((actual - lower) / actual):\n")
	fmt.Fprintf(stdout, "%-14s %8s %8s %8s %8s %8s\n", "input", "min", "p10", "p50", "p90", "max")
	for si, sig := range sigs {
		q := quantiles(lowGaps[si])
		fmt.Fprintf(stdout, "%-14v %8.3f %8.3f %8.3f %8.3f %8.3f\n", sig, q[0], q[1], q[2], q[3], q[4])
	}
	if violations > 0 {
		return fmt.Errorf("%d bound violations detected", violations)
	}
	return nil
}

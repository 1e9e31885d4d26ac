// Command elmore is an RC-tree timing analyzer. It reads a SPICE-style
// deck and prints, for every node, the Elmore delay upper bound, the
// mu-sigma lower bound, the single-pole estimate, and the
// Penfield-Rubinstein bounds — optionally alongside the exact 50% delay
// and the bounds for a finite input rise time.
//
// Usage:
//
//	elmore [-exact] [-rise 1ns] [-node NAME] [-csv] [netlist.sp]
//
// With no file argument the deck is read from stdin.
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
	"elmore/internal/netlist"
	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "elmore:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("elmore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		doExact  = fs.Bool("exact", false, "also compute exact 50% delays and rise times (O(N^3); trees up to a few hundred nodes)")
		riseStr  = fs.String("rise", "", "input rise time (e.g. 1n) for generalized-input bounds; empty or 0 = step input")
		nodeSel  = fs.String("node", "", "report only this node (default: all nodes, topological order)")
		asCSV    = fs.Bool("csv", false, "emit CSV instead of a text table")
		simplify = fs.Bool("simplify", false, "merge zero-capacitance junctions before analysis")
		corners  = fs.Float64("corners", 0, "if > 0, also print guaranteed delay intervals under +-X relative R/C variation (e.g. 0.15)")
		window   = fs.Float64("window", 0, "if in (0,1), also print guaranteed crossing-time windows at this threshold")
	)
	cf := cliutil.Add(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cf.Version {
		fmt.Fprintln(stdout, cliutil.Version("elmore"))
		return nil
	}
	sig, err := batch.ParseRise(*riseStr)
	if err != nil {
		return fmt.Errorf("-rise: %w", err)
	}
	sess, err := cf.Start(stderr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()
	ctx, root := telemetry.Start(sess.Context(), "elmore.run")
	defer root.End()

	in := stdin
	switch fs.NArg() {
	case 0:
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		return fmt.Errorf("at most one netlist file")
	}

	_, psp := telemetry.Start(ctx, "parse")
	deck, err := netlist.Parse(in)
	psp.End()
	if err != nil {
		return err
	}
	for _, w := range deck.Warnings {
		fmt.Fprintln(stderr, "warning:", w)
	}
	tree := deck.Tree
	if *simplify {
		simp, err := tree.Simplify()
		if err != nil {
			return fmt.Errorf("-simplify: %w", err)
		}
		fmt.Fprintf(stderr, "simplified %d nodes -> %d\n", tree.N(), simp.N())
		tree = simp
	}
	root.AttrInt("nodes", int64(tree.N()))

	actx, asp := telemetry.Start(ctx, "analyze")
	an, err := core.AnalyzeContext(actx, tree)
	if err != nil {
		asp.End()
		return err
	}

	var sys *exact.System
	if *doExact {
		work := tree
		for i := 0; i < tree.N(); i++ {
			if tree.C(i) == 0 {
				work = exact.Regularize(tree, 0)
				fmt.Fprintln(stderr, "warning: zero-capacitance nodes regularized for the exact engine")
				break
			}
		}
		sys, err = exact.NewSystemContext(actx, work)
		if err != nil {
			asp.End()
			return err
		}
	}
	asp.End()

	_, rsp := telemetry.Start(ctx, "report")
	defer rsp.End()

	nodes := tree.PreOrder()
	if *nodeSel != "" {
		i, ok := tree.Index(*nodeSel)
		if !ok {
			return fmt.Errorf("no node named %q (have: %s)", *nodeSel, strings.Join(tree.SortedNames(), ", "))
		}
		nodes = []int{i}
	}

	type row struct {
		name                                 string
		elmore, lower, upper, single         float64
		prhMin, prhMax, sigma, skew, riseEst float64
		exactDelay                           float64
		hasExact                             bool
	}
	var rows []row
	for _, i := range nodes {
		b := an.Bounds[i]
		r := row{
			name: b.Node, elmore: b.Elmore, lower: b.Lower, upper: b.Elmore,
			single: b.SinglePole, prhMin: b.PRHTmin, prhMax: b.PRHTmax,
			sigma: b.Sigma, skew: b.Skewness, riseEst: b.RiseTime,
		}
		if _, isStep := sig.(signal.Step); !isStep {
			ib, err := an.ForInput(i, sig)
			if err != nil {
				return err
			}
			r.upper = ib.Upper
			r.lower = ib.Lower
		}
		if sys != nil {
			d, err := sys.Delay(i, sig, 0)
			if err != nil {
				return err
			}
			r.exactDelay = d
			r.hasExact = true
		}
		rows = append(rows, r)
	}

	if *asCSV {
		fmt.Fprintln(stdout, "node,elmore,lower,upper,single_pole,prh_tmin,prh_tmax,sigma,skewness,rise_est,exact_delay")
		for _, r := range rows {
			ex := ""
			if r.hasExact {
				ex = fmt.Sprintf("%.6g", r.exactDelay)
			}
			fmt.Fprintf(stdout, "%s,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%s\n",
				r.name, r.elmore, r.lower, r.upper, r.single, r.prhMin, r.prhMax, r.sigma, r.skew, r.riseEst, ex)
		}
		return nil
	}

	title := deck.Title
	if title == "" {
		title = "RC tree"
	}
	fmt.Fprintf(stdout, "%s — %d nodes, input %q, input signal %v\n", title, tree.N(), deck.InputNode, sig)
	fmt.Fprintf(stdout, "T_P (PRH) = %s, total C = %s, total R = %s\n\n",
		rctree.FormatSeconds(an.TP), rctree.FormatFarads(tree.TotalC()), rctree.FormatOhms(tree.TotalR()))
	header := fmt.Sprintf("%-10s %10s %10s %10s %10s %10s %10s %8s %10s",
		"node", "lower", "upper(T_D)", "ln2*T_D", "PRH_tmin", "PRH_tmax", "sigma", "skew", "riseEst")
	if sys != nil {
		header += fmt.Sprintf(" %10s", "exact")
	}
	fmt.Fprintln(stdout, header)
	for _, r := range rows {
		line := fmt.Sprintf("%-10s %10s %10s %10s %10s %10s %10s %8.3g %10s",
			r.name,
			rctree.FormatSeconds(r.lower), rctree.FormatSeconds(r.upper),
			rctree.FormatSeconds(r.single),
			rctree.FormatSeconds(r.prhMin), rctree.FormatSeconds(r.prhMax),
			rctree.FormatSeconds(r.sigma), r.skew, rctree.FormatSeconds(r.riseEst))
		if r.hasExact {
			line += fmt.Sprintf(" %10s", rctree.FormatSeconds(r.exactDelay))
		}
		fmt.Fprintln(stdout, line)
	}

	// Critical sink summary: the leaf with the largest Elmore bound.
	leaves := tree.Leaves()
	sort.Slice(leaves, func(a, b int) bool {
		return an.Bounds[leaves[a]].Elmore > an.Bounds[leaves[b]].Elmore
	})
	if len(leaves) > 0 && *nodeSel == "" {
		crit := an.Bounds[leaves[0]]
		fmt.Fprintf(stdout, "\ncritical sink: %s, T_D = %s\n", crit.Node, rctree.FormatSeconds(crit.Elmore))
	}

	if *window > 0 {
		if *window >= 1 {
			return fmt.Errorf("-window: threshold must be in (0,1)")
		}
		fmt.Fprintf(stdout, "\nguaranteed %.0f%%-crossing windows (PRH bracket, moment-tightened at 50%%):\n", *window*100)
		for _, i := range nodes {
			lo, hi, err := an.WindowAt(i, *window)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-10s [%s, %s]\n", tree.Name(i),
				rctree.FormatSeconds(lo), rctree.FormatSeconds(hi))
		}
	}

	if *corners > 0 {
		iv, err := core.CornerIntervals(tree, core.CornerOptions{RRel: *corners, CRel: *corners})
		if err != nil {
			return fmt.Errorf("-corners: %w", err)
		}
		fmt.Fprintf(stdout, "\nguaranteed delay intervals under +-%.0f%% R/C variation:\n", *corners*100)
		for _, i := range nodes {
			fmt.Fprintf(stdout, "%-10s [%s, %s]\n", iv[i].Node,
				rctree.FormatSeconds(iv[i].Lower), rctree.FormatSeconds(iv[i].Upper))
		}
	}
	return nil
}

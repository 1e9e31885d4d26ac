package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	"elmore/internal/batch"
	"elmore/internal/core"
	"elmore/internal/moments"
	"elmore/internal/netlist"
	"elmore/internal/rctree"
	"elmore/internal/signal"
)

// The traced layers, in the order a net job passes through them.
const (
	lRead = iota
	lParse
	lFingerprint
	lCompile
	lMoments
	lPRH
	lAnalyze
	lForInput
	lEncode
	nLayers
)

// layerMetric names each layer's per-job time metric.
var layerMetric = [nLayers]string{
	"netlist.read_us", "netlist.parse_us", "rctree.fingerprint_us", "rctree.compile_us",
	"moments.compute_us", "moments.prh_us", "core.analyze_us", "core.for_input_us", "batch.encode_us",
}

// tracedJob is one job of the traced sample: a deck file (batch
// workloads) or inline deck text (serve-open).
type tracedJob struct {
	idx    int
	j      job
	nt     *net
	path   string
	inline string
}

// span is one timed layer call. Spans of one job share its index; the
// job itself is their parent.
type span struct {
	Job   int    `json:"job"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// walkStats accumulates a pass over the sample.
type walkStats struct {
	layer      [nLayers]time.Duration
	wall       time.Duration // summed job wall time, first layer start to encode end
	cpu        time.Duration
	hits, miss int
	encBytes   int
	jobs       int
	spans      []span
	records    [][]byte
}

// walk runs the sample through the layers' public functions in one
// goroutine, as one batch worker would: os.ReadFile → netlist.Parse →
// Fingerprint → rctree.Compile → Cache.MomentsCtx(3) →
// moments.ComputePRH → core.AnalyzeWithMoments → ForInput per sink →
// batch.WriteResult. With traced false it makes no clock reads, so
// its CPU time is the untraced baseline. AnalyzeWithMoments runs its
// own PRH sweep; ComputePRH is called once more on its own so that
// sweep's cost is visible.
func walk(sample []tracedJob, traced bool) (*walkStats, error) {
	ws := &walkStats{}
	cache := batch.NewCache()
	ctx := context.Background()
	epoch := time.Now()
	var t, jobStart time.Time
	begin := func() {
		if traced {
			t = time.Now()
		}
	}
	end := func(l, job int) {
		if traced {
			n := time.Now()
			ws.layer[l] += n.Sub(t)
			ws.spans = append(ws.spans, span{job, layerMetric[l], int64(t.Sub(epoch)), int64(n.Sub(epoch))})
			t = n
		}
	}
	cpu0 := processCPU()
	var buf bytes.Buffer
	for _, tj := range sample {
		if traced {
			jobStart = time.Now()
		}
		input, err := batch.ParseRise(tj.j.rise)
		if err != nil {
			return nil, err
		}
		begin()
		src := []byte(tj.inline)
		if tj.path != "" {
			if src, err = os.ReadFile(tj.path); err != nil {
				return nil, err
			}
		}
		end(lRead, tj.idx)
		begin()
		deck, err := netlist.Parse(bytes.NewReader(src))
		end(lParse, tj.idx)
		if err != nil {
			return nil, err
		}
		tree := deck.Tree
		begin()
		tree.Fingerprint()
		end(lFingerprint, tj.idx)
		begin()
		rctree.Compile(tree)
		end(lCompile, tj.idx)
		begin()
		ms, hit, err := cache.MomentsCtx(ctx, tree, 3)
		end(lMoments, tj.idx)
		if err != nil {
			return nil, err
		}
		begin()
		moments.ComputePRH(tree)
		end(lPRH, tj.idx)
		begin()
		a, err := core.AnalyzeWithMoments(ctx, tree, ms)
		end(lAnalyze, tj.idx)
		if err != nil {
			return nil, err
		}
		begin()
		sinks, err := sinkBounds(a, tj.j.sinks, input)
		end(lForInput, tj.idx)
		if err != nil {
			return nil, err
		}
		buf.Reset()
		res := batch.Result{Index: tj.idx, ID: tj.j.id, CacheHit: hit, Attempts: 1, Net: &batch.NetResult{Analysis: a, Sinks: sinks}}
		begin()
		err = batch.WriteResult(&buf, res)
		end(lEncode, tj.idx)
		if err != nil {
			return nil, err
		}
		if traced {
			ws.wall += t.Sub(jobStart)
		}
		if hit {
			ws.hits++
		} else {
			ws.miss++
		}
		ws.encBytes += buf.Len()
		ws.jobs++
		ws.records = append(ws.records, bytes.TrimRight(bytes.Clone(buf.Bytes()), "\n"))
	}
	ws.cpu = processCPU() - cpu0
	return ws, nil
}

// sinkBounds is the per-sink loop of a net job: look each sink up and,
// for a non-step input, evaluate the Corollary 2 window with ForInput.
func sinkBounds(a *core.Analysis, names []string, input signal.Signal) ([]batch.SinkBounds, error) {
	if names == nil {
		names = a.Tree.Names()
	}
	_, step := input.(signal.Step)
	out := make([]batch.SinkBounds, 0, len(names))
	for _, name := range names {
		i, ok := a.Tree.Index(name)
		if !ok {
			return nil, fmt.Errorf("no node %q", name)
		}
		sb := batch.SinkBounds{Node: name, Bounds: a.Bounds[i]}
		if !step {
			ib, err := a.ForInput(i, input)
			if err != nil {
				return nil, err
			}
			sb.Input = &ib
		}
		out = append(out, sb)
	}
	return out, nil
}

// processCPU is this process's user+system CPU so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// parseAllocs is the mean heap allocation count of one netlist.Parse
// over up to 50 jobs of the sample, measured in a pass of its own so
// the counter reads stay out of the timed walk.
func parseAllocs(sample []tracedJob) (float64, error) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	n := min(len(sample), 50)
	var total uint64
	for _, tj := range sample[:n] {
		src := []byte(tj.inline)
		if tj.path != "" {
			var err error
			if src, err = os.ReadFile(tj.path); err != nil {
				return 0, err
			}
		}
		r := bytes.NewReader(src)
		metrics.Read(s)
		before := s[0].Value.Uint64()
		if _, err := netlist.Parse(r); err != nil {
			return 0, err
		}
		metrics.Read(s)
		total += s[0].Value.Uint64() - before
	}
	return float64(total) / float64(n), nil
}

// traceSample picks the seeded sample of a workload's jobs: every job
// of about one net in four for sweep-small (so the sample keeps the
// workload's repeat pattern), every job for deep-nets, and every job of
// about one request in four for serve-open.
func traceSample(o options, dir string) ([]tracedJob, error) {
	var sample []tracedJob
	switch o.workload {
	case "serve-open":
		sc := newServeCorpus(o.seed)
		for k := 0; len(sample) < 300; k++ {
			if !sampled(o.seed, k, 4) {
				continue
			}
			req := sc.request(k)
			for _, j := range req.jobs {
				sample = append(sample, tracedJob{idx: len(sample), j: j, nt: req.net, inline: string(req.net.deck())})
			}
		}
		return sample, nil
	}
	c, err := buildCorpus(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	if _, err := c.write(dir); err != nil {
		return nil, err
	}
	for i, j := range c.jobs {
		if o.workload == "sweep-small" && !sampled(o.seed, j.net, 4) {
			continue
		}
		sample = append(sample, tracedJob{idx: i, j: j, nt: c.nets[j.net], path: c.deckPath(dir, j.net)})
	}
	return sample, nil
}

// runTraced is the --trace 1 run: alternating untraced and traced walks
// over the sample until seconds have passed, then (serve-open) a
// server run for the serve and generator metrics.
func runTraced(o options) (*outcome, error) {
	dir := filepath.Join(o.work, o.workload+"-trace")
	defer os.RemoveAll(dir)
	sample, err := traceSample(o, dir)
	if err != nil {
		return nil, err
	}
	allocs, err := parseAllocs(sample)
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: true}
	var traced walkStats
	var plainCPU time.Duration
	plainJobs := 0
	began := time.Now()
	for pass := 0; pass == 0 || time.Since(began) < o.seconds; pass++ {
		plain, err := walk(sample, false)
		if err != nil {
			return nil, err
		}
		plainCPU += plain.cpu
		plainJobs += plain.jobs
		tw, err := walk(sample, true)
		if err != nil {
			return nil, err
		}
		for l := range tw.layer {
			traced.layer[l] += tw.layer[l]
		}
		traced.wall += tw.wall
		traced.cpu += tw.cpu
		traced.hits += tw.hits
		traced.miss += tw.miss
		traced.encBytes += tw.encBytes
		traced.jobs += tw.jobs
		if pass == 0 {
			traced.spans = tw.spans
			out.attempted, out.failed = checkTraced(tw.records, sample)
		}
	}
	if out.failed > 0 {
		out.correct = false
	}
	if err := writeSpans(filepath.Join(o.work, o.workload+"-spans.ndjson"), traced.spans); err != nil {
		return nil, err
	}

	jobs := float64(traced.jobs)
	m := map[string]metric{}
	var attributed time.Duration
	for l, d := range traced.layer {
		m[layerMetric[l]] = metric{float64(d.Nanoseconds()) / 1e3 / jobs, "us"}
		attributed += d
	}
	attrFrac := float64(attributed) / float64(traced.wall)
	tracedCPU := float64(traced.cpu.Microseconds()) / 1e3 / jobs
	plainCPUms := float64(plainCPU.Microseconds()) / 1e3 / float64(plainJobs)
	m["netlist.parse_allocs"] = metric{allocs, "count"}
	m["batch.encode_bytes"] = metric{float64(traced.encBytes) / jobs, "B"}
	m["batch.cache_hit_ratio"] = metric{float64(traced.hits) / float64(traced.hits+traced.miss), "1"}
	m["trace.attributed_frac"] = metric{attrFrac, "1"}
	m["trace.cpu_ms_per_job"] = metric{tracedCPU, "ms"}
	m["trace.overhead_frac"] = metric{tracedCPU/plainCPUms - 1, "1"}
	// The serve and generator metrics do not apply to the batch
	// workloads, which report them as 0.
	for name, unit := range map[string]string{"serve.hot_tree_hit_ratio": "1", "serve.shed_frac": "1",
		"serve.rss_kb_per_distinct_net": "KiB", "serve.p99_ms": "ms", "gen.late_ms_p99": "ms", "gen.achieved_frac": "1"} {
		m[name] = metric{0, unit}
	}
	logf("traced %d jobs: %.1f ms wall per job, %.4f attributed, CPU %.3f ms/job traced vs %.3f untraced",
		traced.jobs, float64(traced.wall.Microseconds())/1e3/jobs, attrFrac, tracedCPU, plainCPUms)
	logSplit(m)
	if o.workload != "serve-open" && attrFrac < 0.95 {
		out.correct = false
		logf("trace.attributed_frac %.4f is below 0.95", attrFrac)
	}
	if o.workload == "serve-open" {
		if err := traceServe(o, m, out); err != nil {
			return nil, err
		}
	}
	out.metrics = m
	return out, nil
}

// checkTraced runs the output checks on the records the traced walk
// encoded, and returns how many were checked and how many failed.
func checkTraced(records [][]byte, sample []tracedJob) (int, int) {
	failed := 0
	for i, rec := range records {
		tj := sample[i]
		if _, err := checkResult(rec, tj.idx, tj.j, tj.nt); err != nil {
			failed++
			logf("traced record: %v", err)
		}
	}
	return len(records), failed
}

// logSplit prints each layer's share of the traced job time, the
// largest layer, and the shares the workload split is stated in.
func logSplit(m map[string]metric) {
	total, largest := 0.0, layerMetric[0]
	for _, name := range layerMetric {
		total += m[name].Value
		if m[name].Value > m[largest].Value {
			largest = name
		}
	}
	for _, name := range layerMetric {
		logf("  %-22s %10.1f us/job %6.1f%%", name, m[name].Value, 100*m[name].Value/total)
	}
	logf("largest layer %s; core.analyze_us %.1f%% of job time; netlist.parse_us + batch.encode_us %.1f%%",
		largest, 100*m["core.analyze_us"].Value/total,
		100*(m["netlist.parse_us"].Value+m["batch.encode_us"].Value)/total)
}

// writeSpans stores the traced spans as NDJSON in the work directory.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceServe runs elmored at the base rate for the run's seconds and
// fills the serve and generator metrics from /metrics deltas, /proc and
// the generator's own timing.
func traceServe(o options, m map[string]metric, out *outcome) error {
	s, err := openServe(o)
	if err != nil {
		return err
	}
	s.step(0) // warm-up
	before, err := s.srv.scrape(s.client)
	if err != nil {
		s.srv.kill()
		return err
	}
	rss0 := s.srv.rssKB()
	st := s.step(1)
	rss1 := s.srv.rssKB()
	after, err := s.srv.scrape(s.client)
	if _, stopErr := s.srv.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	d := func(name string) float64 { return after[name] - before[name] }
	distinct := 0
	for k := s.plan.first[1]; k < s.plan.first[1]+st.sent; k++ {
		if s.an.reqs[k].hot < 0 {
			distinct++
		}
	}
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	m["serve.hot_tree_hit_ratio"] = metric{ratio(d("serve_hot_tree_hits"), d("serve_hot_tree_misses")), "1"}
	m["serve.shed_frac"] = metric{d("serve_requests_shed") / d("serve_requests"), "1"}
	m["serve.rss_kb_per_distinct_net"] = metric{float64(rss1-rss0) / float64(max(distinct, 1)), "KiB"}
	m["batch.cache_hit_ratio"] = metric{ratio(d("batch_cache_hits"), d("batch_cache_misses")), "1"}
	m["serve.p99_ms"] = metric{quantile(st.lat, 0.99), "ms"}
	m["gen.late_ms_p99"] = metric{quantile(st.late, 0.99), "ms"}
	m["gen.achieved_frac"] = metric{st.achieved() / st.offered, "1"}
	out.attempted += st.sent
	out.failed += st.sent - st.ok
	s.an.report(out)
	if st.achieved() < 0.95*st.offered {
		out.correct = false
		logf("invalid run: achieved %.1f of %.1f offered req/s", st.achieved(), st.offered)
	}
	logf("serve: %d requests, p50 %.2f ms, p99 %.2f ms, %d distinct nets, RSS %d -> %d KiB",
		st.sent, quantile(st.lat, 0.5), quantile(st.lat, 0.99), distinct, rss0, rss1)
	return nil
}

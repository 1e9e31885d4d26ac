package main

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serve-open traffic: each request is one inline ~200-node net under
// the three sweep inputs with three named sinks. hotShare of requests
// draw from a hot set of hotNets nets; the rest carry a net never sent
// before.
const (
	hotNets  = 16
	hotShare = 0.75

	// baseRate is the offered request rate latency is read at;
	// sloSteps are the offered rates slo_rps chooses from.
	baseRate = 100.0
	// sloLimitMS is the p99 latency limit of the service objective.
	sloLimitMS = 100.0
	// warmup is offered at baseRate before measuring, so connections,
	// the hot set and the runtime are warm.
	warmup = 500 * time.Millisecond
	// setups is how many times a run launches elmored to time set-up.
	setups = 3
)

var sloSteps = []float64{baseRate, 2 * baseRate, 3 * baseRate}

// serveReq is one generated /v1/analyze request.
type serveReq struct {
	body []byte
	jobs []job
	net  *net
	hot  int // hot-set index, or -1 for a distinct net
}

// serveCorpus generates the request stream of one seed. A hot net's
// requests are byte-identical, so they share one body.
type serveCorpus struct {
	seed int64
	hot  []serveReq
}

func newServeCorpus(seed int64) *serveCorpus {
	sc := &serveCorpus{seed: seed}
	r := newRNG(seed, 3)
	for k := 0; k < hotNets; k++ {
		nt := randomNet(r, fmt.Sprintf("hot%02d", k), sweepNodesMin+r.intn(sweepNodesMax-sweepNodesMin+1), 0.5)
		sc.hot = append(sc.hot, newServeReq(nt, namedSinks(r, nt.n()), k))
	}
	return sc
}

// newServeReq builds the request for one net: one job per sweep input,
// each with the net inline and the same named sinks.
func newServeReq(nt *net, sinks []string, hot int) serveReq {
	req := serveReq{net: nt, hot: hot}
	deck := string(nt.deck())
	for _, rise := range rises {
		j := job{id: rise, rise: rise, sinks: sinks}
		line, _ := json.Marshal(jobSpec{ID: j.id, Netlist: deck, Sinks: sinks, Rise: rise})
		req.body = append(append(req.body, line...), '\n')
		req.jobs = append(req.jobs, j)
	}
	return req
}

// request returns request k of the stream; the same seed and k always
// give the same bytes.
func (sc *serveCorpus) request(k int) serveReq {
	r := newRNG(sc.seed, 1<<32+uint64(k))
	if r.float() < hotShare {
		return sc.hot[r.intn(hotNets)]
	}
	nt := randomNet(r, fmt.Sprintf("d%06d", k), sweepNodesMin+r.intn(sweepNodesMax-sweepNodesMin+1), 0.5)
	return newServeReq(nt, namedSinks(r, nt.n()), -1)
}

// requests generates requests [0, n) and reports their digest and the
// share that repeat a net sent earlier in the stream.
func (sc *serveCorpus) requests(n int) ([]serveReq, string, float64) {
	reqs := make([]serveReq, n)
	h := sha256.New()
	seen := make(map[int]bool)
	rep := 0
	for k := range reqs {
		reqs[k] = sc.request(k)
		h.Write(reqs[k].body)
		if hk := reqs[k].hot; hk >= 0 {
			if seen[hk] {
				rep++
			}
			seen[hk] = true
		}
	}
	return reqs, hex.EncodeToString(h.Sum(nil)), float64(rep) / float64(n)
}

// elmored is a running server under test.
type elmored struct {
	cmd   *exec.Cmd
	url   string
	setup time.Duration // launch to first healthy /healthz
}

// startElmored launches elmored on a kernel-chosen localhost port and
// waits until /healthz answers 200.
func startElmored(bin string, client *http.Client) (*elmored, error) {
	cmd := exec.Command(filepath.Join(bin, "elmored"), "-addr", "127.0.0.1:0")
	// The server must not outlive the benchmark, even one that dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	e := &elmored{cmd: cmd}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	first := make(chan string, 1)
	go func() {
		br := bufio.NewReader(errPipe)
		line, _ := br.ReadString('\n')
		first <- line
		io.Copy(io.Discard, br)
	}()
	line := <-first
	_, rest, found := strings.Cut(line, "listening on http://")
	a, _, ok := strings.Cut(rest, " ")
	if !found || !ok {
		e.kill()
		return nil, fmt.Errorf("elmored did not report its address: %q", line)
	}
	e.url = "http://" + a
	for {
		resp, err := client.Get(e.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			e.kill()
			return nil, fmt.Errorf("elmored not healthy after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	e.setup = time.Since(start)
	return e, nil
}

func (e *elmored) kill() {
	e.cmd.Process.Kill()
	e.cmd.Wait()
}

// stop drains elmored with SIGTERM, waits for it and returns its peak
// resident set in KiB.
func (e *elmored) stop() (int64, error) {
	e.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- e.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
		// A SIGTERM that lands before elmored installs its handler (it
		// can answer /healthz a moment earlier) kills it outright; that
		// is a clean stop too.
		if ws, ok := e.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			err = nil
		}
	case <-time.After(20 * time.Second):
		e.cmd.Process.Kill()
		err = fmt.Errorf("elmored ignored SIGTERM: %v", <-done)
	}
	var rss int64
	if ru, ok := e.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	return rss, err
}

// cpu returns the server's user+system CPU so far, from /proc (whose
// tick is 1/100 s on Linux).
func (e *elmored) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", e.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stt, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+stt) * 10 * time.Millisecond, nil
}

// rssKB returns the server's current resident set in KiB.
func (e *elmored) rssKB() int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", e.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

// scrape reads the server's Prometheus exposition into name -> value.
func (e *elmored) scrape(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(e.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				m[name] = v
			}
		}
	}
	return m, sc.Err()
}

// analyzer posts requests to a server. Responses are kept and checked
// after their step, so checking takes no CPU from the server while it
// is measured.
type analyzer struct {
	client *http.Client
	url    string
	reqs   []serveReq
	seed   int64
	bodies [][]byte // response of each request, until checked

	mu        sync.Mutex
	firstFail error
	checkErrs int
	firstErr  error
}

func (a *analyzer) do(k int) error {
	resp, err := a.client.Post(a.url+"/v1/analyze", "application/x-ndjson", bytes.NewReader(a.reqs[k].body))
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("request %d: HTTP %d: %s", k, resp.StatusCode, bytes.TrimSpace(body))
		}
		if err == nil {
			a.bodies[k] = body
			return nil
		}
	}
	a.mu.Lock()
	a.firstFail = cmp.Or(a.firstFail, err)
	a.mu.Unlock()
	return err
}

// check runs the output checks on the responses to requests [lo, hi)
// and returns how many failed them. Requests that got no response were
// already counted as failed by their step.
func (a *analyzer) check(lo, hi int) int {
	bad := 0
	for k := lo; k < hi; k++ {
		if a.bodies[k] == nil {
			continue
		}
		if err := a.checkResponse(k, a.bodies[k]); err != nil {
			bad++
			a.firstErr = cmp.Or(a.firstErr, err)
		}
		a.bodies[k] = nil
	}
	a.checkErrs += bad
	return bad
}

// checkResponse checks one /v1/analyze response: a result line per job
// in order, each passing checkResult, a clean serve_summary, and for a
// seeded sample of requests one sink against the oracles.
func (a *analyzer) checkResponse(k int, body []byte) error {
	req := a.reqs[k]
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte{'\n'})
	if len(lines) != len(req.jobs)+1 {
		return fmt.Errorf("request %d: %d response lines, want %d results and a summary", k, len(lines), len(req.jobs))
	}
	var sum struct {
		Record string `json:"record"`
		Total  int    `json:"total"`
		Failed int    `json:"failed"`
	}
	if err := json.Unmarshal(lines[len(req.jobs)], &sum); err != nil || sum.Record != "serve_summary" || sum.Total != len(req.jobs) || sum.Failed != 0 {
		return fmt.Errorf("request %d: bad summary %s", k, lines[len(req.jobs)])
	}
	for i, j := range req.jobs {
		rec, err := checkResult(lines[i], i, j, req.net)
		if err != nil {
			return fmt.Errorf("request %d: %w", k, err)
		}
		if i == k%len(req.jobs) && sampled(a.seed, k, oracleEvery["serve-open"]) {
			t, err := req.net.tree()
			if err != nil {
				return err
			}
			if err := checkOracle(t, rec.Sinks[k%len(rec.Sinks)]); err != nil {
				return fmt.Errorf("request %d: %w", k, err)
			}
		}
	}
	return nil
}

// conns is the generator's connection budget: one per CPU.
func conns() int { return runtime.NumCPU() }

func newClient() *http.Client {
	n := conns()
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

// servePlan lays out a run's steps over the request stream: a warm-up
// and the base step, then (untraced) the higher SLO steps.
type servePlan struct {
	rates []float64
	durs  []time.Duration
	first []int
	total int
}

func planServe(seconds time.Duration, traced bool) servePlan {
	var p servePlan
	add := func(rate float64, d time.Duration) {
		p.rates = append(p.rates, rate)
		p.durs = append(p.durs, d)
		p.first = append(p.first, p.total)
		p.total += int(rate * d.Seconds())
	}
	add(baseRate, warmup)
	if traced {
		add(baseRate, seconds)
		return p
	}
	// Three fifths of the run measure the base rate; the higher steps
	// share the rest.
	add(baseRate, seconds*3/5)
	for _, r := range sloSteps[1:] {
		add(r, seconds*2/5/time.Duration(len(sloSteps)-1))
	}
	return p
}

// serveSession is elmored plus the generator, set up for one run.
type serveSession struct {
	srv    *elmored
	an     *analyzer
	plan   servePlan
	setup  []float64
	client *http.Client
}

// openServe generates the run's requests and starts elmored, launching
// it setups times to time set-up (the last launch is kept).
func openServe(o options) (*serveSession, error) {
	plan := planServe(o.seconds, o.trace)
	sc := newServeCorpus(o.seed)
	reqs, digest, rep := sc.requests(plan.total)
	logf("corpus serve-open seed %d: %d requests, %d hot nets, repeated-net share %.4f (hot share %.2f), sha256 %s",
		o.seed, len(reqs), hotNets, rep, hotShare, digest)
	s := &serveSession{plan: plan, client: newClient()}
	for i := 0; i < setups; i++ {
		srv, err := startElmored(o.bin, s.client)
		if err != nil {
			return nil, err
		}
		s.setup = append(s.setup, srv.setup.Seconds())
		if i < setups-1 {
			if _, err := srv.stop(); err != nil {
				return nil, err
			}
			continue
		}
		s.srv = srv
	}
	s.an = &analyzer{client: s.client, url: s.srv.url, reqs: reqs, seed: o.seed, bodies: make([][]byte, len(reqs))}
	return s, nil
}

// report logs the first failed request and any output-check failures,
// which make the run incorrect.
func (a *analyzer) report(out *outcome) {
	if a.firstFail != nil {
		logf("first failed request: %v", a.firstFail)
	}
	if a.checkErrs > 0 {
		out.correct = false
		logf("%d responses failed the output checks; first: %v", a.checkErrs, a.firstErr)
	}
}

// step runs step i of the plan, then checks its responses; a response
// that fails the checks counts as a failed request.
func (s *serveSession) step(i int) *stepStats {
	runtime.GC()
	st := runStep(conns(), s.plan.rates[i], s.plan.durs[i], s.plan.first[i], s.an.do)
	st.ok -= s.an.check(s.plan.first[i], s.plan.first[i]+st.sent)
	return st
}

// runServeWorkload measures serve-open end to end.
func runServeWorkload(o options) (*outcome, error) {
	s, err := openServe(o)
	if err != nil {
		return nil, err
	}
	s.step(0) // warm-up
	cpu0, err := s.srv.cpu()
	if err != nil {
		s.srv.kill()
		return nil, err
	}
	steps := []*stepStats{s.step(1)}
	cpu1, err := s.srv.cpu()
	if err != nil {
		s.srv.kill()
		return nil, err
	}
	for i := 2; i < len(s.plan.rates); i++ {
		steps = append(steps, s.step(i))
	}
	rssKB, stopErr := s.srv.stop()
	if stopErr != nil {
		return nil, stopErr
	}

	out := &outcome{correct: true}
	slo := 0.0
	for i, st := range steps {
		out.attempted += st.sent
		out.failed += st.sent - st.ok
		pass := st.meets(sloLimitMS, conns())
		if pass {
			slo = st.achieved()
		}
		logf("step %.0f req/s: achieved %.1f, ok %d/%d, p50 %.2f ms, p99 %.2f ms, late p99 %.3f ms, backlog %d, meets SLO %v",
			st.offered, st.achieved(), st.ok, st.sent, quantile(st.lat, 0.5), quantile(st.lat, 0.99),
			quantile(st.late, 0.99), st.backlog, pass)
		if i == 0 && st.achieved() < 0.95*st.offered {
			out.correct = false
			logf("invalid run: base step achieved %.1f of %.1f offered req/s", st.achieved(), st.offered)
		}
	}
	s.an.report(out)
	base := steps[0]
	jobs := float64(base.ok * len(rises))
	if slo == 0 {
		// No step met the objective: report the base step's achieved
		// rate divided by how far its p99 overshot, never zero.
		slo = base.achieved() * sloLimitMS / max(quantile(base.lat, 0.99), sloLimitMS)
	}
	out.metrics = map[string]metric{
		"setup_s":        {median(s.setup), "s"},
		"jobs_per_s":     {base.achieved() * float64(len(rises)), "1/s"},
		"cpu_ms_per_job": {float64((cpu1 - cpu0).Microseconds()) / 1e3 / jobs, "ms"},
		"peak_rss_mb":    {float64(rssKB) / 1024, "MB"},
		"success_frac":   {out.successFrac(), "1"},
		"p50_ms":         {quantile(base.lat, 0.50), "ms"},
		"slo_rps":        {slo, "1/s"},
	}
	return out, nil
}

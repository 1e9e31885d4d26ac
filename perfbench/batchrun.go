package main

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"elmore/internal/rctree"
)

// procRun is one boundstat process, timed from outside.
type procRun struct {
	first, last time.Duration // arrival of the first and last result line, from launch
	cpu         time.Duration // user + system CPU of the child
	maxRSSKB    int64
	out         []byte
}

// runBoundstat runs `boundstat -jobs jobs.ndjson` in dir and times the
// arrival of its result lines. outCap sizes the output buffer, so the
// benchmark's own process does not grow it (and collect garbage) while
// the program runs.
func runBoundstat(bin, dir string, outCap int) (*procRun, error) {
	cmd := exec.Command(filepath.Join(bin, "boundstat"), "-jobs", "jobs.ndjson", "-progress", "0")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	pr := &procRun{out: make([]byte, 0, outCap)}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	buf := make([]byte, 256<<10)
	for {
		n, rerr := stdout.Read(buf)
		if n > 0 {
			pr.out = append(pr.out, buf[:n]...)
			if bytes.IndexByte(buf[:n], '\n') >= 0 {
				now := time.Since(start)
				if pr.first == 0 {
					pr.first = now
				}
				pr.last = now
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, rerr
		}
	}
	werr := cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		pr.cpu = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
		pr.maxRSSKB = ru.Maxrss
	}
	if werr != nil {
		return pr, fmt.Errorf("boundstat: %v: %s", werr, lastLine(stderr.Bytes()))
	}
	return pr, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// oracleEvery sets the oracle sample rate per workload: one job in
// every oracleEvery, one sink per sampled job. Deep chains cost
// O(N²) per oracle sink, so they are sampled sparsely.
var oracleEvery = map[string]int{"sweep-small": 25, "deep-nets": 8, "serve-open": 16}

// checkBatchOutput checks a boundstat run's NDJSON output against the
// corpus: one result line per job in job order, every line passing
// checkResult, and one sink of about one job in every (none when every
// is 0) matching the oracles. It returns the per-job elapsed times and
// the number of failed jobs.
func checkBatchOutput(out []byte, c *corpus, seed int64, every int) ([]float64, int, error) {
	oracle := func(i int) bool { return every > 0 && sampled(seed, i, every) }
	trees := make(map[int]*rctree.Tree)
	for i, j := range c.jobs {
		if oracle(i) && trees[j.net] == nil {
			t, err := c.nets[j.net].tree()
			if err != nil {
				return nil, len(c.jobs), err
			}
			trees[j.net] = t
		}
	}
	lines := bytes.Split(bytes.TrimRight(out, "\n"), []byte{'\n'})
	if len(out) == 0 {
		lines = nil
	}
	if len(lines) != len(c.jobs) {
		return nil, len(c.jobs), fmt.Errorf("%d result lines for %d jobs", len(lines), len(c.jobs))
	}
	// Two halves in parallel: the program is not running while its
	// output is checked, so both CPUs are free.
	elapsed := make([]float64, len(lines))
	errs := make([]error, len(lines))
	var wg sync.WaitGroup
	for half := 0; half < 2; half++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				j := c.jobs[i]
				rec, err := checkResult(lines[i], i, j, c.nets[j.net])
				if err == nil && oracle(i) {
					err = checkOracle(trees[j.net], rec.Sinks[i%len(rec.Sinks)])
				}
				if errs[i] = err; err == nil {
					elapsed[i] = float64(rec.ElapsedNS) / 1e6
				}
			}
		}(half*len(lines)/2, (half+1)*len(lines)/2)
	}
	wg.Wait()
	failed := 0
	var firstErr error
	ok := elapsed[:0]
	for i, err := range errs {
		if err != nil {
			failed++
			firstErr = cmp.Or(firstErr, err)
			continue
		}
		ok = append(ok, elapsed[i])
	}
	return ok, failed, firstErr
}

// runBatchWorkload measures a boundstat workload: it writes the corpus,
// then runs one boundstat process after another over it until the
// processes have run for seconds (at least three), checking every
// process's output.
func runBatchWorkload(o options) (*outcome, error) {
	c, err := buildCorpus(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.work, o.workload)
	digest, err := c.write(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	logf("corpus %s seed %d: %d nets, %d jobs, repeated-net share %.4f, sha256 %s",
		o.workload, o.seed, len(c.nets), len(c.jobs), c.repeatFrac(), digest)

	out := &outcome{correct: true}
	var setup, rate, cpu, rss []float64
	var p50 []float64 // per process, of the job times the records report
	var measured time.Duration
	outCap := 1 << 20
	for rep := 0; rep < 3 || measured < o.seconds; rep++ {
		runtime.GC()
		pr, err := runBoundstat(o.bin, dir, outCap)
		if pr == nil {
			return nil, err
		}
		measured += pr.last
		outCap = max(outCap, len(pr.out)+len(pr.out)/8)
		every := 0 // the oracles run on the first process's output
		if rep == 0 {
			every = oracleEvery[o.workload]
		}
		el, failed, cerr := checkBatchOutput(pr.out, c, o.seed, every)
		out.attempted += len(c.jobs)
		out.failed += failed
		if err != nil || cerr != nil {
			out.correct = false
			logf("rep %d: run error %v, check error %v", rep, err, cerr)
		}
		n := len(c.jobs)
		setup = append(setup, pr.first.Seconds())
		rate = append(rate, float64(n-1)/(pr.last-pr.first).Seconds())
		cpu = append(cpu, float64(pr.cpu.Microseconds())/1e3/float64(n))
		rss = append(rss, float64(pr.maxRSSKB)/1024)
		p50 = append(p50, quantile(el, 0.50))
		logf("rep %d: setup %.4f s, %.1f jobs/s, %.4f ms CPU/job, p50 %.3f ms, p99 %.3f ms",
			rep, setup[rep], rate[rep], cpu[rep], p50[rep], quantile(el, 0.99))
	}
	jps := median(rate)
	out.metrics = map[string]metric{
		"setup_s":        {median(setup), "s"},
		"jobs_per_s":     {jps, "1/s"},
		"cpu_ms_per_job": {median(cpu), "ms"},
		"peak_rss_mb":    {median(rss), "MB"},
		"success_frac":   {out.successFrac(), "1"},
		"p50_ms":         {median(p50), "ms"},
		// A batch has no offered rate: its sustainable rate is the
		// closed-loop throughput.
		"slo_rps": {jps, "1/s"},
	}
	logf("%d boundstat processes, %d jobs checked, %d failed", len(setup), out.attempted, out.failed)
	return out, nil
}

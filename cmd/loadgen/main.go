// Command loadgen is the sustained-load and chaos harness for elmored.
// It drives /v1/analyze at a configured request rate across simulated
// tenants, scores every admitted request against declared latency
// objectives, and asserts the service's overload contract: shed
// requests carry Retry-After, admitted streams deliver every job
// exactly once, and the -slo objectives hold for what was admitted.
//
// Sustained overload (run at 2x the server's admitted capacity, expect
// clean sheds and intact SLOs):
//
//	loadgen -url http://127.0.0.1:8080 -rate 40 -duration 5s \
//	        -tenants 2 -jobs 5 -slo p99=500ms -expect-shed
//
// Resume verification (after a mid-flight SIGTERM and restart, re-POST
// the same journaled batch until it completes; the union of all
// streams must be exactly-once):
//
//	loadgen -url http://127.0.0.1:8080 -resume mybatch -jobs 200
//
// Chaos comes from the server side: start elmored with ELMORE_FAULTS
// covering serve.accept/serve.decode/serve.admit (and the batch.*
// points) and loadgen's assertions hold the service to its contract
// while the faults fire. A JSON report lands on stdout either way; a
// violated assertion makes the exit status nonzero.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"elmore/internal/cliutil"
	"elmore/internal/netlist"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// specBody renders n inline-netlist job specs drawn from a small pool
// of distinct random decks (so the server's cache sees repeats,
// like a real corner sweep would produce).
func specBody(seed int64, n, nets, maxNodes int) string {
	if nets < 1 {
		nets = 1
	}
	decks := make([]string, nets)
	for i := range decks {
		tree := topo.Random(seed+int64(i), topo.RandomOptions{N: 2 + (i+maxNodes)%maxNodes})
		decks[i] = netlist.Format(tree, fmt.Sprintf("loadgen net %d", i))
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		line, _ := json.Marshal(map[string]any{
			"id":      fmt.Sprintf("j%d", i),
			"netlist": decks[i%nets],
		})
		sb.Write(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// outcome is one request's scoring.
type outcome struct {
	status       int
	latency      time.Duration
	retryAfter   bool // Retry-After header present on a shed
	exactlyOnce  bool // stream delivered each sent job exactly once
	interrupted  bool
	transportErr bool
}

// summaryLine mirrors elmored's trailing serve_summary record.
type summaryLine struct {
	Record      string `json:"record"`
	Total       int    `json:"total"`
	Emitted     int    `json:"emitted"`
	Failed      int    `json:"failed"`
	Skipped     int    `json:"skipped"`
	Requeued    int    `json:"requeued"`
	Interrupted bool   `json:"interrupted"`
}

// drive POSTs one /v1/analyze request and scores the streamed reply.
// ids collects delivered job IDs when non-nil (resume mode).
func drive(client *http.Client, url, tenant, deadline, batchID, body string, sent int, ids map[string]int) outcome {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/analyze", strings.NewReader(body))
	if err != nil {
		return outcome{transportErr: true}
	}
	req.Header.Set("X-API-Key", tenant)
	if deadline != "" {
		req.Header.Set("X-Elmore-Deadline", deadline)
	}
	if batchID != "" {
		req.Header.Set("X-Batch-ID", batchID)
	}
	began := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return outcome{transportErr: true}
	}
	defer resp.Body.Close()
	out := outcome{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		out.retryAfter = resp.Header.Get("Retry-After") != ""
		io.Copy(io.Discard, resp.Body)
		out.latency = time.Since(began)
		return out
	}
	seen := map[string]int{}
	var sum summaryLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var m struct {
			Record string `json:"record"`
			ID     string `json:"id"`
		}
		if json.Unmarshal(sc.Bytes(), &m) != nil {
			out.transportErr = true
			return out
		}
		if m.Record == "serve_summary" {
			json.Unmarshal(sc.Bytes(), &sum)
			break
		}
		seen[m.ID]++
		if ids != nil {
			ids[m.ID]++
		}
	}
	if sc.Err() != nil {
		out.transportErr = true
		return out
	}
	out.latency = time.Since(began)
	out.interrupted = sum.Interrupted
	// Exactly-once within one completed stream: every sent job appears
	// once. Interrupted streams are scored by the resume loop instead.
	out.exactlyOnce = true
	if !sum.Interrupted {
		if len(seen)+sum.Skipped != sent {
			out.exactlyOnce = false
		}
		for _, n := range seen {
			if n != 1 {
				out.exactlyOnce = false
			}
		}
	}
	return out
}

// report is the JSON verdict loadgen prints.
type report struct {
	Sent         int     `json:"sent"`
	OK           int     `json:"ok"`
	Shed429      int     `json:"shed_429"`
	Shed503      int     `json:"shed_503"`
	OtherErrors  int     `json:"other_errors"`
	Transport    int     `json:"transport_errors"`
	MissingRetry int     `json:"shed_missing_retry_after"`
	NotOnce      int     `json:"exactly_once_violations"`
	Interrupted  int     `json:"interrupted_streams"`
	P50MS        float64 `json:"latency_p50_ms"`
	P99MS        float64 `json:"latency_p99_ms"`
	SLOPass      bool    `json:"slo_pass"`
	SLODetail    string  `json:"slo_detail,omitempty"`
	Resumes      int     `json:"resumes,omitempty"`
	Pass         bool    `json:"pass"`
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url        = fs.String("url", "http://127.0.0.1:8080", "elmored base URL")
		rate       = fs.Float64("rate", 10, "requests per second to offer")
		duration   = fs.Duration("duration", 5*time.Second, "sustained-load run length")
		tenants    = fs.Int("tenants", 1, "simulated tenants (round-robin X-API-Key)")
		jobs       = fs.Int("jobs", 5, "job specs per request")
		nets       = fs.Int("nets", 4, "distinct random decks cycled through the jobs")
		maxNodes   = fs.Int("max-nodes", 12, "max nodes per random deck")
		seed       = fs.Int64("seed", 1, "deck generation seed")
		deadline   = fs.String("deadline", "", "per-request X-Elmore-Deadline (empty = server default)")
		sloSpec    = fs.String("slo", "", "objectives admitted requests must meet, e.g. p99=500ms")
		expectShed = fs.Bool("expect-shed", false, "fail unless at least one request was shed (overload runs)")
		resumeID   = fs.String("resume", "", "resume mode: re-POST batch `id` until complete, assert exactly-once union")
		maxResumes = fs.Int("max-resumes", 20, "resume mode: give up after this many attempts")
	)
	fs.Bool("version", false, "print version information and exit") // parity with the other cmds
	if err := fs.Parse(args); err != nil {
		return err
	}
	if vf := fs.Lookup("version"); vf != nil && vf.Value.String() == "true" {
		fmt.Fprintln(stdout, cliutil.Version("loadgen"))
		return nil
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *rate <= 0 || *duration <= 0 || *tenants < 1 || *jobs < 1 || *maxResumes < 1 {
		return fmt.Errorf("-rate, -duration, -tenants, -jobs and -max-resumes must be positive")
	}
	slos, err := telemetry.ParseSLOs(*sloSpec)
	if err != nil {
		return fmt.Errorf("-slo: %w", err)
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	body := specBody(*seed, *jobs, *nets, *maxNodes)

	var rep report
	if *resumeID != "" {
		rep = runResume(client, *url, *deadline, *resumeID, body, *jobs, *maxResumes)
	} else {
		rep = runSustained(client, *url, *deadline, body, *jobs, *rate, *duration, *tenants, slos)
	}
	if *expectShed && rep.Shed429+rep.Shed503 == 0 {
		rep.Pass = false
		fmt.Fprintln(stderr, "loadgen: -expect-shed: no requests were shed")
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !rep.Pass {
		return errors.New("assertions failed (see report)")
	}
	return nil
}

// runSustained offers requests at the configured rate and scores them.
func runSustained(client *http.Client, url, deadline, body string, jobs int, rate float64, duration time.Duration, tenants int, slos []telemetry.SLO) report {
	interval := time.Duration(float64(time.Second) / rate)
	stop := time.Now().Add(duration)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		outcomes []outcome
	)
	for i := 0; time.Now().Before(stop); i++ {
		tenant := fmt.Sprintf("tenant-%d", i%tenants)
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := drive(client, url, tenant, deadline, "", body, jobs, nil)
			mu.Lock()
			outcomes = append(outcomes, out)
			mu.Unlock()
		}()
		time.Sleep(interval)
	}
	wg.Wait()

	rep := report{Sent: len(outcomes), Pass: true, SLOPass: true}
	var lat []time.Duration
	for _, o := range outcomes {
		switch {
		case o.transportErr:
			rep.Transport++
			rep.Pass = false
		case o.status == http.StatusOK:
			rep.OK++
			lat = append(lat, o.latency)
			if o.interrupted {
				rep.Interrupted++
			} else if !o.exactlyOnce {
				rep.NotOnce++
				rep.Pass = false
			}
		case o.status == http.StatusTooManyRequests:
			rep.Shed429++
			if !o.retryAfter {
				rep.MissingRetry++
				rep.Pass = false
			}
		case o.status == http.StatusServiceUnavailable:
			rep.Shed503++
			if !o.retryAfter {
				rep.MissingRetry++
				rep.Pass = false
			}
		default:
			rep.OtherErrors++
			rep.Pass = false
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rep.P50MS = float64(quantile(lat, 0.50)) / float64(time.Millisecond)
	rep.P99MS = float64(quantile(lat, 0.99)) / float64(time.Millisecond)
	var violations []string
	for _, s := range slos {
		got := quantile(lat, s.Quantile)
		if got > s.Target {
			violations = append(violations, fmt.Sprintf("%s=%v > %v", s.Name, got, s.Target))
		}
	}
	if len(violations) > 0 {
		rep.SLOPass, rep.Pass = false, false
		rep.SLODetail = strings.Join(violations, "; ")
	}
	return rep
}

// runResume re-POSTs one journaled batch until the server reports it
// complete, then asserts the union of every stream is exactly-once.
func runResume(client *http.Client, url, deadline, batchID, body string, jobs, maxResumes int) report {
	rep := report{Pass: true, SLOPass: true}
	ids := map[string]int{}
	for attempt := 0; attempt < maxResumes; attempt++ {
		rep.Sent++
		out := drive(client, url, "resume", deadline, batchID, body, jobs, ids)
		switch {
		case out.transportErr:
			rep.Transport++
			time.Sleep(200 * time.Millisecond) // server may be restarting
			continue
		case out.status == http.StatusOK:
			rep.OK++
			rep.Resumes = attempt
			if out.interrupted {
				rep.Interrupted++
				continue
			}
		case out.status == http.StatusTooManyRequests || out.status == http.StatusServiceUnavailable:
			if out.status == http.StatusTooManyRequests {
				rep.Shed429++
			} else {
				rep.Shed503++
			}
			if !out.retryAfter {
				rep.MissingRetry++
				rep.Pass = false
			}
			time.Sleep(300 * time.Millisecond)
			continue
		default:
			rep.OtherErrors++
			rep.Pass = false
			return rep
		}
		// Completed: every job delivered exactly once across all streams.
		for i := 0; i < jobs; i++ {
			if n := ids[fmt.Sprintf("j%d", i)]; n != 1 {
				rep.NotOnce++
				rep.Pass = false
			}
		}
		return rep
	}
	rep.Pass = false
	return rep
}

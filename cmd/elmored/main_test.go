package main

import (
	"bytes"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuf is a goroutine-safe bytes.Buffer for capturing run()'s stderr
// while the test polls it for the listen line.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRe = regexp.MustCompile(`listening on (http://[^ ]+)`)

// TestRunServesMetricsAndExitsZeroOnSIGTERM drives main's run() with no
// observability flags: /metrics must still be a live registry (the
// one-shot CLIs' nil-registry default would serve an empty page), and
// SIGTERM must drain and return nil — the exit-0 contract.
func TestRunServesMetricsAndExitsZeroOnSIGTERM(t *testing.T) {
	var stderr syncBuf
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-slo", "p99=1s"}, io.Discard, &stderr)
	}()

	var url string
	for i := 0; i < 100; i++ {
		if m := listenRe.FindStringSubmatch(stderr.String()); m != nil {
			url = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v\n%s", err, stderr.String())
		case <-time.After(20 * time.Millisecond):
		}
	}
	if url == "" {
		t.Fatalf("no listen line:\n%s", stderr.String())
	}

	resp, err := http.Post(url+"/v1/analyze", "application/x-ndjson", strings.NewReader(specLine("m1")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d: %s", resp.StatusCode, body)
	}

	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"serve_requests 1", "serve_jobs 1", "serve_slo_p99_good 1", "# HELP serve_requests"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}
	if !strings.Contains(stderr.String(), "drained clean") {
		t.Errorf("drain message missing:\n%s", stderr.String())
	}
}

// TestRunRejectsBadFlags: validation happens before any listener opens,
// and a rejected numeric flag is named in the error.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-rate", "-1"}, "-rate"},
		{[]string{"-burst", "-1"}, "-burst"},
		{[]string{"-max-inflight", "-1"}, "-max-inflight"},
		{[]string{"-max-tenants", "-1"}, "-max-tenants"},
		{[]string{"-tenant-breaker", "-1"}, "-tenant-breaker"},
		{[]string{"-max-deadline", "-1s"}, "-max-deadline"},
		{[]string{"-max-jobs", "-1"}, "-max-jobs"},
		{[]string{"-max-body", "-1"}, "-max-body"},
		{[]string{"-cache-mb", "-1"}, "-cache-mb"},
		{[]string{"-drain-timeout", "-1s"}, "-drain-timeout"},
		{[]string{"-workers", "-1"}, "-workers"},
		{[]string{"-timeout", "-1s"}, "-timeout"},
		{[]string{"-retries", "-1"}, "-retries"},
		{[]string{"-breaker", "-1"}, "-breaker"},
		{[]string{"-slo", "p0=1s"}, "-slo"},
		{[]string{"positional"}, "unexpected arguments"},
	} {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: err = %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
}

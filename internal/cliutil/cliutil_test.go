package cliutil

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"elmore/internal/health"
	"elmore/internal/telemetry"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cf := Add(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cf
}

func TestVersionString(t *testing.T) {
	v := Version("mytool")
	if !strings.HasPrefix(v, "mytool ") {
		t.Errorf("version %q must start with the tool name", v)
	}
	if !strings.Contains(v, "go1") {
		t.Errorf("version %q must carry the Go toolchain", v)
	}
}

func TestFlagsRegistered(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Add(fs)
	want := []string{"trace", "metrics", "debug-addr", "version", "strict-numerics", "health-log",
		"mutex-profile", "block-profile", "profile-dir", "runtime-sample", "flight-dump"}
	for _, name := range want {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != len(want) {
		t.Errorf("Add registered %d flags, want exactly %v", n, want)
	}
}

func TestBatchFlagsRegistered(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	AddBatch(fs)
	want := []string{"jobs", "workers", "timeout", "progress", "slow-jobs", "summary",
		"resume", "retries", "degrade", "breaker", "slo"}
	for _, name := range want {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != len(want) {
		t.Errorf("AddBatch registered %d flags, want exactly %v", n, want)
	}
	// elmored registers the engine subset on its own flag set.
	efs := flag.NewFlagSet("engine", flag.ContinueOnError)
	AddEngine(efs)
	for _, name := range []string{"workers", "timeout", "retries", "degrade", "breaker"} {
		if efs.Lookup(name) == nil {
			t.Errorf("AddEngine: flag -%s not registered", name)
		}
	}
}

func TestBatchReporterHelper(t *testing.T) {
	if rep := (&BatchFlags{}).Reporter(io.Discard); rep != nil {
		t.Error("all-off BatchFlags must yield a nil Reporter")
	}
	b := &BatchFlags{Progress: time.Second, SlowJobs: time.Millisecond, Summary: true}
	rep := b.Reporter(io.Discard)
	if rep == nil || rep.Progress == nil || rep.Slow == nil || rep.Summary == nil {
		t.Fatalf("reporter missing outputs: %+v", rep)
	}
	if rep.Interval != time.Second || rep.SlowThreshold != time.Millisecond {
		t.Errorf("reporter thresholds: %+v", rep)
	}
}

func TestNoFlagsSessionIsInert(t *testing.T) {
	cf := parse(t)
	var errOut strings.Builder
	sess, err := cf.Start(&errOut)
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.TracerFrom(sess.Context()) != nil {
		t.Error("inert session must not carry a tracer")
	}
	if sess.Registry() != nil {
		t.Error("inert session must not install a registry")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if errOut.Len() != 0 {
		t.Errorf("inert session wrote to stderr: %q", errOut.String())
	}
}

func TestTraceAndMetricsLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	cf := parse(t, "-trace", path, "-metrics")
	var errOut strings.Builder
	sess, err := cf.Start(&errOut)
	if err != nil {
		t.Fatal(err)
	}

	ctx, sp := telemetry.Start(sess.Context(), "phase")
	_, inner := telemetry.Start(ctx, "phase.inner")
	inner.End()
	sp.End()
	telemetry.C("test.count").Add(5)

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if telemetry.Default() != nil {
		t.Error("Close must restore the previous (nil) default registry")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 trace lines, got %d:\n%s", len(lines), data)
	}
	for _, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("trace line %q: %v", ln, err)
		}
		for _, field := range []string{"span", "parent", "name", "start_ns", "dur_ns"} {
			if _, ok := rec[field]; !ok {
				t.Errorf("trace line missing %q: %s", field, ln)
			}
		}
	}
	if !strings.Contains(errOut.String(), "counter test.count 5") {
		t.Errorf("metrics snapshot missing counter:\n%s", errOut.String())
	}
}

func TestDebugServerServesPprofAndExpvar(t *testing.T) {
	cf := parse(t, "-debug-addr", "127.0.0.1:0", "-metrics")
	var errOut strings.Builder
	sess, err := cf.Start(&errOut)
	if err != nil {
		t.Skipf("cannot listen in this environment: %v", err)
	}
	defer sess.Close()
	telemetry.C("dbg.count").Inc()

	// The listen address is reported on stderr.
	line := errOut.String()
	start := strings.Index(line, "http://")
	end := strings.Index(line, "/debug/pprof/")
	if start < 0 || end < 0 {
		t.Fatalf("no debug address line: %q", line)
	}
	base := line[start:end]

	for path, want := range map[string]string{
		"/debug/vars":               `"dbg.count":1`,
		"/debug/pprof/":             "goroutine",
		"/debug/pprof/heap?debug=1": "heap profile",
		"/metrics":                  "dbg_count 1",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
			continue
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s: body missing %q", path, want)
		}
	}
}

func TestTraceErrorSurfacesOnClose(t *testing.T) {
	cf := parse(t, "-trace", filepath.Join(t.TempDir(), "missing", "dir", "t.jsonl"))
	if _, err := cf.Start(io.Discard); err == nil {
		t.Fatal("unwritable -trace path must error at Start")
	}
	if telemetry.Default() != nil {
		t.Error("failed Start must not leave a default registry installed")
	}
}

func TestHealthLogLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "health.ndjson")
	cf := parse(t, "-health-log", path)
	before := health.Default() // nil unless the environment installs one
	sess, err := cf.Start(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if health.Default() == nil || health.Default() == before {
		t.Fatal("-health-log must install a monitor")
	}
	if health.Default().Strict() {
		t.Error("monitor must be fail-soft without -strict-numerics")
	}
	if err := health.Violate(health.Event{Check: "test.check", Node: "n1"}); err != nil {
		t.Fatalf("fail-soft Violate returned %v", err)
	}
	// Fail-soft: violations recorded but Close succeeds.
	if err := sess.Close(); err != nil {
		t.Fatalf("non-strict Close: %v", err)
	}
	if health.Default() != before {
		t.Error("Close must restore the monitor installed before Start")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(string(data))), &rec); err != nil {
		t.Fatalf("health log %q: %v", data, err)
	}
	if rec["check"] != "test.check" {
		t.Errorf("health log record = %v", rec)
	}
}

func TestStrictNumericsFailsCloseOnViolation(t *testing.T) {
	cf := parse(t, "-strict-numerics")
	var errOut strings.Builder
	sess, err := cf.Start(&errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !health.Default().Strict() {
		t.Fatal("-strict-numerics must install a strict monitor")
	}
	// A strict Violate returns the error to the caller; even when a
	// caller drops it, Close's backstop must fail the run.
	if err := health.Violate(health.Event{Check: "test.check"}); err == nil {
		t.Fatal("strict Violate must return an error")
	}
	err = sess.Close()
	if err == nil || !strings.Contains(err.Error(), "numerical-health violation") {
		t.Fatalf("strict Close = %v, want violation backstop", err)
	}
	// The event itself landed on stderr (no -health-log).
	if !strings.Contains(errOut.String(), `"check":"test.check"`) {
		t.Errorf("stderr missing health event: %q", errOut.String())
	}
}

func TestStrictNumericsCleanClose(t *testing.T) {
	cf := parse(t, "-strict-numerics")
	sess, err := cf.Start(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("clean strict session must close without error: %v", err)
	}
}

func ExampleVersion() {
	fmt.Println(strings.Fields(Version("demo"))[0])
	// Output: demo
}

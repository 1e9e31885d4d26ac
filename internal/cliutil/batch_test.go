package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"elmore/internal/resilience"
)

func TestBatchFlagsValidate(t *testing.T) {
	cases := []struct {
		name string
		b    BatchFlags
		want string // "" means valid
	}{
		{"zero value", BatchFlags{}, ""},
		{"all positive", BatchFlags{EngineFlags: EngineFlags{Workers: 4, Timeout: time.Second, Retries: 2, Breaker: 8}}, ""},
		{"negative workers", BatchFlags{EngineFlags: EngineFlags{Workers: -1}}, "-workers"},
		{"negative timeout", BatchFlags{EngineFlags: EngineFlags{Timeout: -time.Second}}, "-timeout"},
		{"negative retries", BatchFlags{EngineFlags: EngineFlags{Retries: -3}}, "-retries"},
		{"negative breaker", BatchFlags{EngineFlags: EngineFlags{Breaker: -1}}, "-breaker"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.b.Validate()
			if tc.want == "" {
				if err != nil {
					t.Errorf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want an error naming %s", err, tc.want)
			}
		})
	}
}

func TestBatchFlagParseRejectsGarbage(t *testing.T) {
	cases := [][]string{
		{"-timeout", "banana"},
		{"-timeout", "30"}, // a bare number is not a duration
		{"-workers", "many"},
		{"-retries", "1.5"},
		{"-breaker", ""},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, "="), func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			AddBatch(fs)
			if err := fs.Parse(args); err == nil {
				t.Errorf("Parse(%v) accepted garbage", args)
			}
		})
	}
}

func TestRunBatchUnreadableJobs(t *testing.T) {
	b := &BatchFlags{Jobs: filepath.Join(t.TempDir(), "missing.ndjson")}
	var out, errOut strings.Builder
	err := b.RunBatch(context.Background(), nil, 0, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "-jobs") {
		t.Errorf("RunBatch = %v, want an error naming -jobs", err)
	}
	if out.Len() != 0 {
		t.Errorf("unreadable job stream still produced output: %q", out.String())
	}
}

func TestRunBatchValidatesBeforeOpening(t *testing.T) {
	// The jobs path does not exist either — the error must still be the
	// validation one, proving no I/O happens on invalid flags.
	b := &BatchFlags{Jobs: filepath.Join(t.TempDir(), "missing.ndjson"), EngineFlags: EngineFlags{Workers: -2}}
	err := b.RunBatch(context.Background(), nil, 0, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("RunBatch = %v, want the -workers validation error", err)
	}
}

func TestRunBatchCorruptResumeJournal(t *testing.T) {
	dir := t.TempDir()
	jobs := filepath.Join(dir, "jobs.ndjson")
	if err := os.WriteFile(jobs, []byte(`{"id":"a","net":"x.sp"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "resume.journal")
	if err := os.WriteFile(journal, []byte("{broken\n{\"op\":\"done\",\"key\":\"0:a\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b := &BatchFlags{Jobs: jobs, Resume: journal}
	err := b.RunBatch(context.Background(), nil, 0, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Errorf("RunBatch = %v, want an error naming -resume", err)
	}
}

func TestRunBatchEndToEndWithResume(t *testing.T) {
	dir := t.TempDir()
	netPath := filepath.Join(dir, "net.sp")
	deck := "Vin in 0 1\nR1 in a 100\nC1 a 0 20f\n"
	if err := os.WriteFile(netPath, []byte(deck), 0o644); err != nil {
		t.Fatal(err)
	}
	jobsPath := filepath.Join(dir, "jobs.ndjson")
	stream := fmt.Sprintf("{\"id\":\"n1\",\"net\":%q}\n{\"id\":\"n2\",\"net\":%q,\"sinks\":[\"a\"]}\n",
		netPath, netPath)
	if err := os.WriteFile(jobsPath, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "resume.journal")

	b := &BatchFlags{Jobs: jobsPath, Resume: journal, EngineFlags: EngineFlags{Retries: 2}}
	var out, errOut strings.Builder
	if err := b.RunBatch(context.Background(), nil, 0, &out, &errOut); err != nil {
		t.Fatalf("RunBatch: %v (stderr: %s)", err, errOut.String())
	}
	if got := strings.Count(strings.TrimSpace(out.String()), "\n") + 1; got != 2 {
		t.Fatalf("first run emitted %d result lines, want 2:\n%s", got, out.String())
	}

	// Second run resumes against the same journal: everything is done,
	// nothing is re-emitted, and stderr says so.
	var out2, errOut2 strings.Builder
	if err := b.RunBatch(context.Background(), nil, 0, &out2, &errOut2); err != nil {
		t.Fatalf("resumed RunBatch: %v", err)
	}
	if out2.Len() != 0 {
		t.Errorf("resumed run re-emitted results: %q", out2.String())
	}
	if !strings.Contains(errOut2.String(), "2 done jobs skipped") {
		t.Errorf("resume summary missing from stderr: %q", errOut2.String())
	}
}

func TestRunBatchReportsFailedJobs(t *testing.T) {
	dir := t.TempDir()
	jobsPath := filepath.Join(dir, "jobs.ndjson")
	stream := fmt.Sprintf("{\"id\":\"bad\",\"net\":%q}\n", filepath.Join(dir, "missing.sp"))
	if err := os.WriteFile(jobsPath, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	b := &BatchFlags{Jobs: jobsPath}
	var out strings.Builder
	err := b.RunBatch(context.Background(), nil, 0, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "1 of 1 jobs failed") {
		t.Errorf("RunBatch = %v, want the failed-jobs summary error", err)
	}
	// Fail-soft: the error record itself was still emitted.
	if !strings.Contains(out.String(), `"error"`) {
		t.Errorf("failed job produced no error record: %q", out.String())
	}
}

func TestEngineBuildsResilienceLayer(t *testing.T) {
	// Flag defaults (not the struct zero value) drive the default engine.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	def := AddBatch(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	eng := def.Engine()
	if eng.Retry != nil || eng.Breaker != nil {
		t.Errorf("default flags must not configure retry/breaker: %+v", eng)
	}
	if eng.NoDegrade {
		t.Errorf("degradation must default on")
	}
	if eng.Cache == nil {
		t.Errorf("the default engine must share a cache across jobs")
	}
	b := &BatchFlags{EngineFlags: EngineFlags{Retries: 3, Breaker: 5, Degrade: false}}
	eng = b.Engine()
	if eng.Retry == nil || eng.Retry.MaxAttempts != 4 {
		t.Errorf("retry policy not built from flags: %+v", eng.Retry)
	}
	if def := resilience.DefaultPolicy(); eng.Retry.BaseDelay != def.BaseDelay || eng.Retry.MaxDelay != def.MaxDelay {
		t.Errorf("retry backoff %v..%v, want resilience.DefaultPolicy's %v..%v",
			eng.Retry.BaseDelay, eng.Retry.MaxDelay, def.BaseDelay, def.MaxDelay)
	}
	if !eng.Retry.RetryPanics {
		t.Errorf("CLI retry policy must retry injected panics")
	}
	if eng.Breaker == nil || eng.Breaker.Threshold != 5 {
		t.Errorf("breaker not built from flags: %+v", eng.Breaker)
	}
	if !eng.NoDegrade {
		t.Errorf("-degrade=false must disable degradation")
	}
}

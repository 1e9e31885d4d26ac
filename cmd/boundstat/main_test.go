package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err := run(args, &out, &errBuf)
	return out.String(), err
}

func TestSmallStudyNoViolations(t *testing.T) {
	out, err := runCLI(t, "-trees", "40", "-max-nodes", "10", "-rise", "step,1n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0 bound violations") {
		t.Errorf("expected zero violations:\n%s", out)
	}
	if !strings.Contains(out, "tightness of the Elmore upper bound") {
		t.Errorf("missing tightness table")
	}
	if strings.Contains(out, "VIOLATION") {
		t.Errorf("violations reported:\n%s", out)
	}
}

func TestRatiosAreWithinUnitInterval(t *testing.T) {
	out, err := runCLI(t, "-trees", "30", "-max-nodes", "8", "-rise", "step")
	if err != nil {
		t.Fatal(err)
	}
	// The max ratio column must be <= 1 (bound never violated).
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "step") && i > 0 && strings.Contains(lines[i-1], "p90") {
			fields := strings.Fields(l)
			if len(fields) != 6 {
				t.Fatalf("row format: %q", l)
			}
			if fields[5] > "1.001" && !strings.HasPrefix(fields[5], "0") && !strings.HasPrefix(fields[5], "1.000") {
				t.Errorf("max ratio exceeds 1: %q", l)
			}
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := runCLI(t, "-rise", "zzz"); err == nil {
		t.Errorf("bad rise should fail")
	}
	if _, err := runCLI(t, "-trees", "0"); err == nil {
		t.Errorf("zero trees should fail")
	}
	if _, err := runCLI(t, "stray"); err == nil {
		t.Errorf("stray arg should fail")
	}
	if _, err := runCLI(t, "-rise", " "); err == nil {
		t.Errorf("empty rise should fail")
	}
}

// A zero rise time is the step, as in the batch spec: the study runs
// (the exact engine takes the step response) and reports both columns
// alike. Negative rise times are rejected.
func TestRiseZeroIsStep(t *testing.T) {
	out, err := runCLI(t, "-trees", "20", "-max-nodes", "6", "-rise", "0,step")
	if err != nil {
		t.Fatalf("-rise 0: %v", err)
	}
	var rows []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "step ") {
			rows = append(rows, l)
		}
	}
	if len(rows) != 4 || rows[0] != rows[1] || rows[2] != rows[3] {
		t.Errorf("-rise 0 rows differ from the step rows:\n%s", out)
	}
	if _, err := runCLI(t, "-trees", "2", "-rise", "-1n"); err == nil {
		t.Error("negative rise should fail")
	}
}

func TestVersionFlag(t *testing.T) {
	out, err := runCLI(t, "-version")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "boundstat ") || !strings.Contains(out, "go1") {
		t.Errorf("version output wrong: %q", out)
	}
}

func TestBatchMode(t *testing.T) {
	dir := t.TempDir()
	netPath := filepath.Join(dir, "net.sp")
	deck := "Vin in 0 1\nR1 in a 100\nC1 a 0 20f\nR2 a z 150\nC2 z 0 30f\n"
	if err := os.WriteFile(netPath, []byte(deck), 0o644); err != nil {
		t.Fatal(err)
	}
	jobsPath := filepath.Join(dir, "jobs.ndjson")
	jobs := fmt.Sprintf("{\"id\":\"n1\",\"net\":%q,\"sinks\":[\"z\"],\"rise\":\"1n\"}\n{\"id\":\"n2\",\"net\":%q}\n", netPath, netPath)
	if err := os.WriteFile(jobsPath, []byte(jobs), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-jobs", jobsPath, "-workers", "2", "-timeout", "30s")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 NDJSON lines, got %d:\n%s", len(lines), out)
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if rec["error"] != nil {
			t.Errorf("line %d unexpected error: %v", i, rec["error"])
		}
	}
	if !strings.Contains(lines[0], `"id":"n1"`) || !strings.Contains(lines[1], `"id":"n2"`) {
		t.Errorf("results out of job order:\n%s", out)
	}
	// Monte-Carlo output must not appear in batch mode.
	if strings.Contains(out, "tightness") {
		t.Errorf("batch mode ran the Monte-Carlo study:\n%s", out)
	}
}

func TestBatchModeFailSoftExit(t *testing.T) {
	dir := t.TempDir()
	jobsPath := filepath.Join(dir, "jobs.ndjson")
	if err := os.WriteFile(jobsPath, []byte("{\"id\":\"bad\",\"net\":\"missing.sp\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-jobs", jobsPath)
	if err == nil || !strings.Contains(err.Error(), "1 of 1 jobs failed") {
		t.Errorf("failed jobs must fail the run: %v", err)
	}
	// The error record is still emitted before the nonzero exit.
	if !strings.Contains(out, `"error"`) {
		t.Errorf("missing error record:\n%s", out)
	}
	if _, err := runCLI(t, "-jobs", filepath.Join(dir, "absent.ndjson")); err == nil {
		t.Errorf("missing jobs file should fail")
	}
}

// TestBatchModeParsesRepeatedDeckOnce: three jobs naming one deck file
// share one parse through the batch cache's source index, even when
// three workers load it at once.
func TestBatchModeParsesRepeatedDeckOnce(t *testing.T) {
	dir := t.TempDir()
	netPath := filepath.Join(dir, "net.sp")
	deck := "Vin in 0 1\nR1 in a 100\nC1 a 0 20f\nR2 a z 150\nC2 z 0 30f\n"
	if err := os.WriteFile(netPath, []byte(deck), 0o644); err != nil {
		t.Fatal(err)
	}
	jobsPath := filepath.Join(dir, "jobs.ndjson")
	var jobs strings.Builder
	for i, rise := range []string{"step", "0.5n", "2n"} {
		fmt.Fprintf(&jobs, "{\"id\":\"j%d\",\"net\":%q,\"rise\":%q}\n", i, netPath, rise)
	}
	if err := os.WriteFile(jobsPath, []byte(jobs.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if err := run([]string{"-jobs", jobsPath, "-workers", "3", "-metrics"}, &out, &errBuf); err != nil {
		t.Fatalf("%v\n%s", err, errBuf.String())
	}
	if n := strings.Count(out.String(), "\n"); n != 3 {
		t.Fatalf("want 3 result lines, got %d:\n%s", n, out.String())
	}
	metrics := errBuf.String()
	for _, want := range []string{"serve.hot_tree_misses 1\n", "serve.hot_tree_hits 2\n", "batch.cache_misses 1\n"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics snapshot lacks %q:\n%s", strings.TrimSpace(want), metrics)
		}
	}
}

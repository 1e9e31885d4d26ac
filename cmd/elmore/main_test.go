package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const demoDeck = `.title demo
Vin in 0 1
R1 in n1 100
C1 n1 0 1p
R2 n1 n2 200
C2 n2 0 2p
.end
`

func runCLI(t *testing.T, args []string, stdin string) (string, string, error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err := run(args, strings.NewReader(stdin), &out, &errBuf)
	return out.String(), errBuf.String(), err
}

func TestReportFromStdin(t *testing.T) {
	out, _, err := runCLI(t, nil, demoDeck)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"demo", "n1", "n2", "upper(T_D)", "critical sink: n2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// T_D(n2) = 100*3p + 200*2p = 700ps.
	if !strings.Contains(out, "700ps") {
		t.Errorf("expected 700ps in output:\n%s", out)
	}
}

func TestReportFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "net.sp")
	if err := os.WriteFile(path, []byte(demoDeck), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCLI(t, []string{path}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "n2") {
		t.Errorf("file input not analyzed:\n%s", out)
	}
}

func TestCSVOutput(t *testing.T) {
	out, _, err := runCLI(t, []string{"-csv"}, demoDeck)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "node,elmore,lower,upper") {
		t.Errorf("CSV header wrong:\n%s", out)
	}
	if strings.Count(out, "\n") != 3 {
		t.Errorf("want 2 data rows:\n%s", out)
	}
}

func TestExactAndRise(t *testing.T) {
	out, _, err := runCLI(t, []string{"-exact", "-rise", "1n"}, demoDeck)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "exact") || !strings.Contains(out, "ramp(tr=1e-09)") {
		t.Errorf("exact/rise output wrong:\n%s", out)
	}
}

// A zero rise time is the step: -rise 0 -exact prints the step report
// instead of failing to drive the exact engine with a zero-width ramp.
// Negative rise times are rejected.
func TestRiseZeroIsStep(t *testing.T) {
	step, _, err := runCLI(t, []string{"-exact"}, demoDeck)
	if err != nil {
		t.Fatal(err)
	}
	zero, _, err := runCLI(t, []string{"-exact", "-rise", "0"}, demoDeck)
	if err != nil {
		t.Fatalf("-rise 0 -exact: %v", err)
	}
	if zero != step {
		t.Errorf("-rise 0 report differs from the step report:\n%s\nvs\n%s", zero, step)
	}
	if _, _, err := runCLI(t, []string{"-rise", "-1n"}, demoDeck); err == nil {
		t.Error("negative rise should fail")
	}
}

func TestNodeFilter(t *testing.T) {
	out, _, err := runCLI(t, []string{"-node", "n1"}, demoDeck)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "\nn2") {
		t.Errorf("filter leaked other nodes:\n%s", out)
	}
	if _, _, err := runCLI(t, []string{"-node", "zz"}, demoDeck); err == nil {
		t.Errorf("unknown node should error")
	}
}

func TestZeroCapRegularizedForExact(t *testing.T) {
	deck := "Vin in 0 1\nR1 in j 10\nR2 j a 10\nC1 a 0 1p\n"
	out, errOut, err := runCLI(t, []string{"-exact"}, deck)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "regularized") {
		t.Errorf("expected regularization warning, got %q", errOut)
	}
	if !strings.Contains(out, "exact") {
		t.Errorf("exact column missing")
	}
}

func TestErrors(t *testing.T) {
	if _, _, err := runCLI(t, nil, "not a deck"); err == nil {
		t.Errorf("bad deck should error")
	}
	if _, _, err := runCLI(t, []string{"-rise", "zzz"}, demoDeck); err == nil {
		t.Errorf("bad rise should error")
	}
	if _, _, err := runCLI(t, []string{"a", "b"}, demoDeck); err == nil {
		t.Errorf("two files should error")
	}
	if _, _, err := runCLI(t, []string{"/nonexistent/file.sp"}, ""); err == nil {
		t.Errorf("missing file should error")
	}
}

func TestSimplifyFlag(t *testing.T) {
	deck := "Vin in 0 1\nR1 in j 10\nR2 j a 10\nC1 a 0 1p\n"
	out, errOut, err := runCLI(t, []string{"-simplify"}, deck)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "simplified 2 nodes -> 1") {
		t.Errorf("missing simplify note: %q", errOut)
	}
	if strings.Contains(out, "\nj ") {
		t.Errorf("junction should be gone:\n%s", out)
	}
}

func TestCornersFlag(t *testing.T) {
	out, _, err := runCLI(t, []string{"-corners", "0.15"}, demoDeck)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "guaranteed delay intervals under +-15% R/C variation") {
		t.Errorf("corners section missing:\n%s", out)
	}
	if _, _, err := runCLI(t, []string{"-corners", "2"}, demoDeck); err == nil {
		t.Errorf("corners >= 1 should fail")
	}
}

func TestVersionFlag(t *testing.T) {
	out, _, err := runCLI(t, []string{"-version"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "elmore ") || !strings.Contains(out, "go1") {
		t.Errorf("version output wrong: %q", out)
	}
}

func TestTraceAndMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	out, errOut, err := runCLI(t, []string{"-trace", path, "-metrics"}, demoDeck)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "critical sink") {
		t.Errorf("analysis output missing:\n%s", out)
	}

	// The trace must hold parseable JSON lines with the phase spans
	// parse, analyze and report nested under elmore.run.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Span   int64  `json:"span"`
		Parent int64  `json:"parent"`
		Name   string `json:"name"`
		DurNS  int64  `json:"dur_ns"`
	}
	byName := map[string]rec{}
	for _, ln := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var r rec
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("bad trace line %q: %v", ln, err)
		}
		byName[r.Name] = r
	}
	rootSpan, ok := byName["elmore.run"]
	if !ok {
		t.Fatalf("no elmore.run span in trace:\n%s", data)
	}
	for _, phase := range []string{"parse", "analyze", "report"} {
		sp, ok := byName[phase]
		if !ok {
			t.Errorf("no %q span in trace:\n%s", phase, data)
			continue
		}
		if sp.Parent != rootSpan.Span {
			t.Errorf("%q span parent = %d, want elmore.run (%d)", phase, sp.Parent, rootSpan.Span)
		}
	}
	if _, ok := byName["core.analyze"]; !ok {
		t.Errorf("engine span core.analyze missing from trace:\n%s", data)
	}

	// The metrics snapshot must list the analysis node count.
	if !strings.Contains(errOut, "counter core.nodes_analyzed 2") {
		t.Errorf("metrics snapshot missing node count:\n%s", errOut)
	}
	if !strings.Contains(errOut, "counter moments.node_visits") {
		t.Errorf("metrics snapshot missing solver step counts:\n%s", errOut)
	}
}

func TestWindowFlag(t *testing.T) {
	out, _, err := runCLI(t, []string{"-window", "0.9"}, demoDeck)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "guaranteed 90%-crossing windows") {
		t.Errorf("window section missing:\n%s", out)
	}
	if _, _, err := runCLI(t, []string{"-window", "1.5"}, demoDeck); err == nil {
		t.Errorf("threshold >= 1 should fail")
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const beforeOut = `goos: linux
goarch: amd64
pkg: elmore
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkMomentsOrder6/n=100000         	      62	  20000000 ns/op	 3207309 B/op	      11 allocs/op
BenchmarkSimTransient/chain=1000         	      18	  69064603 ns/op	  561923 B/op	      21 allocs/op
ok  	elmore	12.3s
`

const afterOut = `cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkMomentsOrder6/n=100000         	     120	  10000000 ns/op	 3207309 B/op	      11 allocs/op
BenchmarkSimPlanReuse/chain=1000-8      	     300	   4000000 ns/op	       0 B/op	       0 allocs/op
`

// A before pipe then an after merge must yield one document with both
// sides, speedups, names kept verbatim (sub-benchmark suffixes like
// workers-8 must not be collapsed), and the cpu line.
func TestRunMergeRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run([]string{"-label", "before", "-o", out},
		strings.NewReader(beforeOut), os.Stdout, os.Stderr); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-label", "after", "-merge", "-o", out},
		strings.NewReader(afterOut), os.Stdout, os.Stderr); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc ledger
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.CPU != "Intel(R) Xeon(R) CPU @ 2.10GHz" {
		t.Fatalf("cpu = %q", doc.CPU)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("benchmarks = %d, want 3", len(doc.Benchmarks))
	}
	mo := doc.Benchmarks["MomentsOrder6/n=100000"]
	if mo == nil || mo.Before == nil || mo.After == nil {
		t.Fatalf("MomentsOrder6 entry incomplete: %+v", mo)
	}
	if mo.Speedup != 2 {
		t.Fatalf("speedup = %v, want 2", mo.Speedup)
	}
	if mo.Before.BOp != 3207309 || mo.Before.AllocsOp != 11 {
		t.Fatalf("before metrics = %+v", mo.Before)
	}
	st := doc.Benchmarks["SimTransient/chain=1000"]
	if st == nil || st.Before == nil || st.After != nil || st.Speedup != 0 {
		t.Fatalf("before-only entry = %+v", st)
	}
	pr := doc.Benchmarks["SimPlanReuse/chain=1000-8"]
	if pr == nil || pr.After == nil || pr.After.AllocsOp != 0 {
		t.Fatalf("after-only entry = %+v", pr)
	}
}

// Empty input and a bad label are errors; a merge against a missing
// file is not.
func TestRunErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run([]string{"-o", out}, strings.NewReader("no benches here\n"), os.Stdout, os.Stderr); err == nil {
		t.Fatal("want error on empty input")
	}
	if err := run([]string{"-label", "sideways", "-o", out},
		strings.NewReader(beforeOut), os.Stdout, os.Stderr); err == nil {
		t.Fatal("want error on bad label")
	}
	if err := run([]string{"-merge", "-o", out},
		strings.NewReader(beforeOut), os.Stdout, os.Stderr); err != nil {
		t.Fatalf("merge with missing file: %v", err)
	}
}

// The -diff mode must compare two committed ledgers per benchmark:
// shared entries get a ratio, one-sided entries are listed, and the
// geometric mean summarizes the shared set.
func TestRunDiff(t *testing.T) {
	dir := t.TempDir()
	baseP := filepath.Join(dir, "BASE.json")
	candP := filepath.Join(dir, "CAND.json")
	if err := run([]string{"-label", "after", "-o", baseP},
		strings.NewReader(beforeOut), os.Stdout, os.Stderr); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-label", "after", "-o", candP},
		strings.NewReader(afterOut), os.Stdout, os.Stderr); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-diff", baseP, candP},
		strings.NewReader(""), &out, os.Stderr); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"MomentsOrder6/n=100000", "2.00x", // 20ms -> 10ms
		"SimTransient/chain=1000", "baseline only",
		"SimPlanReuse/chain=1000-8", "candidate only",
		"geomean (1 shared)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output missing %q:\n%s", want, got)
		}
	}
	// Wrong arity and unreadable files are errors.
	if err := run([]string{"-diff", baseP}, strings.NewReader(""), &out, os.Stderr); err == nil {
		t.Error("one-file -diff should fail")
	}
	if err := run([]string{"-diff", baseP, filepath.Join(dir, "missing.json")},
		strings.NewReader(""), &out, os.Stderr); err == nil {
		t.Error("missing candidate should fail")
	}
}

// `go test -count 3` prints each benchmark three times: the side keeps
// the median of the three samples with their min and max, the entry
// count is the number of benchmarks, not lines, and -diff marks a row
// within noise exactly when the two sides' ranges overlap.
func TestRepeatedSamplesKeepMedianAndSpread(t *testing.T) {
	const threeRuns = `BenchmarkAnalyzeBounds/n=100    	   50000	     30000 ns/op	   19504 B/op	       9 allocs/op
BenchmarkElmoreDelays/n=100     	  100000	      1000 ns/op	       0 B/op	       0 allocs/op
BenchmarkAnalyzeBounds/n=100    	   50000	     10000 ns/op	   19504 B/op	       9 allocs/op
BenchmarkElmoreDelays/n=100     	  100000	      1100 ns/op	       0 B/op	       0 allocs/op
BenchmarkAnalyzeBounds/n=100    	   50000	     20000 ns/op	   19504 B/op	       9 allocs/op
BenchmarkElmoreDelays/n=100     	  100000	      1200 ns/op	       0 B/op	       0 allocs/op
`
	const candidate = `BenchmarkAnalyzeBounds/n=100    	   50000	     25000 ns/op	   19504 B/op	       9 allocs/op
BenchmarkElmoreDelays/n=100     	  200000	       500 ns/op	       0 B/op	       0 allocs/op
`
	dir := t.TempDir()
	baseP := filepath.Join(dir, "BASE.json")
	candP := filepath.Join(dir, "CAND.json")
	var stderr strings.Builder
	if err := run([]string{"-o", baseP}, strings.NewReader(threeRuns), os.Stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "2 after entries from 6 samples") {
		t.Errorf("entry count: %q", stderr.String())
	}
	doc, err := loadLedger(baseP)
	if err != nil {
		t.Fatal(err)
	}
	ab := doc.Benchmarks["AnalyzeBounds/n=100"].After
	if ab.NsOp != 20000 || ab.Samples != 3 || ab.NsMin != 10000 || ab.NsMax != 30000 || ab.BOp != 19504 || ab.AllocsOp != 9 {
		t.Errorf("AnalyzeBounds side = %+v, want median 20000 of 3 samples in [10000, 30000]", ab)
	}
	if err := run([]string{"-o", candP}, strings.NewReader(candidate), os.Stdout, os.Stderr); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-diff", baseP, candP}, strings.NewReader(""), &out, os.Stderr); err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(out.String(), "\n") {
		noisy := strings.Contains(l, "within noise")
		switch {
		case strings.HasPrefix(l, "AnalyzeBounds/n=100") && !noisy:
			t.Errorf("25000 inside [10000, 30000] must be within noise: %q", l)
		case strings.HasPrefix(l, "ElmoreDelays/n=100") && noisy:
			t.Errorf("500 outside [1000, 1200] must not be within noise: %q", l)
		}
	}
}

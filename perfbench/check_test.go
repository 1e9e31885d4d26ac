package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// goodOutput runs the first n jobs of a sweep-small corpus through the
// real layers (the traced walk encodes with batch.WriteResult) and
// returns the corpus cut to those jobs with the NDJSON output.
func goodOutput(t *testing.T, n int) (*corpus, []byte) {
	t.Helper()
	c, err := buildCorpus("sweep-small", 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := c.write(dir); err != nil {
		t.Fatal(err)
	}
	c.jobs = c.jobs[:n]
	var sample []tracedJob
	for i, j := range c.jobs {
		sample = append(sample, tracedJob{idx: i, j: j, nt: c.nets[j.net], path: c.deckPath(dir, j.net)})
	}
	ws, err := walk(sample, false)
	if err != nil {
		t.Fatal(err)
	}
	return c, append(bytes.Join(ws.records, []byte{'\n'}), '\n')
}

func TestCheckAcceptsProgramOutput(t *testing.T) {
	c, out := goodOutput(t, 6)
	el, failed, err := checkBatchOutput(out, c, 0, 1) // every job through the oracles
	if err != nil || failed != 0 || len(el) != 6 {
		t.Fatalf("good output rejected: %d failed, %d timed, %v", failed, len(el), err)
	}
}

func TestCheckRejectsCorruptedLine(t *testing.T) {
	c, out := goodOutput(t, 6)
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	nt := c.nets[c.jobs[1].net]
	tree, err := nt.tree()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := checkResult([]byte(lines[1]), 1, c.jobs[1], nt)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Sinks[0]
	cases := map[string]string{
		"truncated":    lines[1][:len(lines[1])/2],
		"error record": `{"index":1,"id":"` + c.jobs[1].id + `","error":"batch: boom","elapsed_ns":5}`,
		"wrong index":  strings.Replace(lines[1], `"index":1,`, `"index":2,`, 1),
		"lower above elmore": strings.Replace(lines[1], `"lower":`+fmtF(s.Lower),
			`"lower":`+fmtF(2*s.Elmore), 1),
		"lower not mu-sigma": strings.Replace(lines[1], `"lower":`+fmtF(s.Lower),
			`"lower":`+fmtF(s.Lower*0.5+s.Elmore*0.25), 1),
		"prh window inverted": strings.Replace(lines[1], `"prh_tmin":`+fmtF(s.PRHTmin),
			`"prh_tmin":`+fmtF(2*s.PRHTmax+1e-9), 1),
		"sink dropped": strings.Replace(lines[1], `{"node":"`+s.Node+`"`, `{"node":"nX"`, 1),
	}
	for name, bad := range cases {
		if bad == lines[1] {
			t.Fatalf("%s: corruption did not change the line", name)
		}
		if _, err := checkResult([]byte(bad), 1, c.jobs[1], nt); err == nil {
			t.Errorf("%s: corrupted line passed the check", name)
		}
		// The same line inside a whole run fails the run.
		run := append([]string(nil), lines...)
		run[1] = bad
		if _, failed, err := checkBatchOutput([]byte(strings.Join(run, "\n")+"\n"), c, 7, 0); err == nil || failed != 1 {
			t.Errorf("%s: run check got %d failed, err %v", name, failed, err)
		}
	}

	// A value off by 1e-6 keeps every invariant but misses the oracle.
	s.Elmore *= 1 + 1e-6
	if err := checkOracle(tree, s); err == nil {
		t.Error("oracle accepted an elmore value off by 1e-6")
	}

	// A missing result line fails on the count.
	if _, _, err := checkBatchOutput([]byte(strings.Join(lines[:5], "\n")+"\n"), c, 7, 0); err == nil {
		t.Error("run with a missing result line passed")
	}
}

// fmtF renders v as encoding/json writes it in a result line.
func fmtF(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

package batch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// runStream is the CLI -jobs path: decode the spec stream, then run it.
func runStream(ctx context.Context, e *Engine, stream string, w io.Writer, opts SpecRunOptions) (RunStats, error) {
	specs, err := ReadSpecs(strings.NewReader(stream))
	if err != nil {
		return RunStats{}, err
	}
	return RunSpecs(ctx, e, specs, w, opts)
}

func TestRunSpecsStreamsNDJSON(t *testing.T) {
	netPath, lib := writeSpecFiles(t)
	stream := strings.Join([]string{
		fmt.Sprintf(`{"id":"n1","net":%q,"sinks":["z"],"rise":"1n"}`, netPath),
		fmt.Sprintf(`{"id":"p1","stages":[{"cell":"inv","net":%q,"sink":"z"}]}`, netPath),
		`{"id":"bad","net":"does-not-exist.sp"}`,
	}, "\n")
	var out bytes.Buffer
	eng := &Engine{Workers: 4, Cache: NewCache()}
	st, err := runStream(context.Background(), eng, stream, &out, SpecRunOptions{Lib: lib, DefaultSlew: 25e-12})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 3 || st.Failed != 1 {
		t.Fatalf("failed=%d total=%d, want 1/3", st.Failed, st.Total)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d output lines, want 3:\n%s", len(lines), out.String())
	}
	var recs []ResultRecord
	for i, line := range lines {
		var rec ResultRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if rec.Index != i {
			t.Errorf("line %d has index %d: output must stream in job order", i, rec.Index)
		}
		recs = append(recs, rec)
	}
	n1 := recs[0]
	if n1.ID != "n1" || n1.Error != "" || len(n1.Sinks) != 1 {
		t.Fatalf("n1 record: %+v", n1)
	}
	s := n1.Sinks[0]
	if s.Node != "z" || s.Elmore <= 0 || s.Lower < 0 || s.Input == nil || s.Input.Upper < s.Elmore {
		t.Errorf("n1 sink record: %+v", s)
	}
	p1 := recs[1]
	if p1.ID != "p1" || p1.Path == nil || len(p1.Path.Stages) != 1 || p1.Path.ArrivalUB <= 0 {
		t.Errorf("p1 record: %+v", p1)
	}
	if st := p1.Path.Stages[0]; st.Cell != "inv" || st.Sink != "z" || st.NetElmore <= 0 {
		t.Errorf("p1 stage record: %+v", p1.Path.Stages[0])
	}
	bad := recs[2]
	if bad.ID != "bad" || bad.Error == "" || bad.Sinks != nil || bad.Path != nil {
		t.Errorf("bad record should carry only an error: %+v", bad)
	}
}

func TestRunSpecsRejectsBadStream(t *testing.T) {
	eng := &Engine{}
	var out bytes.Buffer
	_, err := runStream(context.Background(), eng, "{oops\n", &out, SpecRunOptions{})
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("want a line-numbered error, got %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("no results should be emitted for an unreadable stream")
	}
}

func TestWriteResultDegradesOnUnencodableValues(t *testing.T) {
	// NaN must not escape the bound engines, but if it ever does the
	// stream degrades to an error record instead of dying.
	var out bytes.Buffer
	r := Result{Index: 4, ID: "nan", Elapsed: time.Millisecond,
		Net: &NetResult{Sinks: []SinkBounds{{Node: "z"}}}}
	r.Net.Sinks[0].Bounds.Elmore = math.NaN()
	if err := WriteResult(&out, r); err != nil {
		t.Fatal(err)
	}
	var rec ResultRecord
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Index != 4 || rec.ID != "nan" || !strings.Contains(rec.Error, "encode") {
		t.Errorf("degraded record: %+v", rec)
	}
}

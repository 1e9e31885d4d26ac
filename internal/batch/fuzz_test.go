package batch

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzReadSpecs asserts the NDJSON job-spec parser never panics, that
// every accepted spec materializes into a well-formed Job (one kind or
// a pre-failed error, never both, never neither), and that accepted
// specs survive a marshal/re-parse round trip. Run the seeds as part
// of the normal suite; `go test -fuzz=FuzzReadSpecs` explores further.
func FuzzReadSpecs(f *testing.F) {
	seeds := []string{
		"",
		"# just a comment\n\n",
		`{"id":"n1","net":"nets/a.sp","sinks":["z"],"rise":"1n"}`,
		`{"id":"p1","slew":"30p","stages":[{"cell":"inv","net":"a.sp","sink":"z"}]}`,
		`{"id":"t1","net":"a.sp","dt":"1p","t_end":"5n","method":"be","levels":[0.1,0.5,0.9]}`,
		`{"id":"t2","net":"a.sp","dt":"0"}`,
		`{"id":"bad","net":"a.sp","dt":"-1p"}`,
		`{"id":"both","net":"a.sp","stages":[{"cell":"x","net":"y","sink":"z"}]}`,
		`{"id":"mix","net":"a.sp","dt":"1p","rise":"-3n"}`,
		`{"id":"orphan","levels":[0.5]}`,
		`{"id":"nokind"}`,
		`{"id":"dup"}` + "\n" + `{"id":"dup"}`,
		`{broken`,
		`{"unknown_field":1}`,
		`[1,2,3]`,
		`null`,
		"{\"id\":\"\x00\",\"net\":\"\\n\"}",
		`{"id":"m","net":"a.sp","method":"simpson","dt":"1p"}`,
		strings.Repeat("#", 70000) + "\n" + `{"id":"after-long-comment","net":"a.sp"}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stream string) {
		specs, err := ReadSpecs(strings.NewReader(stream))
		if err != nil {
			return // rejected streams just need a graceful error
		}
		for i, s := range specs {
			j := s.Job(nil, 25e-12, nil)
			kinds := 0
			if j.Net != nil {
				kinds++
			}
			if j.Path != nil {
				kinds++
			}
			if j.Tran != nil {
				kinds++
			}
			if j.Err != nil {
				if kinds != 0 {
					t.Fatalf("spec %d: pre-failed job carries %d payloads", i, kinds)
				}
			} else if kinds != 1 {
				t.Fatalf("spec %d: job has %d kinds, want exactly 1: %+v", i, kinds, s)
			}
			// Accepted specs must round-trip through their own encoding.
			b, err := json.Marshal(s)
			if err != nil {
				t.Fatalf("spec %d does not re-marshal: %v", i, err)
			}
			again, err := ReadSpecs(strings.NewReader(string(b)))
			if err != nil {
				t.Fatalf("spec %d does not re-parse: %v\n%s", i, err, b)
			}
			if len(again) != 1 {
				t.Fatalf("spec %d re-parsed into %d specs", i, len(again))
			}
		}
	})
}

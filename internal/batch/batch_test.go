package batch

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"elmore/internal/core"
	"elmore/internal/gate"
	"elmore/internal/moments"
	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/sta"
	"elmore/internal/topo"
)

// chainNet builds a small deterministic chain for job payloads.
func chainNet(t testing.TB, n int) *rctree.Tree {
	t.Helper()
	return topo.Chain(n, 100, 1e-13)
}

func netJob(id string, tree *rctree.Tree, sinks ...string) Job {
	return Job{ID: id, Net: &NetJob{Tree: tree, Sinks: sinks}}
}

func TestRunDeterministicOrder(t *testing.T) {
	var jobs []Job
	for i := 0; i < 50; i++ {
		jobs = append(jobs, netJob(fmt.Sprintf("j%d", i), topo.Random(int64(i), topo.RandomOptions{N: 1 + i%9})))
	}
	e := &Engine{Workers: 8}
	var emitted []string
	e.RunFunc(context.Background(), jobs, func(r Result) {
		emitted = append(emitted, r.ID)
	})
	if len(emitted) != len(jobs) {
		t.Fatalf("emitted %d results for %d jobs", len(emitted), len(jobs))
	}
	for i, id := range emitted {
		if id != jobs[i].ID {
			t.Fatalf("result %d is %q, want %q (order not deterministic)", i, id, jobs[i].ID)
		}
	}
	// Run returns the same thing as a slice.
	results := e.Run(context.Background(), jobs)
	for i, r := range results {
		if r.Index != i || r.ID != jobs[i].ID || r.Err != nil || r.Net == nil {
			t.Fatalf("result %d malformed: %+v", i, r)
		}
	}
}

func TestResultsMatchSequentialAnalysis(t *testing.T) {
	tree := chainNet(t, 12)
	last := tree.Name(tree.N() - 1)
	jobs := []Job{
		netJob("all", tree),
		netJob("one", tree, last),
		{ID: "ramp", Net: &NetJob{Tree: tree, Sinks: []string{last}, Input: signal.SaturatedRamp{Tr: 1e-9}}},
	}
	res := (&Engine{Workers: 4, Cache: NewCache()}).Run(context.Background(), jobs)
	want, err := core.Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || len(res[0].Net.Sinks) != tree.N() {
		t.Fatalf("all-sinks job: %+v", res[0])
	}
	if got := res[1].Net.Sinks; len(got) != 1 || got[0].Bounds != want.Bounds[tree.N()-1] {
		t.Errorf("single-sink bounds differ from core.Analyze: %+v", got)
	}
	sink := res[2].Net.Sinks[0]
	if sink.Input == nil {
		t.Fatalf("ramp job missing generalized-input bounds")
	}
	wantIn, err := want.ForInput(tree.N()-1, signal.SaturatedRamp{Tr: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if *sink.Input != wantIn {
		t.Errorf("input bounds = %+v, want %+v", *sink.Input, wantIn)
	}
}

func TestFailSoftErrorPolicy(t *testing.T) {
	good := chainNet(t, 5)
	jobs := []Job{
		netJob("ok1", good),
		{ID: "badload", Net: &NetJob{Load: func() (*rctree.Tree, error) {
			return nil, fmt.Errorf("synthetic parse failure")
		}}},
		{ID: "badsink", Net: &NetJob{Tree: good, Sinks: []string{"nope"}}},
		{ID: "empty"},
		{ID: "prefailed", Err: fmt.Errorf("bad spec line")},
		netJob("ok2", good),
	}
	res := (&Engine{Workers: 3}).Run(context.Background(), jobs)
	if res[0].Err != nil || res[5].Err != nil {
		t.Errorf("good jobs failed: %v %v", res[0].Err, res[5].Err)
	}
	for _, i := range []int{1, 2, 3, 4} {
		if res[i].Err == nil {
			t.Errorf("job %q should have failed", res[i].ID)
		}
		if res[i].Net != nil || res[i].Path != nil {
			t.Errorf("failed job %q carries a payload", res[i].ID)
		}
	}
	if !strings.Contains(res[1].Err.Error(), "synthetic parse failure") {
		t.Errorf("load error lost: %v", res[1].Err)
	}
	if !strings.Contains(res[4].Err.Error(), "bad spec line") {
		t.Errorf("pre-failed error lost: %v", res[4].Err)
	}
}

func TestWorkerPanicIsolation(t *testing.T) {
	good := chainNet(t, 4)
	jobs := []Job{
		netJob("before", good),
		{ID: "boom", Net: &NetJob{Load: func() (*rctree.Tree, error) { panic("kaboom") }}},
		netJob("after", good),
	}
	res := (&Engine{Workers: 2}).Run(context.Background(), jobs)
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "panicked") || !strings.Contains(res[1].Err.Error(), "kaboom") {
		t.Fatalf("panic not converted to a per-job error: %v", res[1].Err)
	}
	if res[0].Err != nil || res[2].Err != nil {
		t.Errorf("panic leaked into sibling jobs: %v %v", res[0].Err, res[2].Err)
	}
}

func TestPerJobTimeout(t *testing.T) {
	good := chainNet(t, 4)
	slow := Job{ID: "slow", Net: &NetJob{Load: func() (*rctree.Tree, error) {
		time.Sleep(50 * time.Millisecond)
		return chainNet(t, 4), nil
	}}}
	res := (&Engine{Workers: 2, Timeout: 5 * time.Millisecond}).Run(
		context.Background(), []Job{netJob("fast", good), slow})
	if res[0].Err != nil {
		t.Errorf("fast job hit the timeout: %v", res[0].Err)
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "deadline") {
		t.Errorf("slow job should report its deadline: %v", res[1].Err)
	}
}

func TestCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tree := chainNet(t, 6)
	release := make(chan struct{})
	var jobs []Job
	jobs = append(jobs, Job{ID: "gate", Net: &NetJob{Load: func() (*rctree.Tree, error) {
		<-release
		return tree, nil
	}}})
	for i := 0; i < 30; i++ {
		jobs = append(jobs, netJob(fmt.Sprintf("j%d", i), tree))
	}
	go func() {
		cancel()
		close(release)
	}()
	res := (&Engine{Workers: 1}).Run(ctx, jobs)
	if len(res) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(res), len(jobs))
	}
	canceled := 0
	for _, r := range res {
		if r.Err != nil && strings.Contains(r.Err.Error(), "canceled") {
			canceled++
		}
	}
	if canceled == 0 {
		t.Errorf("cancellation produced no canceled job records")
	}
}

func TestCacheReusesMomentSets(t *testing.T) {
	tree := chainNet(t, 10)
	clone := tree.Clone()
	other := chainNet(t, 11)
	cache := NewCache()
	jobs := []Job{netJob("a", tree), netJob("b", clone), netJob("c", other), netJob("d", tree)}
	res := (&Engine{Workers: 1, Cache: cache}).Run(context.Background(), jobs)
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d circuits, want 2", cache.Len())
	}
	if res[0].CacheHit {
		t.Errorf("first occurrence must be a miss")
	}
	if !res[1].CacheHit || !res[3].CacheHit {
		t.Errorf("repeats must hit the cache: %+v %+v", res[1].CacheHit, res[3].CacheHit)
	}
	if res[2].CacheHit {
		t.Errorf("distinct circuit must miss")
	}
	// Cached and fresh analyses agree exactly.
	want, err := core.Analyze(other)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Bounds {
		if res[2].Net.Sinks[i].Bounds != want.Bounds[i] {
			t.Errorf("cached-path analysis differs at node %d", i)
		}
	}
}

func TestCacheMomentsDirect(t *testing.T) {
	tree := chainNet(t, 8)
	cache := NewCache()
	ms1, hit1, err := cache.Moments(context.Background(), tree, 2)
	if err != nil || hit1 {
		t.Fatalf("first lookup: hit=%v err=%v", hit1, err)
	}
	ms2, hit2, err := cache.Moments(context.Background(), tree.Clone(), 3)
	if err != nil || !hit2 {
		t.Fatalf("second lookup: hit=%v err=%v", hit2, err)
	}
	if ms1 != ms2 {
		t.Errorf("clone lookups must share one set")
	}
	if ms1.Order() != 3 {
		t.Errorf("cached order = %d, want 3", ms1.Order())
	}
	// Above the cached order: fresh, uncached, correct set.
	ms4, hit4, err := cache.Moments(context.Background(), tree, 4)
	if err != nil || hit4 {
		t.Fatalf("order-4 lookup: hit=%v err=%v", hit4, err)
	}
	if ms4.Order() != 4 || cache.Len() != 1 {
		t.Errorf("order-4 set must bypass the cache (order=%d len=%d)", ms4.Order(), cache.Len())
	}
	want, err := moments.Compute(tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tree.N(); i++ {
		if ms1.Elmore(i) != want.Elmore(i) {
			t.Errorf("cached Elmore differs at %d", i)
		}
	}
}

func testCell(t testing.TB) *gate.Cell {
	t.Helper()
	cell, err := gate.LinearCell("inv", 300, 2e-12, 0.05, 4e-12,
		[]float64{1e-12, 50e-12, 500e-12, 5e-9},
		[]float64{1e-15, 50e-15, 500e-15, 5e-12})
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

func TestPathJobsMatchDirectSTA(t *testing.T) {
	cell := testCell(t)
	net := chainNet(t, 6)
	sink := net.Name(net.N() - 1)
	path := sta.Path{
		InputSlew: 20e-12,
		Stages: []sta.Stage{
			{Cell: cell, Net: net, Sink: sink},
			{Cell: cell, Net: net, Sink: sink},
		},
	}
	jobs := []Job{
		{ID: "p1", Path: &PathJob{Path: &path}},
		{ID: "p2", Path: &PathJob{Load: func() (*sta.Path, error) { return &path, nil }}},
		{ID: "pbad", Path: &PathJob{Load: func() (*sta.Path, error) {
			return nil, fmt.Errorf("no such deck")
		}}},
	}
	res := (&Engine{Workers: 2, Cache: NewCache()}).Run(context.Background(), jobs)
	want, err := sta.AnalyzePath(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		r := res[i]
		if r.Err != nil {
			t.Fatalf("path job %s: %v", r.ID, r.Err)
		}
		if r.Path.ArrivalUB != want.ArrivalUB || r.Path.ArrivalLB != want.ArrivalLB {
			t.Errorf("job %s window [%v,%v], want [%v,%v]", r.ID,
				r.Path.ArrivalLB, r.Path.ArrivalUB, want.ArrivalLB, want.ArrivalUB)
		}
	}
	if math.IsNaN(want.ArrivalUB) || want.ArrivalUB <= 0 {
		t.Errorf("suspicious direct result %v", want.ArrivalUB)
	}
	// Both stages drive the same net: the second job must hit the cache.
	if !res[1].CacheHit {
		t.Errorf("repeated net across path jobs should hit the shared cache")
	}
	if res[2].Err == nil {
		t.Errorf("bad path load must fail soft")
	}
}

const specNet = `Vin in 0 1
R1 in a 100
C1 a 0 20f
R2 a z 150
C2 z 0 30f
`

func writeSpecFiles(t *testing.T) (netPath string, lib *gate.Library) {
	t.Helper()
	dir := t.TempDir()
	netPath = filepath.Join(dir, "net.sp")
	if err := os.WriteFile(netPath, []byte(specNet), 0o644); err != nil {
		t.Fatal(err)
	}
	lib = &gate.Library{Cells: map[string]*gate.Cell{"inv": testCell(t)}}
	return netPath, lib
}

func TestReadSpecsAndMaterialize(t *testing.T) {
	netPath, lib := writeSpecFiles(t)
	stream := strings.Join([]string{
		`# a comment`,
		``,
		fmt.Sprintf(`{"id":"n1","net":%q,"sinks":["z"],"rise":"1n"}`, netPath),
		fmt.Sprintf(`{"id":"n2","net":%q}`, netPath),
		fmt.Sprintf(`{"id":"p1","slew":"30p","stages":[{"cell":"inv","net":%q,"sink":"z"}]}`, netPath),
		`{"id":"badrise","net":"x.sp","rise":"-1n"}`,
		`{"id":"badcell","stages":[{"cell":"nope","net":"x.sp","sink":"z"}]}`,
		`{"id":"nokind"}`,
		fmt.Sprintf(`{"id":"badfile","net":%q}`, filepath.Join(t.TempDir(), "missing.sp")),
	}, "\n")
	specs, err := ReadSpecs(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 7 {
		t.Fatalf("read %d specs, want 7", len(specs))
	}
	jobs := make([]Job, len(specs))
	for i, s := range specs {
		jobs[i] = s.Job(lib, 25e-12, nil)
	}
	res := (&Engine{Workers: 4, Cache: NewCache()}).Run(context.Background(), jobs)
	byID := map[string]Result{}
	for _, r := range res {
		byID[r.ID] = r
	}
	if r := byID["n1"]; r.Err != nil || len(r.Net.Sinks) != 1 || r.Net.Sinks[0].Node != "z" || r.Net.Sinks[0].Input == nil {
		t.Errorf("n1: %+v err=%v", r.Net, r.Err)
	}
	if r := byID["n2"]; r.Err != nil || len(r.Net.Sinks) != 2 {
		t.Errorf("n2 should report every tree node (a, z): %+v err=%v", r.Net, r.Err)
	}
	if r := byID["p1"]; r.Err != nil || r.Path == nil || r.Path.ArrivalUB <= 0 {
		t.Errorf("p1: %+v err=%v", r.Path, r.Err)
	}
	for _, id := range []string{"badrise", "badcell", "nokind", "badfile"} {
		if byID[id].Err == nil {
			t.Errorf("%s should fail soft", id)
		}
	}
}

// ParseRise is the one rise parser of specs and CLI flags: "", "step"
// and a zero duration are the step, a positive duration is a ramp, and
// a negative or malformed one is an error.
func TestParseRise(t *testing.T) {
	for _, tok := range []string{"", "step", " step ", "0", "0n"} {
		if s, err := ParseRise(tok); err != nil || s != signal.Signal(signal.Step{}) {
			t.Errorf("ParseRise(%q) = %v, %v; want the step", tok, s, err)
		}
	}
	if s, err := ParseRise("1n"); err != nil || s != signal.Signal(signal.SaturatedRamp{Tr: 1e-9}) {
		t.Errorf("ParseRise(1n) = %v, %v; want a 1ns ramp", s, err)
	}
	for _, tok := range []string{"-1n", "zzz"} {
		if _, err := ParseRise(tok); err == nil {
			t.Errorf("ParseRise(%q) should fail", tok)
		}
	}
}

func TestReadSpecsRejectsMalformedLines(t *testing.T) {
	if _, err := ReadSpecs(strings.NewReader("{\"id\":\"ok\",\"net\":\"a\"}\n{broken\n")); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Errorf("want a line-numbered decode error, got %v", err)
	}
	if _, err := ReadSpecs(strings.NewReader(`{"id":"x","unknown_field":1}`)); err == nil {
		t.Errorf("unknown fields should be rejected")
	}
}

// TestCacheMutationNoStaleEntries is the stale-fingerprint regression
// test: a tree mutated through SetR/SetC (or bulk SetValues) after
// being analyzed must never be served the pre-mutation cached moment
// set. The contract (rctree.Tree.Fingerprint godoc) is that the
// fingerprint is recomputed from current values on every request —
// never cached on the tree — so a mutation re-keys the tree and the
// old entry can only be reached by trees that still carry the old
// values.
func TestCacheMutationNoStaleEntries(t *testing.T) {
	tree := chainNet(t, 12)
	cache := NewCache()
	ms1, hit, err := cache.Moments(context.Background(), tree, 3)
	if err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v", hit, err)
	}
	fp1 := tree.Fingerprint()

	// Mutate: per-node and bulk paths both must re-key.
	if err := tree.SetR(5, tree.R(5)*3); err != nil {
		t.Fatal(err)
	}
	if fp2 := tree.Fingerprint(); fp2 == fp1 {
		t.Fatalf("SetR did not change the fingerprint")
	}
	ms2, hit, err := cache.Moments(context.Background(), tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hit || ms2 == ms1 {
		t.Fatalf("mutated tree was served the stale pre-mutation moment set")
	}
	// The served set must describe the mutated values.
	want, err := moments.Compute(tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tree.N(); i++ {
		if ms2.Elmore(i) != want.Elmore(i) {
			t.Fatalf("post-mutation cache entry stale at node %d", i)
		}
	}

	// A clone still carrying the ORIGINAL values must hit the original
	// entry, not the mutated one.
	orig := chainNet(t, 12)
	ms3, hit, err := cache.Moments(context.Background(), orig, 3)
	if err != nil || !hit {
		t.Fatalf("original-value tree should hit: hit=%v err=%v", hit, err)
	}
	if ms3 != ms1 {
		t.Fatalf("original-value tree was served the wrong entry")
	}

	// Bulk mutation (ScaleValues) re-keys too.
	if err := tree.ScaleValues(2, 1); err != nil {
		t.Fatal(err)
	}
	_, hit, err = cache.Moments(context.Background(), tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatalf("ScaleValues-mutated tree hit a stale entry")
	}
}

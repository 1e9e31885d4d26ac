package batch

// Tests for the byte budget: eviction keeps every stripe within its
// share without leaking source keys, and a job holding an evicted
// entry's artifacts finishes with exactly the bits an uncached run
// produces. Run under `go test -race`.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"elmore/internal/core"
	"elmore/internal/netlist"
	"elmore/internal/rctree"
	"elmore/internal/sim"
	"elmore/internal/telemetry"
	"elmore/internal/topo"
)

// randomDeck renders a distinct seeded random net as inline deck text.
func randomDeck(seed, n int) string {
	return netlist.Format(topo.Random(int64(seed), topo.RandomOptions{N: n}), fmt.Sprintf("net %d", seed))
}

// flood loads and analyzes k fresh nets, enough to evict every older
// entry of a small cache.
func flood(c *Cache, first, k int) error {
	for i := first; i < first+k; i++ {
		tree, err := c.Loader()("", randomDeck(i, 150))
		if err != nil {
			return err
		}
		if _, _, err := c.Moments(context.Background(), tree, 3); err != nil {
			return err
		}
	}
	return nil
}

func TestCacheBudgetBoundsStripesAndSources(t *testing.T) {
	reg := telemetry.NewRegistry()
	prev := telemetry.SetDefault(reg)
	defer telemetry.SetDefault(prev)

	const budget = 1 << 20
	c := NewCacheSize(budget)
	forceShards(t, c, 4)
	for i := 0; i < 120; i++ {
		tree, err := c.Loader()("", randomDeck(i, 200))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Moments(context.Background(), tree, 3); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, _, err := c.Plan(context.Background(), tree, 1e-12, sim.BackwardEuler); err != nil {
				t.Fatal(err)
			}
		}
	}
	if b := c.Bytes(); b > budget || b <= 0 {
		t.Fatalf("cache holds %d bytes, want within (0, %d]", b, budget)
	}
	srcs, indexed := 0, 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if sh.bytes > sh.budget {
			t.Errorf("stripe %d holds %d bytes over its %d share", i, sh.bytes, sh.budget)
		}
		for _, e := range sh.byFP {
			srcs += len(e.srcs)
		}
		indexed += len(sh.bySrc)
		sh.mu.Unlock()
	}
	if indexed != srcs {
		t.Errorf("source index holds %d keys, resident entries own %d", indexed, srcs)
	}
	if got, want := reg.Gauge("batch.cache_entries").Value(), float64(c.Len()); got != want {
		t.Errorf("batch.cache_entries = %v, want %v", got, want)
	}
	if got, want := reg.Gauge("batch.cache_bytes").Value(), float64(c.Bytes()); got != want {
		t.Errorf("batch.cache_bytes = %v, want %v", got, want)
	}
	if ev := reg.Counter("batch.cache_evictions").Value(); ev == 0 || int(ev)+c.Len() != 120 {
		t.Errorf("evictions = %d with %d resident of 120 loaded", ev, c.Len())
	}
	// An evicted deck is parsed again; a resident one is not.
	misses := reg.Counter("serve.hot_tree_misses").Value()
	if _, err := c.Loader()("", randomDeck(0, 200)); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("serve.hot_tree_misses").Value() != misses+1 {
		t.Error("evicted deck was served without a parse")
	}
}

// TestCacheEvictionKeepsHeldResult evicts entries while jobs hold them
// — between load and moments through a flooding loader, and between
// moments and analysis directly — and checks every result is
// bit-identical to an uncached run.
func TestCacheEvictionKeepsHeldResult(t *testing.T) {
	c := NewCacheSize(256 << 10)
	forceShards(t, c, 2)
	var specs []JobSpec
	for i := 0; i < 16; i++ {
		rise := []string{"step", "0.5n", "2n"}[i%3]
		specs = append(specs, JobSpec{ID: fmt.Sprint(i), Netlist: randomDeck(1000+i%5, 300), Rise: rise})
	}
	strip := func(out []byte) []byte {
		var b bytes.Buffer
		for _, line := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
			var rec ResultRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			rec.ElapsedNS, rec.TraceID, rec.CacheHit, rec.Attempts = 0, "", false, 0
			enc, _ := json.Marshal(rec)
			b.Write(append(enc, '\n'))
		}
		return b.Bytes()
	}
	run := func(e *Engine, load TreeLoader) []byte {
		var out bytes.Buffer
		st, err := RunSpecs(context.Background(), e, specs, &out, SpecRunOptions{Loader: load})
		if err != nil || st.Failed != 0 {
			t.Fatalf("run: %v, %d failed", err, st.Failed)
		}
		return strip(out.Bytes())
	}
	want := run(&Engine{Workers: 1}, nil)
	seed := 5000
	flooding := func(net, inline string) (*rctree.Tree, error) {
		tree, err := c.Loader()(net, inline)
		if ferr := flood(c, seed, 8); ferr != nil {
			return nil, ferr
		}
		seed += 8
		return tree, err
	}
	// Workers 1 keeps the flooding loader's seed counter single-threaded;
	// the race case below runs concurrent workers on the plain loader.
	if got := run(&Engine{Workers: 1, Cache: c}, flooding); !bytes.Equal(got, want) {
		t.Errorf("results with evictions between load and moments differ:\n%s\nwant:\n%s", got, want)
	}
	if got := run(&Engine{Workers: 4, Cache: c}, nil); !bytes.Equal(got, want) {
		t.Errorf("results on a churning small cache differ:\n%s\nwant:\n%s", got, want)
	}

	// Hold a moment set and a plan, evict their entry, then use them.
	tree, err := c.Loader()("", randomDeck(2000, 300))
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := c.Moments(context.Background(), tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := c.Plan(context.Background(), tree, 1e-12, sim.Trapezoidal)
	if err != nil {
		t.Fatal(err)
	}
	if err := flood(c, 9000, 40); err != nil {
		t.Fatal(err)
	}
	if again, hit, _ := c.Moments(context.Background(), tree, 3); hit || again == ms {
		t.Fatal("entry still resident after the flood; the test evicted nothing")
	}
	held, err := core.AnalyzeWithMoments(context.Background(), tree, ms)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.Analyze(tree)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh.Bounds {
		if held.Bounds[i] != fresh.Bounds[i] {
			t.Fatalf("node %d: held-set bounds %+v, uncached %+v", i, held.Bounds[i], fresh.Bounds[i])
		}
	}
	if plan.Tree() != tree {
		t.Fatal("held plan lost its tree")
	}
}

// TestCacheLoaderChurnUnderRace has goroutines load, analyze and plan a
// small pool of decks through a cache too small to hold them, so parses,
// waits on in-flight parses, hits and evictions all interleave: every
// load must return its own deck's tree, and the source index must end
// up owning exactly the resident entries' keys.
func TestCacheLoaderChurnUnderRace(t *testing.T) {
	c := NewCacheSize(192 << 10)
	forceShards(t, c, 2)
	const decks = 12
	srcs := make([]string, decks)
	fps := make([]uint64, decks)
	for i := range srcs {
		srcs[i] = randomDeck(3000+i, 120)
		tree, err := DefaultTreeLoader("", srcs[i])
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = tree.Fingerprint()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 60; k++ {
				i := (g*7 + k*5) % decks
				tree, err := c.Loader()("", srcs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if tree.Fingerprint() != fps[i] {
					t.Errorf("deck %d loaded another deck's tree", i)
					return
				}
				if _, _, err := c.Moments(context.Background(), tree, 3); err != nil {
					t.Error(err)
					return
				}
				if k%4 == 0 {
					if _, _, err := c.Plan(context.Background(), tree, 1e-12, sim.BackwardEuler); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	srcKeys, indexed := 0, 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.byFP {
			srcKeys += len(e.srcs)
		}
		indexed += len(sh.bySrc)
		if sh.bytes > sh.budget {
			t.Errorf("stripe %d holds %d bytes over its %d share", i, sh.bytes, sh.budget)
		}
		sh.mu.Unlock()
	}
	if indexed != srcKeys {
		t.Errorf("source index holds %d keys, resident entries own %d", indexed, srcKeys)
	}
}

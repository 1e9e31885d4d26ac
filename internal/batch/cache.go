package batch

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"sync"

	"elmore/internal/moments"
	"elmore/internal/rctree"
	"elmore/internal/resilience"
	"elmore/internal/sim"
	"elmore/internal/telemetry"
)

// cacheOrder is the moment order cached sets are computed at: order 3
// serves every consumer in this repository (core bounds need 3, sta
// slew propagation needs 2).
const cacheOrder = 3

// DefaultCacheBytes is the budget of NewCache and of the zero Cache:
// about 450 200-node nets, or 50 2000-node nets, by the size model.
const DefaultCacheBytes = 32 << 20

// The entry size model in bytes, rounded up from heap measurements of
// parsed random 200- to 20000-node trees: per node, a tree with its
// fingerprint and compiled layout holds about 235, an order-3 moment
// set 33 and a simulation plan 66-73. Deck text counts at its length.
const (
	entryBytes      = 512 // entry struct, map slots and LRU element
	treeNodeBytes   = 256
	momentNodeBytes = 40
	planNodeBytes   = 80
)

// srcSeed picks a source key's stripe; the key itself is the deck text.
var srcSeed = maphash.MakeSeed()

// Cache is a byte-budgeted LRU of per-circuit artifacts shared by every
// job of a process. An entry, keyed by tree fingerprint
// (rctree.Tree.Fingerprint), holds the tree with its compiled layout,
// its order-3 moment set and its simulation plans keyed by (dt,
// method). A source index in front maps deck text — inline, or a
// file's contents — to the entry it parsed to; see Loader. Artifacts
// are immutable and each is computed exactly once: goroutines racing
// on a missing one block until the first finishes.
//
// The cache is striped: a power-of-two number of stripes (rounded up
// from GOMAXPROCS at first use), each with its own mutex, maps, LRU
// list and an equal share of the budget. An entry lives in the stripe
// its fingerprint selects, a source key in the one its hash selects, so
// workers on different nets rarely contend; lock wait is attributed
// per worker through the context-carried WorkerStats. A stripe over its
// share evicts its least recently used entries with their source keys.
// A job holding an evicted tree, moment set or plan keeps it alive
// through the GC, so eviction never changes a running job's result.
//
// The zero value is ready to use. The cache trusts fingerprints:
// callers must not mutate a tree (SetR/SetC) between jobs that share
// it. As a cheap collision guard, a hit whose cached tree disagrees
// with the requesting tree's node count is reported as an error.
type Cache struct {
	budget int64 // total bytes; <= 0 means DefaultCacheBytes
	init   sync.Once
	shards []cacheShard
	mask   uint64
}

// cacheShard is one stripe; mu guards its fields and the el, size, srcs
// and plans fields of its entries. Padded so the next stripe's mutex
// does not share a cache line with this one's counters.
type cacheShard struct {
	mu     sync.Mutex
	byFP   map[uint64]*cacheEntry
	bySrc  map[string]*srcSlot
	lru    list.List // of *cacheEntry; front = most recently used
	bytes  int64
	budget int64
	_      [64]byte
}

type cacheEntry struct {
	fp   uint64
	tree *rctree.Tree

	el    *list.Element // nil once evicted, or for an uncached entry
	size  int64
	srcs  []string // source keys resolving here
	plans map[planKey]*planEntry

	once sync.Once
	ms   *moments.Set
	err  error
}

// planKey is the exact step size (by bit pattern — plans for 1e-12 and
// its nearest representable neighbor are distinct) and the method.
type planKey struct {
	dtBits uint64
	method sim.Method
}

type planEntry struct {
	once sync.Once
	plan *sim.Plan
	err  error
}

// srcSlot is a source key's parse: in flight until done closes, then
// its entry (written under the stripe mutex, so eviction can compare).
type srcSlot struct {
	done chan struct{}
	e    *cacheEntry
	err  error
}

// errLoadPanicked is what waiters see when the parsing goroutine
// panicked (the batch engine recovers the panic for that job only).
var errLoadPanicked = errors.New("batch: concurrent load of this net panicked")

// NewCache returns an empty cache with the DefaultCacheBytes budget.
func NewCache() *Cache {
	return &Cache{}
}

// NewCacheSize returns an empty cache whose entries total at most
// budget bytes by the size model; budget <= 0 means DefaultCacheBytes.
func NewCacheSize(budget int64) *Cache {
	return &Cache{budget: budget}
}

// defaultShards returns GOMAXPROCS rounded up to a power of two, so a
// full worker complement maps onto at least one stripe each.
func defaultShards() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	return n
}

func (c *Cache) setup(n int) {
	budget := c.budget
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	c.shards = make([]cacheShard, n)
	c.mask = uint64(n - 1)
	for i := range c.shards {
		c.shards[i].budget = budget / int64(n)
	}
}

// shard returns the stripe owning hash h, initializing the stripes on
// first use. Fingerprints are hashes already, but their low bits are
// remixed through a Fibonacci multiplier so clustered keys still spread.
func (c *Cache) shard(h uint64) *cacheShard {
	c.init.Do(func() { c.setup(defaultShards()) })
	return &c.shards[(h*0x9E3779B97F4A7C15)>>32&c.mask]
}

func (c *Cache) srcShard(src string) *cacheShard {
	return c.shard(maphash.String(srcSeed, src))
}

// add charges n bytes (and src, when set, as one more source key) to e
// while it is resident, then evicts least recently used entries until
// the stripe fits its share — e too, when it alone is larger. The
// victims' source keys are for forget, once the stripe is released.
func (sh *cacheShard) add(e *cacheEntry, n int64, src string) (victims []*cacheEntry) {
	if e.el == nil {
		return nil
	}
	if src != "" {
		e.srcs = append(e.srcs, src)
	}
	e.size += n
	sh.bytes += n
	telemetry.G("batch.cache_bytes").Add(float64(n))
	for sh.bytes > sh.budget {
		v := sh.lru.Back().Value.(*cacheEntry)
		sh.unlink(v)
		victims = append(victims, v)
		telemetry.C("batch.cache_evictions").Inc()
	}
	return victims
}

func (sh *cacheShard) unlink(e *cacheEntry) {
	delete(sh.byFP, e.fp)
	sh.lru.Remove(e.el)
	e.el = nil
	sh.bytes -= e.size
	telemetry.G("batch.cache_entries").Add(-1)
	telemetry.G("batch.cache_bytes").Add(float64(-e.size))
}

// forget drops evicted entries' source keys, leaving any key already
// re-pointed at a newer entry.
func (c *Cache) forget(victims []*cacheEntry) {
	for _, e := range victims {
		for _, src := range e.srcs {
			sh := c.srcShard(src)
			sh.mu.Lock()
			if s := sh.bySrc[src]; s != nil && s.e == e {
				delete(sh.bySrc, src)
			}
			sh.mu.Unlock()
		}
	}
}

// entry returns the resident entry for t's circuit, marked most
// recently used, or links a new one holding t.
func (c *Cache) entry(ws *WorkerStats, t *rctree.Tree) *cacheEntry {
	fp := t.Fingerprint()
	sh := c.shard(fp)
	t0 := lockStart(ws)
	sh.mu.Lock()
	lockEnd(ws, t0)
	var victims []*cacheEntry
	e := sh.byFP[fp]
	if e != nil {
		sh.lru.MoveToFront(e.el)
	} else {
		e = &cacheEntry{fp: fp, tree: t}
		if sh.byFP == nil {
			sh.byFP = make(map[uint64]*cacheEntry)
		}
		sh.byFP[fp] = e
		e.el = sh.lru.PushFront(e)
		telemetry.G("batch.cache_entries").Add(1)
		victims = sh.add(e, entryBytes+treeNodeBytes*int64(t.N()), "")
	}
	sh.mu.Unlock()
	c.forget(victims)
	return e
}

// grow is add under e's stripe mutex.
func (c *Cache) grow(e *cacheEntry, n int64, src string) {
	sh := c.shard(e.fp)
	sh.mu.Lock()
	victims := sh.add(e, n, src)
	sh.mu.Unlock()
	c.forget(victims)
}

// touch marks e most recently used and reports whether it is resident.
func (c *Cache) touch(e *cacheEntry) bool {
	sh := c.shard(e.fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.el != nil {
		sh.lru.MoveToFront(e.el)
	}
	return e.el != nil
}

// evict removes e while it is still resident; a stale call after a
// newer entry replaced it is a no-op.
func (c *Cache) evict(e *cacheEntry) {
	sh := c.shard(e.fp)
	sh.mu.Lock()
	resident := e.el != nil
	if resident {
		sh.unlink(e)
	}
	sh.mu.Unlock()
	if resident {
		c.forget([]*cacheEntry{e})
	}
}

// Loader returns the TreeLoader that resolves net references through
// the cache: a deck whose exact text (inline, or a file's contents,
// re-read on every load so an edited file is re-parsed) was parsed
// before reuses that tree, and concurrent loads of one text parse it
// once. A nil cache returns DefaultTreeLoader.
func (c *Cache) Loader() TreeLoader {
	if c == nil {
		return DefaultTreeLoader
	}
	return c.load
}

func (c *Cache) load(net, netlist string) (*rctree.Tree, error) {
	src, err := deckText(net, netlist)
	if err != nil {
		return nil, err
	}
	sh := c.srcShard(src)
	sh.mu.Lock()
	if s, ok := sh.bySrc[src]; ok {
		sh.mu.Unlock()
		<-s.done
		if s.err != nil {
			return nil, s.err
		}
		c.touch(s.e)
		telemetry.C("serve.hot_tree_hits").Inc()
		return s.e.tree, nil
	}
	s := &srcSlot{done: make(chan struct{}), err: errLoadPanicked}
	if sh.bySrc == nil {
		sh.bySrc = make(map[string]*srcSlot)
	}
	sh.bySrc[src] = s
	sh.mu.Unlock()
	defer func() {
		// A failed parse, or an entry evicted before its key was filed
		// below, must not leave the key behind.
		if s.e == nil || !c.touch(s.e) {
			sh.mu.Lock()
			if sh.bySrc[src] == s {
				delete(sh.bySrc, src)
			}
			sh.mu.Unlock()
		}
		close(s.done)
	}()

	tree, err := parseDeck(net, src)
	if err != nil {
		s.err = err
		return nil, err
	}
	telemetry.C("serve.hot_tree_misses").Inc()
	e := c.entry(nil, tree)
	if e.tree.N() == tree.N() {
		c.grow(e, int64(len(src)), src)
	} else {
		e = &cacheEntry{fp: e.fp, tree: tree} // fingerprint collision: uncached
	}
	sh.mu.Lock()
	s.e, s.err = e, nil
	sh.mu.Unlock()
	return e.tree, nil
}

// runOnce runs f through o and reports whether this call was a hit: the
// goroutine that ran f paid for it and is the one miss, even if it
// found the entry already inserted; everyone else reused its result,
// and time they spent blocked on it is lock wait. The outcome lands in
// ws and in the named counters.
func runOnce(ws *WorkerStats, o *sync.Once, f func(), hits, misses string) bool {
	ran := false
	t0 := lockStart(ws)
	o.Do(func() { ran = true; f() })
	if ran {
		telemetry.C(misses).Inc()
		if ws != nil {
			ws.CacheMisses++
		}
		return false
	}
	lockEnd(ws, t0)
	telemetry.C(hits).Inc()
	if ws != nil {
		ws.CacheHits++
	}
	return true
}

// Moments returns the moment set for the circuit t describes, computing
// it on first use; hit reports whether another call computed it.
// Requests above the cached order compute a fresh uncached set rather
// than poisoning shared entries.
func (c *Cache) Moments(t *rctree.Tree, order int) (*moments.Set, bool, error) {
	return c.moments(nil, nil, t, order)
}

// MomentsCtx is Moments with worker attribution: lock wait and the
// hit/miss land in the stats of the batch worker ctx carries, and the
// compute draws its sweep buffers from the worker's scratch arena.
func (c *Cache) MomentsCtx(ctx context.Context, t *rctree.Tree, order int) (*moments.Set, bool, error) {
	return c.moments(workerStatsFrom(ctx), moments.ArenaFrom(ctx), t, order)
}

func (c *Cache) moments(ws *WorkerStats, ar *moments.Arena, t *rctree.Tree, order int) (*moments.Set, bool, error) {
	if order > cacheOrder {
		ms, err := moments.ComputeWith(t, order, ar)
		return ms, false, err
	}
	e := c.entry(ws, t)
	hit := runOnce(ws, &e.once, func() {
		e.ms, e.err = moments.ComputeWith(e.tree, cacheOrder, ar)
		if e.err == nil {
			c.grow(e, momentNodeBytes*int64(e.tree.N()), "")
		}
	}, "batch.cache_hits", "batch.cache_misses")
	if e.err != nil {
		// A permanent error (bad element values) is worth memoizing —
		// recomputation fails identically — but a transient one
		// (injected fault, cancellation) must not poison the entry for
		// every later job and retry on this circuit.
		if resilience.Classify(e.err) != resilience.Permanent {
			c.evict(e)
		}
		return nil, hit, e.err
	}
	if e.tree.N() != t.N() {
		return nil, hit, fmt.Errorf("batch: fingerprint collision: cached set has %d nodes, tree has %d", e.tree.N(), t.N())
	}
	return e.ms, hit, nil
}

// Plan returns a compiled simulation plan for the circuit t describes,
// under the given fixed step and method, building it (compile + stamp +
// factor) on first use; hit reports whether another call built it.
// Plans are immutable and shared: each worker must take its own
// sim.Runner from the returned plan.
func (c *Cache) Plan(t *rctree.Tree, dt float64, method sim.Method) (*sim.Plan, bool, error) {
	return c.plan(nil, t, dt, method)
}

// PlanCtx is Plan with the same contention attribution as MomentsCtx.
func (c *Cache) PlanCtx(ctx context.Context, t *rctree.Tree, dt float64, method sim.Method) (*sim.Plan, bool, error) {
	return c.plan(workerStatsFrom(ctx), t, dt, method)
}

func (c *Cache) plan(ws *WorkerStats, t *rctree.Tree, dt float64, method sim.Method) (*sim.Plan, bool, error) {
	e := c.entry(ws, t)
	key := planKey{dtBits: math.Float64bits(dt), method: method}
	sh := c.shard(e.fp)
	t0 := lockStart(ws)
	sh.mu.Lock()
	lockEnd(ws, t0)
	pe := e.plans[key]
	if pe == nil {
		if e.plans == nil {
			e.plans = make(map[planKey]*planEntry)
		}
		pe = &planEntry{}
		e.plans[key] = pe
	}
	sh.mu.Unlock()
	hit := runOnce(ws, &pe.once, func() {
		pe.plan, pe.err = sim.NewPlan(e.tree, sim.PlanOptions{DT: dt, Method: method})
		if pe.err == nil {
			c.grow(e, planNodeBytes*int64(e.tree.N()), "")
		}
	}, "batch.plan_cache_hits", "batch.plan_cache_misses")
	if pe.err != nil {
		// Same policy as Moments: only permanent failures are memoized.
		if resilience.Classify(pe.err) != resilience.Permanent {
			c.dropPlan(e, key, pe)
		}
		return nil, hit, pe.err
	}
	if e.tree.N() != t.N() {
		return nil, hit, fmt.Errorf("batch: fingerprint collision: cached plan has %d nodes, tree has %d", e.tree.N(), t.N())
	}
	return pe.plan, hit, nil
}

// dropPlan removes e's plan under key while pe is still that plan,
// never a newer replacement.
func (c *Cache) dropPlan(e *cacheEntry, key planKey, pe *planEntry) {
	sh := c.shard(e.fp)
	sh.mu.Lock()
	if e.plans[key] == pe {
		delete(e.plans, key)
	}
	sh.mu.Unlock()
}

// Len returns the number of resident circuits (0 for a nil cache).
func (c *Cache) Len() int {
	return int(c.sum(func(sh *cacheShard) int64 { return int64(sh.lru.Len()) }))
}

// PlanLen returns the number of resident (circuit, dt, method) plans.
func (c *Cache) PlanLen() int {
	return int(c.sum(func(sh *cacheShard) (n int64) {
		for _, e := range sh.byFP {
			n += int64(len(e.plans))
		}
		return n
	}))
}

// Bytes returns the modelled size of the resident entries (0 for a nil
// cache); it never exceeds the budget.
func (c *Cache) Bytes() int64 {
	return c.sum(func(sh *cacheShard) int64 { return sh.bytes })
}

func (c *Cache) sum(count func(*cacheShard) int64) (total int64) {
	if c == nil {
		return 0
	}
	for i := range c.Shards() {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += count(sh)
		sh.mu.Unlock()
	}
	return total
}

// Shards reports the number of stripes the cache spreads its keys over
// (a power of two, rounded up from GOMAXPROCS at first use).
func (c *Cache) Shards() int {
	c.shard(0)
	return len(c.shards)
}

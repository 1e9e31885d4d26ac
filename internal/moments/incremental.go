package moments

import (
	"fmt"
	"math"
	"sort"

	"elmore/internal/rctree"
	"elmore/internal/telemetry"
)

// Incremental is a delta-update engine for the order-3 moment and PRH
// state of one RC tree: it owns mutable copies of the element values
// plus every derived per-node array (downstream capacitance, m1..m3,
// path resistance, the T_R numerator, T_P) in the compiled layout, and
// re-cleans only the minimal dirty region after SetR/SetC
// perturbations. It exists so an optimizer's perturb → evaluate →
// revert inner loop stops paying the full Compile-rebuild + Compute +
// ComputePRH + per-node bound rebuild an rctree.Tree mutation costs
// (SetR/SetC invalidate the whole compiled plan), and pays only for
// what actually has to move.
//
// Every value the engine serves is bit-identical to a fresh
// moments.Compute / ComputePRH on a tree carrying the same element
// values: the update kernels are the exact per-node expressions of the
// full sweeps, applied in an order with the same data dependencies, so
// IEEE-754 non-associativity never shows. That is the property the
// crossover fallback leans on — when the dirty region approaches the
// whole tree, the engine simply runs the full serial sweeps in place,
// and nobody can tell the difference.
//
// How local an update can be is dictated by the recurrences, not by
// engineering:
//
//   - Order-1 state localizes. A ΔC at node k moves the downstream
//     capacitance (= the order-1 upward sums) only on k's root path; a
//     ΔR at k moves the path resistance and the Elmore delay only in
//     k's subtree. These are the O(path + subtree) kernels, and they
//     are what a T_D-driven optimizer hits thousands of times a second.
//   - Orders 2 and 3 do not. m2/m3 at ANY node depend on m1 at EVERY
//     node of the same root component (through the subtree sums of
//     C·m1), and any single perturbation moves m1 across the whole
//     component, so an exact order-2+ update is Ω(component) no matter
//     how it is organized. The engine's win there is constant-factor
//     but large: in-place region sweeps with no plan rebuild, no
//     allocation, no scatter to user order, and no per-node bound
//     reconstruction.
//
// Flushing is therefore staged and lazy: Elmore/DownstreamC/
// PathResistance/TR queries clean only the order-1 state; M/Mu2/Sigma/
// TP queries clean orders 2-3 as well. Perturbations batch — any number
// of SetR/SetC between queries cost one region flush.
//
// An Incremental is NOT safe for concurrent use; it is a single
// optimizer's working state, like a moments.Arena. The engine never
// mutates the bound tree: SetR/SetC are what-if edits on the engine's
// own arrays, Revert undoes everything since the last Commit, Commit
// accepts the current values as the new revert baseline, and SyncTree
// writes them back into the tree in one bulk mutation when the
// optimizer is done.
type Incremental struct {
	tree *rctree.Tree
	cp   *rctree.Compiled
	n    int

	// Element values and derived per-node state, all in compiled
	// (breadth-first) order. w1 is both the order-1 upward sum and the
	// downstream capacitance (m0 = 1 makes them the same array); m1..m3
	// are the transfer-function moments; rkk is the source-to-node path
	// resistance and trS the T_R numerator sum_k R_ki^2 C_k.
	r, c   []float64
	w1, m1 []float64
	w2, m2 []float64
	w3, m3 []float64
	rkk    []float64
	trS    []float64
	tp     float64
	level  []int32 // depth level of each compiled index

	// Dirty bookkeeping. dirtyBits holds four bits per node: C/R dirt
	// pending the order-1 flush (bits 0-1) and pending the order-3
	// flush (bits 2-3). The lists hold each node at most once per
	// stage.
	dirtyBits        []uint8
	dirtyC1, dirtyR1 []int32
	dirtyC3, dirtyR3 []int32
	stage1Clean      bool
	stage3Clean      bool

	// undo is the revert log: every applied edit since the last Commit,
	// oldest first.
	undo []valueEdit

	// movedLo/movedHi accumulate, per level, the hull of nodes whose
	// moments moved since the last DrainMoved, for Reanalyze(nil).
	movedLo, movedHi []int32

	// spanLo/spanHi and ancBuf are flush scratch.
	spanLo, spanHi   []int32
	wspanLo, wspanHi []int32
	ancBuf           []int32

	// CrossoverFraction tunes the region-sweep → full-sweep fallback:
	// a flush whose planned touched-node count exceeds this fraction of
	// the equivalent full-sweep work runs the plain full kernels
	// instead of the span walk. The default was measured, not guessed —
	// see DESIGN.md ("Incremental re-analysis"): region sweeps carry
	// ~10-25% per-node overhead from the level/span bookkeeping, so the
	// crossover sits well below 1.0.
	CrossoverFraction float64

	stats IncrementalStats
}

// DefaultCrossoverFraction is the measured region-vs-full crossover:
// on the benchmark topologies (100-100k node chains, stars and random
// trees) the span-walk sweep costs 1.1-1.3x the plain full loop per
// touched node, so region mode stops paying around 80% coverage.
const DefaultCrossoverFraction = 0.8

type valueEdit struct {
	node     int32 // compiled index
	isR      bool
	old, new float64
}

// IncrementalStats counts the engine's work since construction.
type IncrementalStats struct {
	Sets          int64 // applied SetR/SetC edits (no-op value repeats excluded)
	Flushes       int64 // region or full flush passes run
	NodesTouched  int64 // per-node kernel evaluations across all flushes
	FullFallbacks int64 // flushes that crossed over to the full sweeps
	Reverts       int64
	Commits       int64
}

// NewIncremental binds a delta-update engine to t, snapshotting its
// current element values and computing the full order-3 moment and PRH
// state once with the standard serial kernels. The engine does not
// mutate t afterwards (see SyncTree); conversely, mutating t directly
// while an engine is bound to it leaves the engine describing the
// values it was built from.
func NewIncremental(t *rctree.Tree) (*Incremental, error) {
	if t == nil || t.N() == 0 {
		return nil, fmt.Errorf("moments: NewIncremental needs a non-empty tree")
	}
	cp := rctree.Compile(t)
	n := cp.N()
	back := make([]float64, 10*n)
	inc := &Incremental{
		tree: t,
		cp:   cp,
		n:    n,
		r:    back[0*n : 1*n : 1*n],
		c:    back[1*n : 2*n : 2*n],
		w1:   back[2*n : 3*n : 3*n],
		m1:   back[3*n : 4*n : 4*n],
		w2:   back[4*n : 5*n : 5*n],
		m2:   back[5*n : 6*n : 6*n],
		w3:   back[6*n : 7*n : 7*n],
		m3:   back[7*n : 8*n : 8*n],
		rkk:  back[8*n : 9*n : 9*n],
		trS:  back[9*n : 10*n : 10*n],

		level:             make([]int32, n),
		dirtyBits:         make([]uint8, n),
		CrossoverFraction: DefaultCrossoverFraction,
	}
	copy(inc.r, cp.R)
	copy(inc.c, cp.C)
	L := cp.Levels()
	for l := 0; l < L; l++ {
		for i := cp.LevelStart[l]; i < cp.LevelStart[l+1]; i++ {
			inc.level[i] = int32(l)
		}
	}
	spans := make([]int32, 6*L)
	inc.spanLo = spans[0*L : 1*L : 1*L]
	inc.spanHi = spans[1*L : 2*L : 2*L]
	inc.wspanLo = spans[2*L : 3*L : 3*L]
	inc.wspanHi = spans[3*L : 4*L : 4*L]
	inc.movedLo = spans[4*L : 5*L : 5*L]
	inc.movedHi = spans[5*L : 6*L : 6*L]
	inc.clearMoved()
	inc.fullSweeps(true, true)
	inc.stage1Clean, inc.stage3Clean = true, true
	telemetry.C("incremental.binds").Inc()
	return inc, nil
}

// Tree returns the tree the engine is bound to. Its element values
// reflect the engine's state only up to the last SyncTree.
func (inc *Incremental) Tree() *rctree.Tree { return inc.tree }

// Stats returns the engine's work counters.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// --- Perturbation API ---

// SetR updates the engine's resistance at node i (tree index). The
// value is validated under the same contract as rctree.Tree.SetR. The
// bound tree is not touched.
func (inc *Incremental) SetR(i int, v float64) error {
	if err := inc.checkIndex(i); err != nil {
		return err
	}
	if err := rctree.ValidateR(v); err != nil {
		return fmt.Errorf("moments: incremental node %q: %w", inc.tree.Name(i), err)
	}
	inc.set(inc.cp.FromUser[i], true, v)
	return nil
}

// SetC updates the engine's grounded capacitance at node i (tree
// index), validated like rctree.Tree.SetC.
func (inc *Incremental) SetC(i int, v float64) error {
	if err := inc.checkIndex(i); err != nil {
		return err
	}
	if err := rctree.ValidateC(v); err != nil {
		return fmt.Errorf("moments: incremental node %q: %w", inc.tree.Name(i), err)
	}
	inc.set(inc.cp.FromUser[i], false, v)
	return nil
}

func (inc *Incremental) checkIndex(i int) error {
	if i < 0 || i >= inc.n {
		return fmt.Errorf("moments: incremental node index %d out of range [0,%d)", i, inc.n)
	}
	return nil
}

func (inc *Incremental) set(ci int32, isR bool, v float64) {
	arr := inc.c
	if isR {
		arr = inc.r
	}
	old := arr[ci]
	if math.Float64bits(old) == math.Float64bits(v) {
		return // value-identical edit: nothing can move
	}
	arr[ci] = v
	inc.undo = append(inc.undo, valueEdit{node: ci, isR: isR, old: old, new: v})
	inc.dirty(ci, isR)
	inc.stats.Sets++
	telemetry.C("incremental.sets").Inc()
}

// dirty records node ci as pending for both flush stages.
func (inc *Incremental) dirty(ci int32, isR bool) {
	var b1, b3 uint8 = 1, 4 // C bits
	if isR {
		b1, b3 = 2, 8
	}
	bits := inc.dirtyBits[ci]
	if bits&b1 == 0 {
		if isR {
			inc.dirtyR1 = append(inc.dirtyR1, ci)
		} else {
			inc.dirtyC1 = append(inc.dirtyC1, ci)
		}
	}
	if bits&b3 == 0 {
		if isR {
			inc.dirtyR3 = append(inc.dirtyR3, ci)
		} else {
			inc.dirtyC3 = append(inc.dirtyC3, ci)
		}
	}
	inc.dirtyBits[ci] = bits | b1 | b3
	inc.stage1Clean, inc.stage3Clean = false, false
}

// Revert undoes every edit applied since the last Commit (or since
// construction), restoring the engine to its baseline values. Reverted
// regions re-clean lazily on the next query, and re-cleaning reproduces
// the baseline bits exactly: the kernels are deterministic in the
// values, which are bit-restored.
func (inc *Incremental) Revert() {
	for k := len(inc.undo) - 1; k >= 0; k-- {
		e := inc.undo[k]
		arr := inc.c
		if e.isR {
			arr = inc.r
		}
		arr[e.node] = e.old
		inc.dirty(e.node, e.isR)
	}
	inc.undo = inc.undo[:0]
	inc.stats.Reverts++
	telemetry.C("incremental.reverts").Inc()
}

// Commit accepts the current values as the new revert baseline: it
// clears the revert log and nothing else, so it is O(1) and does not
// force a flush or touch the bound tree (see SyncTree).
func (inc *Incremental) Commit() {
	inc.undo = inc.undo[:0]
	inc.stats.Commits++
	telemetry.C("incremental.commits").Inc()
}

// SyncTree writes the engine's current element values back into the
// bound tree as one bulk mutation (a single generation bump /
// fingerprint change). It is the hand-off at the end of an
// optimization: after it, a fresh Compile/Analyze of the tree describes
// exactly the engine's state.
func (inc *Incremental) SyncTree() error {
	r := make([]float64, inc.n)
	c := make([]float64, inc.n)
	for ci := 0; ci < inc.n; ci++ {
		u := inc.cp.ToUser[ci]
		r[u] = inc.r[ci]
		c[u] = inc.c[ci]
	}
	return inc.tree.SetValues(r, c)
}

// --- Queries (tree-indexed, bit-identical to Set / PRHTerms) ---

// Elmore returns the Elmore delay T_D(i) = -m1(i), flushing order-1
// state only.
func (inc *Incremental) Elmore(i int) float64 {
	inc.flush1()
	return -inc.m1[inc.cp.FromUser[i]]
}

// DownstreamC returns the total capacitance of the subtree rooted at i.
func (inc *Incremental) DownstreamC(i int) float64 {
	inc.flush1()
	return inc.w1[inc.cp.FromUser[i]]
}

// PathResistance returns R_ii, the source-to-i path resistance.
func (inc *Incremental) PathResistance(i int) float64 {
	inc.flush1()
	return inc.rkk[inc.cp.FromUser[i]]
}

// R and C return the engine's current (possibly uncommitted) element
// values at node i.
func (inc *Incremental) R(i int) float64 { return inc.r[inc.cp.FromUser[i]] }
func (inc *Incremental) C(i int) float64 { return inc.c[inc.cp.FromUser[i]] }

// TotalC returns the sum of the engine's capacitances — the area-side
// quantity sizing loops budget against. (Summed over root subtrees;
// the grouping differs from rctree.Tree.TotalC, so the two can differ
// in the last ulp.)
func (inc *Incremental) TotalC() float64 {
	inc.flush1()
	var sum float64
	for ci := int32(0); ci < inc.cp.LevelStart[1]; ci++ {
		sum += inc.w1[ci]
	}
	return sum
}

// M returns the moment m_q(i) for q in [0,3].
func (inc *Incremental) M(q, i int) float64 {
	if q < 0 || q > 3 {
		panic(fmt.Sprintf("moments: incremental order %d out of range [0,3]", q))
	}
	if i < 0 || i >= inc.n {
		panic(fmt.Sprintf("moments: node index %d out of range [0,%d)", i, inc.n))
	}
	ci := inc.cp.FromUser[i]
	switch q {
	case 0:
		return 1
	case 1:
		inc.flush1()
		return inc.m1[ci]
	case 2:
		inc.flush3()
		return inc.m2[ci]
	default:
		inc.flush3()
		return inc.m3[ci]
	}
}

// Moments3 returns m1, m2 and m3 at node i in one read, flushing
// orders 2-3 once.
func (inc *Incremental) Moments3(i int) (m1, m2, m3 float64) {
	inc.flush3()
	ci := inc.cp.FromUser[i]
	return inc.m1[ci], inc.m2[ci], inc.m3[ci]
}

// Mu2 returns the impulse-response variance 2 m2 - m1^2 at node i.
func (inc *Incremental) Mu2(i int) float64 {
	m1, m2, _ := inc.Moments3(i)
	return Mu2Of(m1, m2)
}

// Mu3 returns the third central moment at node i.
func (inc *Incremental) Mu3(i int) float64 {
	return Mu3Of(inc.Moments3(i))
}

// Sigma returns sqrt(mu2) with the Set.Sigma degenerate contract:
// mu2 <= 0 clamps to exactly +0 (with a health note when a monitor is
// installed).
func (inc *Incremental) Sigma(i int) float64 {
	return SigmaOf(inc.tree, i, inc.Mu2(i))
}

// Skewness returns mu3 / mu2^(3/2), zero at zero-variance nodes.
func (inc *Incremental) Skewness(i int) float64 {
	m1, m2, m3 := inc.Moments3(i)
	return Skew(Mu2Of(m1, m2), Mu3Of(m1, m2, m3))
}

// TP returns the Penfield-Rubinstein T_P = sum_k R_kk C_k.
func (inc *Incremental) TP() float64 {
	inc.flush3()
	return inc.tp
}

// TR returns T_R(i) = sum_k R_ki^2 C_k / R_ii, flushing order-1 state
// only. The numerator is maintained by the order-1 sweeps with the
// same trStep recurrence ComputePRH runs, so the bits match a fresh
// PRHTerms.TR, and a query is an array read.
func (inc *Incremental) TR(i int) float64 {
	inc.flush1()
	ci := inc.cp.FromUser[i]
	return inc.trS[ci] / inc.rkk[ci]
}

// DrainMoved appends to dst the tree indices of every node whose
// moments may have moved since the last drain (conservatively: the
// per-level hull of the flushed dirty regions), flushing pending
// perturbations first, and resets the moved set. It backs
// core.Analysis.Reanalyze's "re-bound what moved" mode.
func (inc *Incremental) DrainMoved(dst []int) []int {
	inc.flush3()
	for l := 0; l < len(inc.movedLo); l++ {
		for ci := inc.movedLo[l]; ci < inc.movedHi[l]; ci++ {
			dst = append(dst, int(inc.cp.ToUser[ci]))
		}
	}
	inc.clearMoved()
	return dst
}

func (inc *Incremental) clearMoved() {
	for l := range inc.movedLo {
		inc.movedLo[l] = int32(inc.n)
		inc.movedHi[l] = 0
	}
}

// --- Flush machinery ---

// flush1 re-cleans the order-1 state (w1, m1, rkk, trS): the genuinely
// local kernels. ΔC dirt re-sums w1 along the dirty nodes' root paths
// (ancestor closure, children gathered exactly like the full upward
// sweep); m1 then re-sweeps the subtrees hanging from the topmost
// moved nodes — for ΔR-only dirt that is just the perturbed subtrees,
// for ΔC dirt it is the affected root components (m1 at the component
// root depends on the total subtree capacitance, so the whole
// component moves). ΔR dirt re-sweeps rkk over the perturbed subtrees
// only. trS depends on exactly what m1 does plus rkk, so it moves with
// m1 and is swept with it, after rkk.
func (inc *Incremental) flush1() {
	if inc.stage1Clean {
		return
	}
	cp := inc.cp
	n := inc.n
	inc.stats.Flushes++
	telemetry.C("incremental.flushes").Inc()

	full := 2 * n
	if len(inc.dirtyR1) > 0 {
		full = 3 * n
	}
	limit := inc.CrossoverFraction * float64(full)
	// C dirt on a one-component tree moves m1 at every node, and the
	// ancestor closure holds at least the deepest dirty node's root
	// path. When that lower bound on the planned work already crosses
	// over, the planning walks are skipped: they are O(depth) and
	// would only reach the same decision.
	fallback := false
	if inc.singleRoot() && len(inc.dirtyC1) > 0 {
		deepest := int32(0)
		for _, k := range inc.dirtyC1 {
			deepest = max(deepest, inc.level[k])
		}
		fallback = float64(int(deepest)+1+n) > limit
	}

	anc := inc.ancBuf[:0]
	planned, rkkTouched := 0, 0
	if !fallback {
		// Plan the regions. Ancestor closure of C-dirty nodes:
		for _, k := range inc.dirtyC1 {
			for j := k; j != rctree.Source; j = int32(cp.Parent[j]) {
				if inc.dirtyBits[j]&16 != 0 {
					break // already collected by an earlier walk
				}
				inc.dirtyBits[j] |= 16
				anc = append(anc, j)
			}
		}
		// m1 frontier: component roots for C dirt (topmost moved w1 is
		// the root), the nodes themselves for R dirt.
		inc.resetSpans(inc.spanLo, inc.spanHi)
		for _, j := range anc {
			if cp.Parent[j] == rctree.Source {
				inc.extendSpan(inc.spanLo, inc.spanHi, j)
			}
		}
		for _, k := range inc.dirtyR1 {
			inc.extendSpan(inc.spanLo, inc.spanHi, k)
		}
		m1Touched := inc.propagateSpansDown(inc.spanLo, inc.spanHi)

		// rkk region: subtrees of R-dirty nodes only.
		if len(inc.dirtyR1) > 0 {
			inc.resetSpans(inc.wspanLo, inc.wspanHi)
			for _, k := range inc.dirtyR1 {
				inc.extendSpan(inc.wspanLo, inc.wspanHi, k)
			}
			rkkTouched = inc.propagateSpansDown(inc.wspanLo, inc.wspanHi)
		}
		planned = len(anc) + m1Touched + rkkTouched
		fallback = float64(planned) > limit
	}

	if fallback {
		inc.stats.FullFallbacks++
		telemetry.C("incremental.full_fallbacks").Inc()
		inc.fullSweeps(true, false)
		inc.stats.NodesTouched += int64(full)
		telemetry.C("incremental.nodes_touched").Add(int64(full))
	} else {
		// w1 fix-up: ancestors of C dirt, children before parents.
		// Walk order already has children before their own ancestors,
		// but separate walks interleave, so sort descending (compiled
		// numbering puts parents strictly before children).
		sort.Slice(anc, func(a, b int) bool { return anc[a] > anc[b] })
		cs, par := cp.ChildStart, cp.Parent
		for _, j := range anc {
			d := inc.c[j]
			for ch := cs[j]; ch < cs[j+1]; ch++ {
				d += inc.w1[ch]
			}
			inc.w1[j] = d
		}
		// rkk over the R-dirty subtrees.
		if rkkTouched > 0 {
			inc.sweepDown(inc.wspanLo, inc.wspanHi, func(i int32) {
				a := inc.r[i]
				if p := par[i]; p != rctree.Source {
					a += inc.rkk[p]
				}
				inc.rkk[i] = a
			})
		}
		// m1 and trS over the frontier subtrees, parents before
		// children.
		inc.sweepDown(inc.spanLo, inc.spanHi, func(i int32) {
			ri, d := inc.r[i], inc.w1[i]
			v := -(ri * d)
			if p := par[i]; p != rctree.Source {
				v += inc.m1[p]
				inc.trS[i] = trStep(inc.trS[p], ri, inc.rkk[i], inc.rkk[p], d)
			} else {
				inc.trS[i] = trStep(0, ri, inc.rkk[i], 0, d)
			}
			inc.m1[i] = v
		})
		inc.stats.NodesTouched += int64(planned)
		telemetry.C("incremental.nodes_touched").Add(int64(planned))
	}

	for _, j := range anc {
		inc.dirtyBits[j] &^= 16
	}
	for _, k := range inc.dirtyC1 {
		inc.dirtyBits[k] &^= 1
	}
	for _, k := range inc.dirtyR1 {
		inc.dirtyBits[k] &^= 2
	}
	inc.ancBuf = anc[:0]
	inc.dirtyC1 = inc.dirtyC1[:0]
	inc.dirtyR1 = inc.dirtyR1[:0]
	inc.stage1Clean = true
}

// singleRoot reports whether the tree is one root component, so any C
// edit moves m1..m3 at every node.
func (inc *Incremental) singleRoot() bool { return inc.cp.LevelStart[1] == 1 }

// flush3 re-cleans orders 2-3 and T_P, after ensuring order 1 is
// clean. The dependency cone forces the m2/m3 sweeps over the full
// affected root components (see the type comment); the w2 sweep is the
// one pass that stays small under ΔR-only dirt (perturbed subtrees
// plus their root paths).
func (inc *Incremental) flush3() {
	inc.flush1()
	if inc.stage3Clean {
		return
	}
	cp := inc.cp
	n := inc.n
	cs, par := cp.ChildStart, cp.Parent
	inc.stats.Flushes++
	telemetry.C("incremental.flushes").Inc()

	// C dirt on a one-component tree moves all four sweeps over the
	// whole tree (planned = 4n), so any fraction below 1 crosses over
	// without the O(depth) planning walks.
	fallback := inc.singleRoot() && len(inc.dirtyC3) > 0 && inc.CrossoverFraction < 1
	frontier := inc.ancBuf[:0]
	planned := 0
	if !fallback {
		// m1-moved region since the last stage-3 flush: subtrees of
		// R-dirty nodes, full components of C-dirty nodes. Its ancestor
		// closure (the w2 region) adds the frontier nodes' root paths.
		mark := func(j int32) {
			if inc.dirtyBits[j]&16 == 0 {
				inc.dirtyBits[j] |= 16
				frontier = append(frontier, j)
			}
		}
		for _, k := range inc.dirtyC3 {
			// Component root of k.
			j := k
			for par[j] != rctree.Source {
				j = int32(par[j])
			}
			mark(j)
		}
		for _, k := range inc.dirtyR3 {
			mark(k)
		}
		inc.resetSpans(inc.spanLo, inc.spanHi)
		for _, f := range frontier {
			inc.extendSpan(inc.spanLo, inc.spanHi, f)
		}
		inc.propagateSpansDown(inc.spanLo, inc.spanHi)

		// w2 region = m1-moved spans ∪ root paths of the frontier.
		copy(inc.wspanLo, inc.spanLo)
		copy(inc.wspanHi, inc.spanHi)
		for _, f := range frontier {
			for j := int32(par[f]); j != rctree.Source; j = int32(par[j]) {
				inc.extendSpan(inc.wspanLo, inc.wspanHi, j)
			}
		}
		w2Touched := inc.spanSize(inc.wspanLo, inc.wspanHi)

		// m2/m3 (and w3) regions: full components of everything dirty —
		// the w2 dirt reaches the component roots, and every descendant
		// of a dirty root moves.
		inc.resetSpans(inc.spanLo, inc.spanHi)
		for _, f := range frontier {
			j := f
			for par[j] != rctree.Source {
				j = int32(par[j])
			}
			inc.extendSpan(inc.spanLo, inc.spanHi, j)
		}
		compTouched := inc.propagateSpansDown(inc.spanLo, inc.spanHi)
		planned = w2Touched + 3*compTouched
		fallback = float64(planned) > inc.CrossoverFraction*float64(4*n)
	}

	if fallback {
		inc.stats.FullFallbacks++
		telemetry.C("incremental.full_fallbacks").Inc()
		inc.fullSweeps(false, true)
		inc.stats.NodesTouched += int64(4 * n)
		telemetry.C("incremental.nodes_touched").Add(int64(4 * n))
		// The moved hull is everything.
		copy(inc.movedLo, cp.LevelStart[:cp.Levels()])
		copy(inc.movedHi, cp.LevelStart[1:])
	} else {
		inc.sweepUp(inc.wspanLo, inc.wspanHi, func(i int32) {
			d := inc.c[i] * inc.m1[i]
			for ch := cs[i]; ch < cs[i+1]; ch++ {
				d += inc.w2[ch]
			}
			inc.w2[i] = d
		})
		inc.sweepDown(inc.spanLo, inc.spanHi, func(i int32) {
			v := -(inc.r[i] * inc.w2[i])
			if p := par[i]; p != rctree.Source {
				v += inc.m2[p]
			}
			inc.m2[i] = v
		})
		inc.sweepUp(inc.spanLo, inc.spanHi, func(i int32) {
			d := inc.c[i] * inc.m2[i]
			for ch := cs[i]; ch < cs[i+1]; ch++ {
				d += inc.w3[ch]
			}
			inc.w3[i] = d
		})
		inc.sweepDown(inc.spanLo, inc.spanHi, func(i int32) {
			v := -(inc.r[i] * inc.w3[i])
			if p := par[i]; p != rctree.Source {
				v += inc.m3[p]
			}
			inc.m3[i] = v
		})
		inc.stats.NodesTouched += int64(planned)
		telemetry.C("incremental.nodes_touched").Add(int64(planned))
		for l := range inc.spanLo {
			if inc.spanLo[l] < inc.spanHi[l] {
				if inc.spanLo[l] < inc.movedLo[l] {
					inc.movedLo[l] = inc.spanLo[l]
				}
				if inc.spanHi[l] > inc.movedHi[l] {
					inc.movedHi[l] = inc.spanHi[l]
				}
			}
		}
		// T_P: same reduction order as ComputePRH (tree pre-order over
		// the current values); the full sweeps re-run it too.
		inc.recomputeTP()
	}

	for _, f := range frontier {
		inc.dirtyBits[f] &^= 16
	}
	for _, k := range inc.dirtyC3 {
		inc.dirtyBits[k] &^= 4
	}
	for _, k := range inc.dirtyR3 {
		inc.dirtyBits[k] &^= 8
	}
	inc.ancBuf = frontier[:0]
	inc.dirtyC3 = inc.dirtyC3[:0]
	inc.dirtyR3 = inc.dirtyR3[:0]
	inc.stage3Clean = true
}

func (inc *Incremental) recomputeTP() {
	from := inc.cp.FromUser
	var tp float64
	for _, u := range inc.tree.PreOrder() {
		ci := from[u]
		tp += inc.rkk[ci] * inc.c[ci]
	}
	inc.tp = tp
}

// fullSweeps runs the plain serial kernels over the whole tree into
// the engine's arrays: the order-1 group (w1 up, then one down pass for
// rkk, m1 and trS) and/or the order-2/3 group (w2 up, m2 down, w3 up,
// m3 down, T_P). These are the exact per-node expressions of
// computeSerial/prhInto, so the results are bit-identical to a fresh
// Compute/ComputePRH.
//
// Every sweep is a dependent recurrence, so on a chain its speed is
// the latency of one step. When a node's neighbour in the sweep is its
// parent (down) or its only child (up), that value is carried in a
// register instead of reloaded from the slot just stored, which takes
// a store-to-load round trip off each step. The operands and their
// order are unchanged, and so are the bits.
func (inc *Incremental) fullSweeps(stage1, stage3 bool) {
	cp := inc.cp
	n := inc.n
	cs, par := cp.ChildStart, cp.Parent
	r, c := inc.r, inc.c
	if stage1 {
		w1, m1, rkk, trS := inc.w1[:n], inc.m1[:n], inc.rkk[:n], inc.trS[:n]
		fullUp(n, cs, c, nil, w1)
		par, r := par[:n], r[:n]
		var m, a, s float64 // m1, rkk and trS of node i-1
		for i := 0; i < n; i++ {
			ri, d := r[i], w1[i]
			v, ai := -(ri * d), ri
			switch p := int(par[i]); {
			case p == rctree.Source:
				s = trStep(0, ri, ai, 0, d)
			case p == i-1:
				v += m
				ai += a
				s = trStep(s, ri, ai, a, d)
			default:
				v += m1[p]
				ai += rkk[p]
				s = trStep(trS[p], ri, ai, rkk[p], d)
			}
			m1[i], rkk[i], trS[i] = v, ai, s
			m, a = v, ai
		}
	}
	if stage3 {
		fullUp(n, cs, c, inc.m1, inc.w2)
		fullDown(n, par, r, inc.w2, inc.m2)
		fullUp(n, cs, c, inc.m2, inc.w3)
		fullDown(n, par, r, inc.w3, inc.m3)
		inc.recomputeTP()
	}
}

// fullUp is one full upward moment sweep, children first: w = c·prev
// plus the children's w (w = c plus the children's w when prev is nil,
// the m0 = 1 sweep).
func fullUp(n int, cs []int32, c, prev, w []float64) {
	cs, c, w = cs[:n+1], c[:n], w[:n]
	var last float64 // w[i+1]
	hi := int(cs[n])
	for i := n - 1; i >= 0; i-- {
		d := c[i]
		if prev != nil {
			d *= prev[i]
		}
		lo := int(cs[i])
		if lo == i+1 && hi == i+2 {
			d += last
		} else {
			for ch := lo; ch < hi; ch++ {
				d += w[ch]
			}
		}
		w[i] = d
		last, hi = d, lo
	}
}

// fullDown is one full downward moment sweep, parents first:
// m = m(parent) - r·w.
func fullDown(n int, par []int32, r, w, m []float64) {
	par, r, w, m = par[:n], r[:n], w[:n], m[:n]
	var last float64 // m[i-1]
	for i := 0; i < n; i++ {
		v := -(r[i] * w[i])
		switch p := int(par[i]); {
		case p == rctree.Source:
		case p == i-1:
			v += last
		default:
			v += m[p]
		}
		m[i] = v
		last = v
	}
}

// --- Span bookkeeping ---
//
// A dirty region is held as one conservative [lo, hi) hull per depth
// level of the compiled index space. BFS numbering makes every subtree
// contiguous per level, so descendant regions propagate level to level
// through ChildStart: children(span [lo,hi)) = [ChildStart[lo],
// ChildStart[hi]). Hulls over several subtrees may cover clean nodes
// in between; re-evaluating a clean node with the standard kernel
// rewrites the bits it already has, so hull slack costs time, never
// correctness.

func (inc *Incremental) resetSpans(lo, hi []int32) {
	for l := range lo {
		lo[l] = int32(inc.n)
		hi[l] = 0
	}
}

func (inc *Incremental) extendSpan(lo, hi []int32, node int32) {
	l := inc.level[node]
	if node < lo[l] {
		lo[l] = node
	}
	if node+1 > hi[l] {
		hi[l] = node + 1
	}
}

// propagateSpansDown closes the spans downward (each level's hull
// extends to cover its nodes' children) and returns the total node
// count covered.
func (inc *Incremental) propagateSpansDown(lo, hi []int32) int {
	cs := inc.cp.ChildStart
	total := 0
	for l := 0; l < len(lo); l++ {
		if lo[l] >= hi[l] {
			continue
		}
		total += int(hi[l] - lo[l])
		if l+1 < len(lo) {
			clo, chi := cs[lo[l]], cs[hi[l]]
			if clo < chi {
				if clo < lo[l+1] {
					lo[l+1] = clo
				}
				if chi > hi[l+1] {
					hi[l+1] = chi
				}
			}
		}
	}
	return total
}

func (inc *Incremental) spanSize(lo, hi []int32) int {
	total := 0
	for l := range lo {
		if lo[l] < hi[l] {
			total += int(hi[l] - lo[l])
		}
	}
	return total
}

// sweepDown applies fn over the spans parents-first (ascending levels,
// ascending index within a level).
func (inc *Incremental) sweepDown(lo, hi []int32, fn func(i int32)) {
	for l := 0; l < len(lo); l++ {
		for i := lo[l]; i < hi[l]; i++ {
			fn(i)
		}
	}
}

// sweepUp applies fn over the spans children-first (descending levels,
// descending index within a level).
func (inc *Incremental) sweepUp(lo, hi []int32, fn func(i int32)) {
	for l := len(lo) - 1; l >= 0; l-- {
		for i := hi[l] - 1; i >= lo[l]; i-- {
			fn(i)
		}
	}
}

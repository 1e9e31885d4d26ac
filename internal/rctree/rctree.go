// Package rctree models RC trees: resistor-capacitor circuits in which
// every node has a capacitor to ground, no capacitor couples two
// non-ground nodes, and no resistor connects to ground. Such circuits are
// the canonical model for digital gate + interconnect delay estimation
// (Penfield-Rubinstein 1981; Gupta, Tutuianu, Pileggi 1995/97).
//
// A Tree is driven by a single ideal voltage source (the "input" or
// "source" node). Every tree node i carries a resistance R(i) to its
// parent (toward the source) and a capacitance C(i) to ground. A node
// whose parent is the source is a root node; a Tree may have several
// root nodes (several resistors leaving the source), which still forms
// an RC tree in the classical sense.
package rctree

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Source is the pseudo-index used for the voltage-source node. It appears
// as the Parent of root nodes and is never a valid node index.
const Source = -1

// node is the internal per-node record.
type node struct {
	name     string
	parent   int // node index, or Source
	r        float64
	c        float64
	children []int
	depth    int // number of resistors between this node and the source
}

// Tree is an immutable-topology RC tree. Node indices are dense in
// [0, N()) and are assigned in the order nodes were added to the Builder.
// Element values (R, C) may be updated in place via SetR/SetC, which is
// useful for sizing loops; topology cannot change after Build.
type Tree struct {
	nodes  []node
	byName map[string]int
	post   []int // cached post-order
	pre    []int // cached pre-order (parents before children)
	roots  []int // cached root indices (parent == Source), in index order

	// gen counts element-value mutations (SetR/SetC); compiled caches
	// the current structure-of-arrays plan for that generation. Both
	// are atomic so concurrent readers (Compile from parallel workers)
	// never race with each other; mutating a tree concurrently with
	// readers remains unsupported, as documented on SetR/SetC.
	gen      atomic.Uint64
	compiled atomic.Pointer[Compiled]
}

// N returns the number of nodes in the tree (excluding the source).
func (t *Tree) N() int { return len(t.nodes) }

// Name returns the user-assigned name of node i.
func (t *Tree) Name(i int) string { return t.nodes[i].name }

// R returns the resistance (ohms) between node i and its parent.
func (t *Tree) R(i int) float64 { return t.nodes[i].r }

// C returns the capacitance (farads) from node i to ground.
func (t *Tree) C(i int) float64 { return t.nodes[i].c }

// Parent returns the parent index of node i, or Source for a root node.
func (t *Tree) Parent(i int) int { return t.nodes[i].parent }

// Depth returns the number of resistors on the path from the source to
// node i. Root nodes have depth 1.
func (t *Tree) Depth(i int) int { return t.nodes[i].depth }

// Children returns the child indices of node i. The returned slice is
// owned by the tree and must not be modified.
func (t *Tree) Children(i int) []int { return t.nodes[i].children }

// Roots returns the indices of all nodes attached directly to the
// source. The slice is computed once at Build time and owned by the
// tree; it must not be modified.
func (t *Tree) Roots() []int { return t.roots }

// Leaves returns the indices of all childless nodes, in index order.
func (t *Tree) Leaves() []int {
	var leaves []int
	for i := range t.nodes {
		if len(t.nodes[i].children) == 0 {
			leaves = append(leaves, i)
		}
	}
	return leaves
}

// Index returns the index of the node with the given name.
func (t *Tree) Index(name string) (int, bool) {
	i, ok := t.byName[name]
	return i, ok
}

// MustIndex is like Index but panics if the name is unknown. It is meant
// for tests and examples operating on hand-built circuits.
func (t *Tree) MustIndex(name string) int {
	i, ok := t.byName[name]
	if !ok {
		panic(fmt.Sprintf("rctree: no node named %q", name))
	}
	return i
}

// SetR updates the resistance of node i. It returns an error if r is not
// a positive finite value. SetR invalidates cached derived artifacts:
// fingerprints computed earlier are stale, and compiled execution plans
// (Compile) rebuild on next use. See Fingerprint for the full
// mutation/caching contract. For bulk edits prefer SetValues or
// ScaleValues, which validate and invalidate once instead of per node.
func (t *Tree) SetR(i int, r float64) error {
	if err := checkR(r); err != nil {
		return fmt.Errorf("rctree: node %q: %w", t.nodes[i].name, err)
	}
	t.nodes[i].r = r
	t.gen.Add(1)
	return nil
}

// SetC updates the grounded capacitance of node i. It returns an error if
// c is negative or not finite. A zero capacitance is allowed (a pure
// resistive junction), though at least one node in the tree must carry
// nonzero capacitance for the circuit to have dynamics. Like SetR it
// invalidates cached fingerprints and compiled plans; see Fingerprint
// for the full mutation/caching contract, and SetValues/ScaleValues for
// bulk edits.
func (t *Tree) SetC(i int, c float64) error {
	if err := checkC(c); err != nil {
		return fmt.Errorf("rctree: node %q: %w", t.nodes[i].name, err)
	}
	t.nodes[i].c = c
	t.gen.Add(1)
	return nil
}

// SetValues replaces every element value in one bulk mutation: r and c,
// when non-nil, must have length N() and carry the new resistances and
// capacitances in node-index order. All values are validated before any
// is applied — on error the tree is unchanged — and the modification
// generation is bumped exactly once, so derived artifacts (compiled
// plans, fingerprints) are invalidated once per bulk edit instead of
// once per node. A nil slice leaves that element kind untouched.
func (t *Tree) SetValues(r, c []float64) error {
	if r != nil && len(r) != len(t.nodes) {
		return fmt.Errorf("rctree: SetValues: got %d resistances for %d nodes", len(r), len(t.nodes))
	}
	if c != nil && len(c) != len(t.nodes) {
		return fmt.Errorf("rctree: SetValues: got %d capacitances for %d nodes", len(c), len(t.nodes))
	}
	if r == nil && c == nil {
		return nil
	}
	for i := range t.nodes {
		if r != nil {
			if err := checkR(r[i]); err != nil {
				return fmt.Errorf("rctree: node %q: %w", t.nodes[i].name, err)
			}
		}
		if c != nil {
			if err := checkC(c[i]); err != nil {
				return fmt.Errorf("rctree: node %q: %w", t.nodes[i].name, err)
			}
		}
	}
	for i := range t.nodes {
		if r != nil {
			t.nodes[i].r = r[i]
		}
		if c != nil {
			t.nodes[i].c = c[i]
		}
	}
	t.gen.Add(1)
	return nil
}

// Generation returns the tree's element-value modification count: it
// starts at zero and increases by one for every SetR/SetC call and by
// one per SetValues/ScaleValues bulk edit. Derived-artifact caches
// (compiled plans, incremental engines) compare generations to detect
// that a snapshot is stale.
func (t *Tree) Generation() uint64 { return t.gen.Load() }

// Clone returns a deep copy of the tree. The copy shares no mutable state
// with the original, so SetR/SetC on one does not affect the other.
func (t *Tree) Clone() *Tree {
	cp := &Tree{
		nodes:  make([]node, len(t.nodes)),
		byName: make(map[string]int, len(t.byName)),
		post:   append([]int(nil), t.post...),
		pre:    append([]int(nil), t.pre...),
		roots:  append([]int(nil), t.roots...),
	}
	copy(cp.nodes, t.nodes)
	for i := range cp.nodes {
		cp.nodes[i].children = append([]int(nil), t.nodes[i].children...)
	}
	for k, v := range t.byName {
		cp.byName[k] = v
	}
	return cp
}

// TotalC returns the sum of all grounded capacitances in the tree.
func (t *Tree) TotalC() float64 {
	var sum float64
	for i := range t.nodes {
		sum += t.nodes[i].c
	}
	return sum
}

// TotalR returns the sum of all resistances in the tree.
func (t *Tree) TotalR() float64 {
	var sum float64
	for i := range t.nodes {
		sum += t.nodes[i].r
	}
	return sum
}

// PostOrder returns node indices in post-order: every node appears after
// all of its descendants. The slice is owned by the tree.
func (t *Tree) PostOrder() []int { return t.post }

// PreOrder returns node indices in pre-order: every node appears before
// all of its descendants. The slice is owned by the tree.
func (t *Tree) PreOrder() []int { return t.pre }

// PathToSource returns the node indices on the path from node i up to
// (but excluding) the source, starting with i itself.
func (t *Tree) PathToSource(i int) []int {
	var path []int
	for j := i; j != Source; j = t.nodes[j].parent {
		path = append(path, j)
	}
	return path
}

// PathResistance returns R_ii: the total resistance on the unique path
// between the source and node i.
func (t *Tree) PathResistance(i int) float64 {
	var sum float64
	for j := i; j != Source; j = t.nodes[j].parent {
		sum += t.nodes[j].r
	}
	return sum
}

// SharedPathResistance returns R_ki: the resistance of the portion of the
// source-to-i path that is common with the source-to-k path. This is the
// kernel of the Elmore delay sum T_Di = sum_k R_ki * C_k.
func (t *Tree) SharedPathResistance(i, k int) float64 {
	// Walk both nodes up to their common ancestor, then sum the
	// resistance from the ancestor to the source.
	a, b := i, k
	for t.nodes[a].depth > t.nodes[b].depth {
		a = t.nodes[a].parent
	}
	for t.nodes[b].depth > t.nodes[a].depth {
		b = t.nodes[b].parent
	}
	for a != b {
		if a == Source || b == Source {
			return 0 // different roots: no shared resistance
		}
		a = t.nodes[a].parent
		b = t.nodes[b].parent
	}
	if a == Source {
		return 0
	}
	return t.PathResistance(a)
}

// DownstreamC returns, for every node i, the total capacitance of the
// subtree rooted at i (including C(i) itself). This is the one-pass
// upward traversal used by the O(N) Elmore computation: one serial
// children-first sweep over the compiled structure-of-arrays plan.
func (t *Tree) DownstreamC() []float64 {
	cp := Compile(t)
	out := make([]float64, len(t.nodes))
	n := cp.N()
	down := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		d := cp.C[i]
		for ch := cp.ChildStart[i]; ch < cp.ChildStart[i+1]; ch++ {
			d += down[ch]
		}
		down[i] = d
		out[cp.ToUser[i]] = d
	}
	return out
}

// Subtree returns a new Tree consisting of node i and all its
// descendants, with node i as the sole root (its resistance preserved as
// the root resistance). Node names are preserved.
func (t *Tree) Subtree(i int) (*Tree, error) {
	b := NewBuilder()
	var add func(j, parent int) error
	add = func(j, parent int) error {
		var id int
		var err error
		if parent == Source {
			id, err = b.Root(t.nodes[j].name, t.nodes[j].r, t.nodes[j].c)
		} else {
			id, err = b.Attach(parent, t.nodes[j].name, t.nodes[j].r, t.nodes[j].c)
		}
		if err != nil {
			return err
		}
		for _, ch := range t.nodes[j].children {
			if err := add(ch, id); err != nil {
				return err
			}
		}
		return nil
	}
	if err := add(i, Source); err != nil {
		return nil, err
	}
	return b.Build()
}

// String renders the tree topology as an indented outline, one node per
// line, with resistances and capacitances in engineering notation.
func (t *Tree) String() string {
	var sb strings.Builder
	var walk func(i, indent int)
	walk = func(i, indent int) {
		fmt.Fprintf(&sb, "%s%s: R=%s C=%s\n",
			strings.Repeat("  ", indent), t.nodes[i].name,
			FormatOhms(t.nodes[i].r), FormatFarads(t.nodes[i].c))
		for _, ch := range t.nodes[i].children {
			walk(ch, indent+1)
		}
	}
	for _, r := range t.Roots() {
		walk(r, 0)
	}
	return sb.String()
}

// Names returns all node names in index order.
func (t *Tree) Names() []string {
	names := make([]string, len(t.nodes))
	for i := range t.nodes {
		names[i] = t.nodes[i].name
	}
	return names
}

// Validate re-checks the structural invariants of the tree: positive
// finite resistances, nonnegative finite capacitances, at least one node
// with nonzero capacitance, consistent parent/child links and depths.
// Build always returns a valid tree; Validate exists to catch invalid
// in-place edits (for example SetC-ing every capacitor to zero).
func (t *Tree) Validate() error {
	if len(t.nodes) == 0 {
		return fmt.Errorf("rctree: empty tree")
	}
	anyC := false
	for i := range t.nodes {
		n := &t.nodes[i]
		if err := checkR(n.r); err != nil {
			return fmt.Errorf("rctree: node %q: %w", n.name, err)
		}
		if err := checkC(n.c); err != nil {
			return fmt.Errorf("rctree: node %q: %w", n.name, err)
		}
		if n.c > 0 {
			anyC = true
		}
		if n.parent != Source {
			if n.parent < 0 || n.parent >= len(t.nodes) {
				return fmt.Errorf("rctree: node %q: parent index %d out of range", n.name, n.parent)
			}
			if t.nodes[n.parent].depth+1 != n.depth {
				return fmt.Errorf("rctree: node %q: inconsistent depth", n.name)
			}
		} else if n.depth != 1 {
			return fmt.Errorf("rctree: root node %q: depth %d != 1", n.name, n.depth)
		}
		for _, ch := range n.children {
			if ch < 0 || ch >= len(t.nodes) || t.nodes[ch].parent != i {
				return fmt.Errorf("rctree: node %q: inconsistent child link", n.name)
			}
		}
	}
	if !anyC {
		return fmt.Errorf("rctree: tree has no capacitance (all C are zero)")
	}
	return nil
}

// ValidateR reports whether r is a legal element resistance (positive
// and finite) — the same check SetR and Build apply, exported so
// engines that shadow a tree's values (moments.Incremental) can enforce
// the identical contract without round-tripping through the tree.
func ValidateR(r float64) error { return checkR(r) }

// ValidateC is ValidateR for capacitances: nonnegative and finite.
func ValidateC(c float64) error { return checkC(c) }

func checkR(r float64) error {
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return fmt.Errorf("resistance must be finite, got %v", r)
	}
	if r <= 0 {
		return fmt.Errorf("resistance must be positive, got %v", r)
	}
	return nil
}

func checkC(c float64) error {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("capacitance must be finite, got %v", c)
	}
	if c < 0 {
		return fmt.Errorf("capacitance must be nonnegative, got %v", c)
	}
	return nil
}

// Builder constructs a Tree incrementally. The zero value is not usable;
// create one with NewBuilder.
type Builder struct {
	nodes  []node
	byName map[string]int
	err    error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{byName: make(map[string]int)}
}

// Root adds a node attached directly to the voltage source through
// resistance r, carrying grounded capacitance c. It returns the new
// node's index.
func (b *Builder) Root(name string, r, c float64) (int, error) {
	return b.add(name, Source, r, c)
}

// Attach adds a node as a child of parent (a previously returned index)
// through resistance r, carrying grounded capacitance c. It returns the
// new node's index.
func (b *Builder) Attach(parent int, name string, r, c float64) (int, error) {
	if parent < 0 || parent >= len(b.nodes) {
		err := fmt.Errorf("rctree: attach %q: parent index %d out of range [0,%d)", name, parent, len(b.nodes))
		b.fail(err)
		return -1, err
	}
	return b.add(name, parent, r, c)
}

// MustRoot is Root for hand-built circuits in tests and examples; it
// panics on error.
func (b *Builder) MustRoot(name string, r, c float64) int {
	id, err := b.Root(name, r, c)
	if err != nil {
		panic(err)
	}
	return id
}

// MustAttach is Attach for hand-built circuits; it panics on error.
func (b *Builder) MustAttach(parent int, name string, r, c float64) int {
	id, err := b.Attach(parent, name, r, c)
	if err != nil {
		panic(err)
	}
	return id
}

func (b *Builder) add(name string, parent int, r, c float64) (int, error) {
	if name == "" {
		name = fmt.Sprintf("n%d", len(b.nodes)+1)
	}
	if _, dup := b.byName[name]; dup {
		err := fmt.Errorf("rctree: duplicate node name %q", name)
		b.fail(err)
		return -1, err
	}
	if err := checkR(r); err != nil {
		err = fmt.Errorf("rctree: node %q: %w", name, err)
		b.fail(err)
		return -1, err
	}
	if err := checkC(c); err != nil {
		err = fmt.Errorf("rctree: node %q: %w", name, err)
		b.fail(err)
		return -1, err
	}
	id := len(b.nodes)
	depth := 1
	if parent != Source {
		depth = b.nodes[parent].depth + 1
	}
	b.nodes = append(b.nodes, node{name: name, parent: parent, r: r, c: c, depth: depth})
	if parent != Source {
		b.nodes[parent].children = append(b.nodes[parent].children, id)
	}
	b.byName[name] = id
	return id, nil
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Err returns the first error recorded by the builder, if any. It allows
// chained Must-free construction with a single check before Build.
func (b *Builder) Err() error { return b.err }

// Build finalizes the tree. It returns an error if any prior operation
// failed or if the resulting circuit is degenerate (empty, or entirely
// capacitance-free).
func (b *Builder) Build() (*Tree, error) {
	if b.err != nil {
		return nil, b.err
	}
	t := &Tree{
		nodes:  b.nodes,
		byName: b.byName,
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.computeOrders()
	// Detach the builder so further use cannot alias the built tree.
	b.nodes = nil
	b.byName = make(map[string]int)
	return t, nil
}

func (t *Tree) computeOrders() {
	n := len(t.nodes)
	for i := range t.nodes {
		if t.nodes[i].parent == Source {
			t.roots = append(t.roots, i)
		}
	}
	t.pre = make([]int, 0, n)
	t.post = make([]int, 0, n)
	// Iterative DFS to keep very deep chains (used in benches) from
	// exhausting the goroutine stack.
	type frame struct {
		node  int
		child int
	}
	var stack []frame
	for _, r := range t.Roots() {
		stack = append(stack, frame{node: r})
		t.pre = append(t.pre, r)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			kids := t.nodes[f.node].children
			if f.child < len(kids) {
				ch := kids[f.child]
				f.child++
				t.pre = append(t.pre, ch)
				stack = append(stack, frame{node: ch})
				continue
			}
			t.post = append(t.post, f.node)
			stack = stack[:len(stack)-1]
		}
	}
}

// Fingerprint returns a 64-bit FNV-1a hash of the tree's complete
// electrical identity: node count, names, parent links, and the exact
// bit patterns of every resistance and capacitance. Two trees with
// equal fingerprints are — up to hash collision — the same circuit, so
// derived artifacts (moment sets, analyses) may be shared between them.
//
// Mutation contract: Fingerprint is computed from the tree's CURRENT
// values on every call — it is never cached on the tree — so a
// SetR/SetC/SetValues edit changes the fingerprint the next time it is
// asked for. Consumers that key derived artifacts by fingerprint
// (batch.Cache) therefore stay correct across mutations as long as they
// re-fingerprint per request; what they cannot survive is a mutation
// racing a request on the same *Tree, or a caller reusing a fingerprint
// VALUE captured before an edit. The rules:
//
//   - Recompute, never cache: take the fingerprint at the moment a
//     derived artifact is requested, not earlier.
//   - Quiesce before mutating: do not SetR/SetC a tree while another
//     goroutine may be fingerprinting or analyzing it; mutate between
//     batches, or mutate a Clone.
//   - After a mutation, previously derived artifacts describe the OLD
//     circuit. They remain internally consistent (they snapshot values)
//     but must be looked up under the old fingerprint only.
func (t *Tree) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (x >> s) & 0xff
			h *= prime
		}
	}
	mix(uint64(len(t.nodes)))
	for i := range t.nodes {
		n := &t.nodes[i]
		// Length-prefix the name so its bytes cannot be confused with
		// the fixed-width fields that follow: without it, shifting
		// bytes between a name and the adjacent mixed fields (or an
		// adjacent name) can produce the same byte stream for two
		// different circuits — a cache-poisoning hazard for consumers
		// that share derived artifacts by fingerprint.
		mix(uint64(len(n.name)))
		for j := 0; j < len(n.name); j++ {
			h ^= uint64(n.name[j])
			h *= prime
		}
		mix(uint64(n.parent) + 1) // +1 keeps Source (-1) distinct cheaply
		mix(math.Float64bits(n.r))
		mix(math.Float64bits(n.c))
	}
	return h
}

// SortedNames returns all node names sorted lexicographically; useful for
// deterministic report output.
func (t *Tree) SortedNames() []string {
	names := t.Names()
	sort.Strings(names)
	return names
}

// AddCap adds capacitance to a node already added to the builder —
// used by lumping code that deposits pi-section half-capacitances onto
// existing vertices. c must be nonnegative and finite.
func (b *Builder) AddCap(node int, c float64) error {
	if node < 0 || node >= len(b.nodes) {
		err := fmt.Errorf("rctree: AddCap: node index %d out of range [0,%d)", node, len(b.nodes))
		b.fail(err)
		return err
	}
	if err := checkC(c); err != nil {
		err = fmt.Errorf("rctree: AddCap node %q: %w", b.nodes[node].name, err)
		b.fail(err)
		return err
	}
	b.nodes[node].c += c
	return nil
}

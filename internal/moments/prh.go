package moments

import (
	"elmore/internal/rctree"
)

// PRHTerms carries the three per-tree / per-node quantities that enter
// the Penfield-Rubinstein-Horowitz step-response bounds (paper eq. 16):
//
//	T_P     = sum_k R_kk C_k          (one per tree)
//	T_D(i)  = sum_k R_ki C_k          (the Elmore delay)
//	T_R(i)  = sum_k R_ki^2 C_k / R_ii
//
// All are computed exactly, and all in O(N): T_D and T_R(i) for every
// node come out of one pre-order sweep (see prhInto), T_P out of one
// reduction, so the accessors are array reads.
type PRHTerms struct {
	tree *rctree.Tree
	TP   float64   // sum_k R_kk C_k
	TD   []float64 // Elmore delays, indexed by node
	rkk  []float64 // path resistance R_kk per node
	tr   []float64 // T_R per node
}

// ComputePRH computes the PRH bound terms for a tree. The sweeps run on
// the compiled plan like the other O(N) traversals; the T_P reduction
// keeps the historical pre-order summation order so results are
// reproducible across releases.
//
// Allocation shape: the three retained per-node arrays (TD, rkk, tr)
// share one user-indexed backing, and the two compiled-order sweep
// buffers share another that dies with this call — three allocations
// total. The Elmore and path-resistance kernels are the same
// gather-form expressions ElmoreDelays and Tree.DownstreamC evaluate,
// so those terms are bit-identical to computing each independently.
func ComputePRH(t *rctree.Tree) *PRHTerms {
	return ComputePRHWith(t, nil)
}

// ComputePRHWith is ComputePRH drawing its two compiled-order sweep
// buffers from the caller's arena instead of allocating them — the
// per-worker fast path of the batch engine. The retained per-node
// arrays (TD, rkk, tr) always get their own backing, so the returned
// PRHTerms may outlive the arena. A nil arena makes this identical to
// ComputePRH, and results are bit-identical either way (the kernels
// write every scratch slot before reading it).
func ComputePRHWith(t *rctree.Tree, ar *Arena) *PRHTerms {
	n := t.N()
	cp := rctree.Compile(t)
	user := make([]float64, 3*n)
	p := &PRHTerms{
		tree: t,
		TD:   user[0:n:n],
		rkk:  user[n : 2*n : 2*n],
		tr:   user[2*n : 3*n : 3*n],
	}
	scratch := ar.scratch(2 * n)
	prhInto(cp, p.TD, p.rkk, p.tr, scratch[:n], scratch[n:])
	c, from := cp.C, cp.FromUser
	for _, i := range t.PreOrder() {
		p.TP += p.rkk[i] * c[from[i]]
	}
	return p
}

// prhInto runs the PRH sweeps on the compiled plan:
//
//  1. upward: downC[i] = subtree capacitance (the Tree.DownstreamC
//     kernel);
//  2. downward, one fused pass: per node, from its parent's values, the
//     Elmore delay (the elmoreInto kernel, accumulated in place over
//     downC) to td, the path resistance R_ii = R_pp + r_i to rkk, and
//     S(i) = sum_k R_ki^2 C_k to tr;
//  3. T_R(i) = S(i)/R_ii, in place over tr.
//
// The S recurrence: capacitors below i see R_ki = R_ii where they saw
// R_pp from p, everything else sees the same shared resistance from
// both, so S(i) = S(p) + (R_ii^2 - R_pp^2)·Cdown(i), with S = R = 0
// above a root. The difference of squares is evaluated as
// r_i·(R_ii + R_pp), which never cancels. trStep is that expression,
// shared with the incremental engine's order-1 sweeps so both engines
// produce the same bits. S lives in the retained tr array until pass 3,
// so the sweep needs no third scratch buffer.
//
// Pass 2 reads downC[i] before overwriting it with the Elmore
// accumulator, and a node's parent is always finished before the node
// itself, so the in-place reuse is safe. No scratch needs zeroing:
// every slot is written before it is read.
func prhInto(cp *rctree.Compiled, td, rkk, tr, downC, rkkC []float64) {
	n := cp.N()
	r, c, cs, par, toUser := cp.R, cp.C, cp.ChildStart, cp.Parent, cp.ToUser
	for i := n - 1; i >= 0; i-- {
		d := c[i]
		for ch := cs[i]; ch < cs[i+1]; ch++ {
			d += downC[ch]
		}
		downC[i] = d
	}
	for i := 0; i < n; i++ {
		d := downC[i]
		e, a := r[i]*d, r[i]
		var s float64
		if p := par[i]; p != rctree.Source {
			e += downC[p]
			a += rkkC[p]
			s = trStep(tr[toUser[p]], r[i], a, rkkC[p], d)
		} else {
			s = trStep(0, r[i], a, 0, d)
		}
		downC[i], rkkC[i] = e, a
		u := toUser[i]
		td[u], rkk[u], tr[u] = e, a, s
	}
	for u, a := range rkk {
		tr[u] /= a
	}
}

// trStep advances the T_R numerator S = sum_k R_ki^2 C_k from a parent
// (S = sp, path resistance rp) to its child (series resistance ri,
// path resistance a = rp + ri, downstream capacitance d).
func trStep(sp, ri, a, rp, d float64) float64 {
	return sp + ri*(a+rp)*d
}

// PathResistance returns R_ii for node i (cached).
func (p *PRHTerms) PathResistance(i int) float64 { return p.rkk[i] }

// TR returns T_R(i) = sum_k R_ki^2 C_k / R_ii (cached).
func (p *PRHTerms) TR(i int) float64 { return p.tr[i] }

// TRDirect computes T_R(i) by the O(N) definition as an independent
// oracle for tests.
func TRDirect(t *rctree.Tree, i int) float64 {
	var sum float64
	for k := 0; k < t.N(); k++ {
		rki := t.SharedPathResistance(i, k)
		sum += rki * rki * t.C(k)
	}
	return sum / t.PathResistance(i)
}

// TPDirect computes T_P by the O(N * depth) definition as an
// independent oracle for tests.
func TPDirect(t *rctree.Tree) float64 {
	var sum float64
	for k := 0; k < t.N(); k++ {
		sum += t.PathResistance(k) * t.C(k)
	}
	return sum
}

package sim

import (
	"fmt"
	"math"

	"elmore/internal/faultinject"
	"elmore/internal/health"
	"elmore/internal/rctree"
	"elmore/internal/signal"
	"elmore/internal/telemetry"
)

// treeLU is the zero-fill-in LU factorization of a (possibly
// asymmetric) matrix with the tree's sparsity, in compiled index
// space: a diagonal plus, for every node i with parent p, the entries
// M[i][p] (rowChild) and M[p][i] (rowParent). Eliminating children
// before parents touches only the parent's diagonal, so there is no
// fill-in and no pivoting — safe for the diagonally dominant
// M-matrices produced by MNA stamping. Every pass is one serial sweep
// over the compiled order.
type treeLU struct {
	cpl  *rctree.Compiled
	d    []float64 // eliminated pivots
	dinv []float64 // reciprocal pivots (back substitution multiplies)
	mult []float64 // per-child multiplier: M[p][i] / d[i]
	cp   []float64 // original M[i][parent] entries
}

// factorCompiled eliminates in children-before-parents order. diag,
// rowChild and rowParent are compiled-indexed; rowChild is retained by
// the returned factorization (not copied). name resolves a user node
// index to its name for the pivot error message.
func factorCompiled(cpl *rctree.Compiled, diag, rowChild, rowParent []float64, name func(int) string) (*treeLU, error) {
	n := cpl.N()
	f := &treeLU{
		cpl:  cpl,
		d:    make([]float64, n),
		dinv: make([]float64, n),
		mult: make([]float64, n),
		cp:   rowChild,
	}
	bad := -1 // first non-positive pivot in elimination order
	cs := cpl.ChildStart
	for i := n - 1; i >= 0; i-- {
		d := diag[i]
		for ch := cs[i]; ch < cs[i+1]; ch++ {
			d -= f.mult[ch] * rowChild[ch]
		}
		f.d[i] = d
		if d <= 0 {
			if bad < 0 {
				bad = i
			}
			continue // the error below aborts; mult stays 0
		}
		f.dinv[i] = 1 / d
		if cpl.Parent[i] != rctree.Source {
			f.mult[i] = rowParent[i] / d
		}
	}
	if bad >= 0 {
		return nil, fmt.Errorf("sim: non-positive pivot %g at node %q",
			f.d[bad], name(int(cpl.ToUser[bad])))
	}
	return f, nil
}

// solve solves M x = rhs in place (rhs is overwritten with x), in
// compiled index space.
func (f *treeLU) solve(rhs []float64) {
	f.forward(rhs, rhs)
	f.backward(rhs)
}

// forward performs elimination (children before parents), iterating
// descending. dst receives the eliminated vector; src supplies the raw
// RHS (dst and src may alias for an in-place solve — each slot is read
// before it is written).
func (f *treeLU) forward(dst, src []float64) {
	cs := f.cpl.ChildStart
	for i := len(dst) - 1; i >= 0; i-- {
		x := src[i]
		for ch := cs[i]; ch < cs[i+1]; ch++ {
			x -= f.mult[ch] * dst[ch]
		}
		dst[i] = x
	}
}

// backward performs back substitution (parents before children),
// iterating ascending: each child row still couples to its parent's
// already-computed solution.
func (f *treeLU) backward(rhs []float64) {
	par := f.cpl.Parent
	for i := range rhs {
		x := rhs[i]
		if p := par[i]; p != rctree.Source {
			x -= f.cp[i] * rhs[p]
		}
		rhs[i] = x * f.dinv[i]
	}
}

// stampCompiled assembles the tree-sparse θ-method system matrix for
// one step size into diag/rowChild/rowParent (compiled-indexed).
func stampCompiled(cpl *rctree.Compiled, theta, g, cOverDt, diag, rowChild, rowParent []float64) {
	cs := cpl.ChildStart
	par := cpl.Parent
	for i := range diag {
		d := cOverDt[i] + theta[i]*g[i]
		for ch := cs[i]; ch < cs[i+1]; ch++ {
			d += theta[i] * g[ch]
		}
		diag[i] = d
		if par[i] != rctree.Source {
			rowChild[i] = -theta[i] * g[i]
			rowParent[i] = -theta[par[i]] * g[i]
		}
	}
}

// PlanOptions fixes the quantities a Plan bakes into its factorization.
type PlanOptions struct {
	// DT is the fixed time step; it must be positive and finite.
	DT float64
	// Method selects the integrator (default Trapezoidal).
	Method Method
}

// Plan is a reusable transient-simulation plan: the tree compiled to
// the structure-of-arrays layout, the MNA system stamped, and the
// zero-fill-in LU factorization computed, once, for a fixed
// (tree, DT, Method) triple. A Plan is immutable after NewPlan and
// safe to share between goroutines; each goroutine obtains its own
// Runner (mutable workspaces) and executes any number of inputs and
// probe sets with zero steady-state allocations.
//
// Invalidation contract: like a cached Fingerprint, a Plan snapshots
// the tree's element values. SetR/SetC on the tree after NewPlan do
// not propagate into the plan — build a new Plan after mutating.
type Plan struct {
	tree   *rctree.Tree
	cp     *rctree.Compiled
	method Method
	dt     float64

	// Per-step stamping runs as an elementwise recurrence instead of a
	// conductance matvec: row i of the previous solve gives
	// (G v)_i = (rhs[i] - (C/dt)_i v_i) / θ_i, so the next RHS is
	// rhs'[i] = scale[i]*v[i] - ratio[i]*rhs[i] + source terms, with
	// ratio = (1-θ)/θ and scale = (C/dt)(1+ratio). Rows with θ = 1
	// (backward Euler, algebraic C = 0 rows) have ratio 0 and the
	// recurrence degenerates to the direct stamp.
	scale    []float64 // (C/dt)(1+ratio), compiled order
	ratio    []float64 // (1-θ)/θ
	bTheta   []float64 // θ·g source coupling (roots only)
	bOmTheta []float64 // (1-θ)·g source coupling (roots only)
	rootEnd  int       // roots occupy compiled indices [0, rootEnd)
	lu       *treeLU

	maxTD float64 // largest Elmore delay, for horizon estimation
}

// NewPlan compiles, stamps, and factors a transient plan for the tree.
func NewPlan(t *rctree.Tree, opts PlanOptions) (*Plan, error) {
	if err := faultinject.Fire("sim.factor"); err != nil {
		return nil, err
	}
	dt := opts.DT
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return nil, fmt.Errorf("sim: invalid time step %v", dt)
	}
	var aMethod float64
	switch opts.Method {
	case Trapezoidal:
		aMethod = 0.5
	case BackwardEuler:
		aMethod = 1
	default:
		return nil, fmt.Errorf("sim: unknown method %v", opts.Method)
	}
	cp := rctree.Compile(t)
	n := cp.N()
	p := &Plan{
		tree:     t,
		cp:       cp,
		method:   opts.Method,
		dt:       dt,
		scale:    make([]float64, n),
		ratio:    make([]float64, n),
		bTheta:   make([]float64, n),
		bOmTheta: make([]float64, n),
	}
	// Per-row θ-method: capacitive rows use the selected method's
	// weight; zero-capacitance (algebraic) rows always use θ = 1 — the
	// trapezoidal rule is only marginally stable on algebraic
	// constraints.
	theta := make([]float64, n)
	g := make([]float64, n)
	cOverDt := make([]float64, n)
	for i := 0; i < n; i++ {
		if cp.C[i] == 0 {
			theta[i] = 1
		} else {
			theta[i] = aMethod
		}
		g[i] = 1 / cp.R[i]
		cOverDt[i] = cp.C[i] / dt
		p.ratio[i] = (1 - theta[i]) / theta[i]
		p.scale[i] = cOverDt[i] * (1 + p.ratio[i])
		if cp.Parent[i] == rctree.Source {
			p.bTheta[i] = theta[i] * g[i]
			p.bOmTheta[i] = (1 - theta[i]) * g[i]
			if i >= p.rootEnd {
				p.rootEnd = i + 1
			}
		}
	}
	diag := make([]float64, n)
	rowChild := make([]float64, n)
	rowParent := make([]float64, n)
	stampCompiled(cp, theta, g, cOverDt, diag, rowChild, rowParent)
	lu, err := factorCompiled(cp, diag, rowChild, rowParent, t.Name)
	if err != nil {
		return nil, err
	}
	p.lu = lu
	p.maxTD = maxElmore(cp)
	telemetry.C("sim.plans").Inc()
	telemetry.C("sim.lu_factorizations").Inc()
	return p, nil
}

// maxElmore computes the largest Elmore delay on the compiled arrays
// (serial: NewPlan cost is dominated by stamping and factoring).
func maxElmore(cp *rctree.Compiled) float64 {
	n := cp.N()
	down := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		d := cp.C[i]
		for ch := cp.ChildStart[i]; ch < cp.ChildStart[i+1]; ch++ {
			d += down[ch]
		}
		down[i] = d
	}
	maxTD := 0.0
	td := down // td[i] overwrites down[i] only after it is consumed
	for i := 0; i < n; i++ {
		a := cp.R[i] * down[i]
		if p := cp.Parent[i]; p != rctree.Source {
			a += td[p]
		}
		td[i] = a
		if a > maxTD {
			maxTD = a
		}
	}
	return maxTD
}

// DT returns the fixed step the plan was factored for.
func (p *Plan) DT() float64 { return p.dt }

// Method returns the integration method the plan was stamped with.
func (p *Plan) Method() Method { return p.method }

// Tree returns the tree the plan was compiled from.
func (p *Plan) Tree() *rctree.Tree { return p.tree }

// Horizon estimates a settling horizon for the planned tree under the
// given input: ten times the largest Elmore delay plus the input rise
// time — the same policy Run applies when Options.TEnd is zero.
func (p *Plan) Horizon(in signal.Signal) float64 {
	if in == nil {
		in = signal.Step{}
	}
	return 10*p.maxTD + 2*in.RiseTime()
}

// RunOptions configures one execution of a plan.
type RunOptions struct {
	// TEnd is the simulation horizon. If <= 0, Horizon(input) is used.
	TEnd float64
	// Probes lists the node indices (user indices of the planned tree)
	// to record. Empty records all nodes.
	Probes []int
}

// Run executes the plan once on a fresh Runner. For repeated
// executions (characterization sweeps, batch jobs) hold a Runner and
// call its Run/RunInto to reuse workspaces.
func (p *Plan) Run(in signal.Signal, opts RunOptions) (*Result, error) {
	return p.Runner().Run(in, opts)
}

// Runner carries the mutable per-goroutine state needed to execute a
// Plan: the voltage state vector, the persistent stamped RHS (the
// recurrence state), and the solve workspace. Many Runners may execute
// the same Plan concurrently; a single Runner must not.
type Runner struct {
	plan *Plan
	v    []float64 // current node voltages (compiled order)
	rhs  []float64 // stamped RHS of the step just solved (recurrence state)
	x    []float64 // solve workspace; becomes the next voltages
}

// Runner returns a new runner for the plan.
func (p *Plan) Runner() *Runner {
	n := p.cp.N()
	return &Runner{
		plan: p,
		v:    make([]float64, n),
		rhs:  make([]float64, n),
		x:    make([]float64, n),
	}
}

// stamp advances the RHS recurrence elementwise:
// rhs[i] = scale[i]*v[i] - ratio[i]*rhs[i]. The per-step source term
// is added to the root rows afterwards by the caller.
func (r *Runner) stamp() {
	scale, ratio := r.plan.scale, r.plan.ratio
	v, rhs := r.v, r.rhs
	for i := range rhs {
		rhs[i] = scale[i]*v[i] - ratio[i]*rhs[i]
	}
}

// Run executes the plan for one input and returns a fresh Result.
func (r *Runner) Run(in signal.Signal, opts RunOptions) (*Result, error) {
	res := &Result{}
	if err := r.RunInto(in, opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto executes the plan for one input, writing samples into res.
// res is reset and its buffers (sample rows, probe map, cached
// waveforms) are reused when large enough, so steady-state sweeps that
// recycle one Result allocate nothing. res must not alias a Result
// still in use elsewhere.
func (r *Runner) RunInto(in signal.Signal, opts RunOptions, res *Result) error {
	p := r.plan
	if in == nil {
		in = signal.Step{}
	}
	if err := signal.Validate(in); err != nil {
		return err
	}
	tEnd := opts.TEnd
	if tEnd <= 0 {
		tEnd = p.Horizon(in)
	}
	// The 1e-9 slack absorbs float division noise (20ns/10ps must be
	// 2000 steps, not 2001).
	steps := int(math.Ceil(tEnd/p.dt - 1e-9))
	if steps < 1 {
		return fmt.Errorf("sim: horizon %v shorter than step %v", tEnd, p.dt)
	}

	cp := p.cp
	n := cp.N()
	if err := res.reset(opts.Probes, n, steps, cp.FromUser); err != nil {
		return err
	}

	for i := range r.v {
		r.v[i] = 0 // start relaxed
		r.rhs[i] = 0
	}
	res.record(0, r.v)

	dt := p.dt
	inject := faultinject.Enabled()
	for step := 1; step <= steps; step++ {
		if inject {
			if err := faultinject.Fire("sim.step"); err != nil {
				return err
			}
			// Poisoning one state slot is enough: NaN propagates through
			// every later step and checkFinalState (or the caller's
			// waveform consumers) will see it.
			r.v[0] = faultinject.Poison("sim.state", r.v[0])
		}
		uPrev := in.Eval(float64(step-1) * dt)
		uCur := in.Eval(float64(step) * dt)
		r.stamp()
		// Source coupling enters only at the root rows.
		for i := 0; i < p.rootEnd; i++ {
			r.rhs[i] += p.bTheta[i]*uCur + p.bOmTheta[i]*uPrev
		}
		p.lu.forward(r.x, r.rhs)
		p.lu.backward(r.x)
		r.v, r.x = r.x, r.v
		res.record(step, r.v)
	}
	for step := 0; step <= steps; step++ {
		res.Times[step] = float64(step) * dt
	}
	telemetry.C("sim.plan_runs").Inc()
	telemetry.C("sim.steps").Add(int64(steps))
	return r.checkFinalState()
}

// checkFinalState is the health sentinel on the integrated waveforms: a
// NaN or Inf anywhere in the element values or the input poisons the
// recurrence and — because NaN propagates forward through every later
// step — is guaranteed to still be present in the final state vector,
// so one O(N) scan of r.v after the loop catches it without touching
// the per-step path. The scan runs only when a health monitor is
// installed; under a strict monitor the violation fails the run.
func (r *Runner) checkFinalState() error {
	if !health.Enabled() {
		return nil
	}
	bad, first := 0, -1
	for i, v := range r.v {
		if !health.IsFinite(v) {
			if bad == 0 {
				first = i
			}
			bad++
		}
	}
	if bad == 0 {
		return nil
	}
	p := r.plan
	t := p.Tree()
	user := int(p.cp.ToUser[first])
	return health.Violate(health.Event{
		Check:  "sim.nonfinite_state",
		Tree:   health.TreeLabel(t.N(), t.Fingerprint()),
		Node:   t.Name(user),
		Detail: fmt.Sprintf("%d non-finite node voltages in the final state", bad),
		Values: map[string]health.F{"v": health.F(r.v[first])},
	})
}

// reset prepares the result for steps+1 samples of the given probes
// (user indices; nil means all n nodes), reusing buffers where
// possible. fromUser maps each probe to the compiled index record()
// reads from.
func (res *Result) reset(probes []int, n, steps int, fromUser []int32) error {
	rows := len(probes)
	if rows == 0 {
		rows = n
	}
	if cap(res.Times) >= steps+1 {
		res.Times = res.Times[:steps+1]
	} else {
		res.Times = make([]float64, steps+1)
	}
	if res.probes == nil {
		res.probes = make(map[int]int, rows)
	} else {
		clear(res.probes)
	}
	if cap(res.values) >= rows {
		res.values = res.values[:rows]
	} else {
		res.values = make([][]float64, rows)
	}
	if cap(res.srcRow) >= rows {
		res.srcRow = res.srcRow[:rows]
	} else {
		res.srcRow = make([]int32, rows)
	}
	// Cached waveforms describe the previous run's samples; drop them.
	if cap(res.wfs) >= rows {
		res.wfs = res.wfs[:rows]
		for i := range res.wfs {
			res.wfs[i] = nil
		}
	} else {
		res.wfs = nil
	}
	for row := 0; row < rows; row++ {
		node := row
		if len(probes) != 0 {
			node = probes[row]
		}
		if node < 0 || node >= n {
			return fmt.Errorf("sim: probe index %d out of range [0,%d)", node, n)
		}
		res.probes[node] = row
		res.srcRow[row] = fromUser[node]
		if cap(res.values[row]) >= steps+1 {
			res.values[row] = res.values[row][:steps+1]
		} else {
			res.values[row] = make([]float64, steps+1)
		}
	}
	return nil
}

// record samples the state vector (compiled order) into every probe
// row at the given step.
func (res *Result) record(step int, v []float64) {
	for row, src := range res.srcRow {
		res.values[row][step] = v[src]
	}
}

package moments

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"elmore/internal/rctree"
	"elmore/internal/topo"
)

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(math.Abs(a)+math.Abs(b)+1e-300)
}

// singleRC returns the one-node tree: source -R- node(C).
func singleRC(t *testing.T, r, c float64) *rctree.Tree {
	t.Helper()
	b := rctree.NewBuilder()
	b.MustRoot("n1", r, c)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// twoNodeChain returns source -R1- n1(C1) -R2- n2(C2).
func twoNodeChain(t *testing.T, r1, c1, r2, c2 float64) *rctree.Tree {
	t.Helper()
	b := rctree.NewBuilder()
	n1 := b.MustRoot("n1", r1, c1)
	b.MustAttach(n1, "n2", r2, c2)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestSingleRCMoments(t *testing.T) {
	// H(s) = 1/(1 + sRC) => m_q = (-RC)^q.
	const r, c = 1000.0, 1e-12
	tree := singleRC(t, r, c)
	s, err := Compute(tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	rc := r * c
	for q := 0; q <= 4; q++ {
		want := math.Pow(-rc, float64(q))
		if got := s.M(q, 0); !approx(got, want, 1e-12) {
			t.Errorf("m_%d = %v, want %v", q, got, want)
		}
	}
	if got := s.Elmore(0); !approx(got, rc, 1e-12) {
		t.Errorf("Elmore = %v, want %v", got, rc)
	}
	// Exponential density: mu2 = (RC)^2, mu3 = 2 (RC)^3, skew = 2.
	if got := s.Mu2(0); !approx(got, rc*rc, 1e-12) {
		t.Errorf("mu2 = %v, want %v", got, rc*rc)
	}
	if got := s.Mu3(0); !approx(got, 2*rc*rc*rc, 1e-12) {
		t.Errorf("mu3 = %v, want %v", got, 2*rc*rc*rc)
	}
	if got := s.Skewness(0); !approx(got, 2, 1e-12) {
		t.Errorf("skew = %v, want 2", got)
	}
	if got := s.Sigma(0); !approx(got, rc, 1e-12) {
		t.Errorf("sigma = %v, want %v", got, rc)
	}
}

func TestComputeRejectsBadOrder(t *testing.T) {
	tree := singleRC(t, 1, 1e-12)
	if _, err := Compute(tree, 0); err == nil {
		t.Errorf("order 0 should be rejected")
	}
}

func TestAppendixBFormulas(t *testing.T) {
	// Paper eq. B3: m1(1) = -R1(C1+C2), m1(2) = -R1(C1+C2) - R2 C2,
	// and eq. 28/29 for the central moments at node 1.
	const r1, c1, r2, c2 = 120.0, 2e-12, 340.0, 0.7e-12
	tree := twoNodeChain(t, r1, c1, r2, c2)
	s, err := Compute(tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.M(1, 0), -r1*(c1+c2); !approx(got, want, 1e-12) {
		t.Errorf("m1(1) = %v, want %v", got, want)
	}
	if got, want := s.M(1, 1), -r1*(c1+c2)-r2*c2; !approx(got, want, 1e-12) {
		t.Errorf("m1(2) = %v, want %v", got, want)
	}
	wantMu2 := r1*r1*(c1*c1+c2*c2) + 2*r1*r1*c1*c2 + 2*r1*r2*c2*c2
	if got := s.Mu2(0); !approx(got, wantMu2, 1e-12) {
		t.Errorf("mu2(1) = %v, want %v", got, wantMu2)
	}
	wantMu3 := 6*r1*r2*c2*c2*(r1*(c1+c2)+r2*c2) + 2*math.Pow(r1*(c1+c2), 3)
	if got := s.Mu3(0); !approx(got, wantMu3, 1e-12) {
		t.Errorf("mu3(1) = %v, want %v", got, wantMu3)
	}
}

func TestDistMoment(t *testing.T) {
	const r, c = 500.0, 2e-12
	tree := singleRC(t, r, c)
	s, err := Compute(tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	rc := r * c
	// Exponential density h(t) = (1/RC) e^{-t/RC}: integral t^q h dt = q! (RC)^q.
	for q := 0; q <= 3; q++ {
		want := factorial(q) * math.Pow(rc, float64(q))
		if got := s.DistMoment(q, 0); !approx(got, want, 1e-12) {
			t.Errorf("M_%d = %v, want %v", q, got, want)
		}
	}
}

func TestElmoreFig1Calibration(t *testing.T) {
	tree := topo.Fig1Tree()
	td := ElmoreDelays(tree)
	cases := map[string]float64{
		"C1": 0.55e-9,
		"C5": 1.20e-9,
		"C7": 0.75e-9,
	}
	for name, want := range cases {
		if got := td[tree.MustIndex(name)]; !approx(got, want, 1e-9) {
			t.Errorf("T_D(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestElmoreLine25Calibration(t *testing.T) {
	tree := topo.Line25Tree()
	td := ElmoreDelays(tree)
	if got := td[tree.MustIndex(topo.Line25NodeA)]; !approx(got, 0.02e-9, 1e-9) {
		t.Errorf("T_D(A) = %v, want 0.02ns", got)
	}
	if got := td[tree.MustIndex(topo.Line25NodeC)]; !approx(got, 1.56e-9, 1e-9) {
		t.Errorf("T_D(C) = %v, want 1.56ns", got)
	}
}

func TestElmoreMatchesDirectOracle(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 40)
		td := ElmoreDelays(tree)
		s, err := Compute(tree, 1)
		if err != nil {
			return false
		}
		for i := 0; i < tree.N(); i++ {
			direct := ElmoreDelayDirect(tree, i)
			if !approx(td[i], direct, 1e-10) || !approx(s.Elmore(i), direct, 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Lemma 2 (paper): mu2 >= 0 and mu3 >= 0 at every node of any RC tree,
// hence skewness gamma >= 0.
func TestLemma2NonnegativeSkew(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 60)
		s, err := Compute(tree, 3)
		if err != nil {
			return false
		}
		for i := 0; i < tree.N(); i++ {
			if s.Mu2(i) < -1e-30 || s.Mu3(i) < -1e-40 {
				return false
			}
			if s.Skewness(i) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Section IV-B: along any root-to-leaf path, mu2 and mu3 are
// nondecreasing (central moments add under convolution with each
// further segment, and each increment is nonnegative).
func TestCentralMomentsGrowDownstream(t *testing.T) {
	f := func(seed int64) bool {
		tree := topo.RandomSmall(seed, 60)
		s, err := Compute(tree, 3)
		if err != nil {
			return false
		}
		for i := 0; i < tree.N(); i++ {
			p := tree.Parent(i)
			if p == rctree.Source {
				continue
			}
			if s.Mu2(i) < s.Mu2(p)*(1-1e-12) {
				return false
			}
			if s.Mu3(i) < s.Mu3(p)*(1-1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMomentsMonotoneDownstream(t *testing.T) {
	// The Elmore delay itself must strictly increase downstream.
	tree := topo.Line25Tree()
	td := ElmoreDelays(tree)
	for i := 1; i < tree.N(); i++ {
		if td[i] <= td[i-1] {
			t.Fatalf("T_D not increasing along line: td[%d]=%v td[%d]=%v", i-1, td[i-1], i, td[i])
		}
	}
}

func TestSigmaZeroClamp(t *testing.T) {
	// Sigma clamps tiny negative mu2 (roundoff) to zero rather than NaN.
	// The one-node tree gives the health note a node to name.
	s := &Set{tree: singleRC(t, 1, 1e-12), order: 2, m: [][]float64{{1}, {0}, {-1e-40}}}
	if got := s.Sigma(0); got != 0 {
		t.Errorf("Sigma = %v, want 0", got)
	}
	if got := s.Skewness(0); got != 0 {
		t.Errorf("Skewness on zero-variance = %v, want 0", got)
	}
}

func TestMPanicsOutOfRange(t *testing.T) {
	tree := singleRC(t, 1, 1e-12)
	s, err := Compute(tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("M(5, 0) should panic")
		}
	}()
	s.M(5, 0)
}

func TestOrderAndTreeAccessors(t *testing.T) {
	tree := singleRC(t, 1, 1e-12)
	s, err := Compute(tree, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Order() != 3 || s.Tree() != tree {
		t.Errorf("accessors wrong")
	}
}

func TestMRejectsBadNodeIndex(t *testing.T) {
	tree := twoNodeChain(t, 100, 1e-12, 50, 1e-12)
	ms, err := Compute(tree, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: expected panic", name)
				return
			}
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, "node index") || !strings.Contains(msg, "out of range") {
				t.Errorf("%s: unhelpful panic message %q", name, msg)
			}
		}()
		f()
	}
	mustPanic("negative index", func() { ms.M(1, -1) })
	mustPanic("index == N", func() { ms.M(1, tree.N()) })
	mustPanic("index past N", func() { ms.M(0, tree.N()+7) })
	// In-range lookups still work after the check.
	if got := ms.M(0, tree.N()-1); got != 1 {
		t.Errorf("M(0, last) = %v, want 1", got)
	}
}

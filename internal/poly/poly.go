// Package poly implements real-coefficient polynomial arithmetic and
// root finding. It exists to serve the AWE (asymptotic waveform
// evaluation) moment-matching package, which needs the roots of small
// characteristic polynomials (degrees 1-6 in practice).
package poly

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Poly is a real polynomial stored coefficient-major:
// p(x) = Coeffs[0] + Coeffs[1] x + ... + Coeffs[n] x^n.
type Poly struct {
	Coeffs []float64
}

// New returns a polynomial with the given coefficients (constant first),
// trimming trailing zero coefficients.
func New(coeffs ...float64) Poly {
	p := Poly{Coeffs: append([]float64(nil), coeffs...)}
	p.trim()
	return p
}

func (p *Poly) trim() {
	n := len(p.Coeffs)
	for n > 1 && p.Coeffs[n-1] == 0 {
		n--
	}
	p.Coeffs = p.Coeffs[:n]
}

// Degree returns the polynomial degree; the zero polynomial has degree 0.
func (p Poly) Degree() int { return len(p.Coeffs) - 1 }

// IsZero reports whether p is identically zero.
func (p Poly) IsZero() bool {
	return len(p.Coeffs) == 0 || (len(p.Coeffs) == 1 && p.Coeffs[0] == 0)
}

// Eval evaluates p at a real point with Horner's method.
func (p Poly) Eval(x float64) float64 {
	var v float64
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		v = v*x + p.Coeffs[i]
	}
	return v
}

// EvalC evaluates p at a complex point with Horner's method.
func (p Poly) EvalC(z complex128) complex128 {
	var v complex128
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		v = v*z + complex(p.Coeffs[i], 0)
	}
	return v
}

// Derivative returns p'.
func (p Poly) Derivative() Poly {
	if p.Degree() == 0 {
		return New(0)
	}
	d := make([]float64, p.Degree())
	for i := 1; i < len(p.Coeffs); i++ {
		d[i-1] = float64(i) * p.Coeffs[i]
	}
	return New(d...)
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	n := len(p.Coeffs)
	if len(q.Coeffs) > n {
		n = len(q.Coeffs)
	}
	out := make([]float64, n)
	for i := range out {
		if i < len(p.Coeffs) {
			out[i] += p.Coeffs[i]
		}
		if i < len(q.Coeffs) {
			out[i] += q.Coeffs[i]
		}
	}
	return New(out...)
}

// Mul returns p * q.
func (p Poly) Mul(q Poly) Poly {
	out := make([]float64, len(p.Coeffs)+len(q.Coeffs)-1)
	for i, a := range p.Coeffs {
		if a == 0 {
			continue
		}
		for j, b := range q.Coeffs {
			out[i+j] += a * b
		}
	}
	return New(out...)
}

// Scale returns s * p.
func (p Poly) Scale(s float64) Poly {
	out := make([]float64, len(p.Coeffs))
	for i, a := range p.Coeffs {
		out[i] = s * a
	}
	return New(out...)
}

// Monic returns p divided by its leading coefficient.
func (p Poly) Monic() (Poly, error) {
	lead := p.Coeffs[len(p.Coeffs)-1]
	if lead == 0 {
		return Poly{}, fmt.Errorf("poly: cannot normalize the zero polynomial")
	}
	return p.Scale(1 / lead), nil
}

// String renders p in human-readable ascending-power form.
func (p Poly) String() string {
	s := ""
	for i, c := range p.Coeffs {
		if c == 0 && len(p.Coeffs) > 1 {
			continue
		}
		if s != "" {
			s += " + "
		}
		switch i {
		case 0:
			s += fmt.Sprintf("%g", c)
		case 1:
			s += fmt.Sprintf("%g*x", c)
		default:
			s += fmt.Sprintf("%g*x^%d", c, i)
		}
	}
	if s == "" {
		s = "0"
	}
	return s
}

// Roots returns all complex roots of p. Degrees 1 and 2 use closed
// forms; higher degrees use the Aberth-Ehrlich simultaneous iteration.
// It returns an error for the zero polynomial or non-convergence.
func (p Poly) Roots() ([]complex128, error) {
	if p.IsZero() {
		return nil, fmt.Errorf("poly: zero polynomial has no well-defined roots")
	}
	switch p.Degree() {
	case 0:
		return nil, nil
	case 1:
		return []complex128{complex(-p.Coeffs[0]/p.Coeffs[1], 0)}, nil
	case 2:
		r1, r2 := Quadratic(p.Coeffs[2], p.Coeffs[1], p.Coeffs[0])
		return []complex128{r1, r2}, nil
	default:
		return p.aberth()
	}
}

// Quadratic returns the two roots of a x^2 + b x + c = 0 (a != 0), using
// the numerically stable citardauq form for the smaller root.
func Quadratic(a, b, c float64) (complex128, complex128) {
	disc := b*b - 4*a*c
	if disc >= 0 {
		sq := math.Sqrt(disc)
		var q float64
		if b >= 0 {
			q = -(b + sq) / 2
		} else {
			q = -(b - sq) / 2
		}
		r1 := q / a
		var r2 float64
		if q != 0 {
			r2 = c / q
		} else {
			r2 = 0
		}
		return complex(r1, 0), complex(r2, 0)
	}
	sq := math.Sqrt(-disc)
	return complex(-b/(2*a), sq/(2*a)), complex(-b/(2*a), -sq/(2*a))
}

// aberth runs the Aberth-Ehrlich method: all roots are iterated
// simultaneously with a Newton step corrected for the other current
// root estimates. Converges cubically for simple roots.
func (p Poly) aberth() ([]complex128, error) {
	monic, err := p.Monic()
	if err != nil {
		return nil, err
	}
	n := monic.Degree()
	d := monic.Derivative()

	// Initial guesses on a circle of radius given by the Cauchy bound,
	// slightly rotated off the real axis so complex-conjugate pairs can
	// separate.
	radius := 0.0
	for i := 0; i < n; i++ {
		if a := math.Abs(monic.Coeffs[i]); a > radius {
			radius = a
		}
	}
	radius = 1 + radius
	roots := make([]complex128, n)
	for k := 0; k < n; k++ {
		angle := 2*math.Pi*float64(k)/float64(n) + 0.35
		roots[k] = complex(radius*math.Cos(angle), radius*math.Sin(angle))
	}

	const maxIter = 500
	for iter := 0; iter < maxIter; iter++ {
		converged := true
		for k := 0; k < n; k++ {
			pv := monic.EvalC(roots[k])
			dv := d.EvalC(roots[k])
			if dv == 0 {
				// Nudge off a critical point.
				roots[k] += complex(1e-8*radius, 1e-8*radius)
				converged = false
				continue
			}
			newton := pv / dv
			var sum complex128
			for j := 0; j < n; j++ {
				if j != k {
					diff := roots[k] - roots[j]
					if diff == 0 {
						diff = complex(1e-12*radius, 0)
					}
					sum += 1 / diff
				}
			}
			denom := 1 - newton*sum
			if denom == 0 {
				denom = complex(1e-12, 0)
			}
			delta := newton / denom
			roots[k] -= delta
			if cmplx.Abs(delta) > 1e-13*(1+cmplx.Abs(roots[k])) {
				converged = false
			}
		}
		if converged {
			return polish(roots), nil
		}
	}
	if atRoundoff(monic, roots) {
		// Clustered roots can stall the step-size test above while
		// every residual is already at the rounding level of evaluating
		// p: the estimates are as good as double precision allows.
		return polish(roots), nil
	}
	return nil, fmt.Errorf("poly: Aberth iteration did not converge for degree %d", n)
}

// atRoundoff reports whether every estimate z has a residual within the
// rounding error of evaluating p at z by Horner's rule:
// |p(z)| <= 8·n·eps·Σ|a_i||z|^i.
func atRoundoff(p Poly, roots []complex128) bool {
	const eps = 0x1p-52
	n := p.Degree()
	for _, z := range roots {
		az := cmplx.Abs(z)
		var scale float64
		for i := n; i >= 0; i-- {
			scale = scale*az + math.Abs(p.Coeffs[i])
		}
		if cmplx.Abs(p.EvalC(z)) > 8*float64(n)*eps*scale {
			return false
		}
	}
	return true
}

// polish snaps nearly-real roots onto the real axis; RC characteristic
// polynomials have strictly real negative roots and downstream code
// relies on detecting them.
func polish(roots []complex128) []complex128 {
	out := make([]complex128, len(roots))
	for i, r := range roots {
		if math.Abs(imag(r)) <= 1e-8*(1+math.Abs(real(r))) {
			out[i] = complex(real(r), 0)
		} else {
			out[i] = r
		}
	}
	return out
}

// RealRoots returns the real parts of the roots of p if all roots are
// (numerically) real, and an error otherwise. Sorted ascending.
func (p Poly) RealRoots() ([]float64, error) {
	roots, err := p.Roots()
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(roots))
	for _, r := range roots {
		if math.Abs(imag(r)) > 1e-7*(1+math.Abs(real(r))) {
			return nil, fmt.Errorf("poly: complex root %v encountered where real roots expected", r)
		}
		out = append(out, real(r))
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, nil
}

// FromRoots builds the monic polynomial with the given real roots.
func FromRoots(roots ...float64) Poly {
	p := New(1)
	for _, r := range roots {
		p = p.Mul(New(-r, 1))
	}
	return p
}

// Package poly implements dense univariate polynomials over the BN254
// scalar field together with FFT evaluation domains (of 2^k and 3·2^k
// points), the two pieces of algebra the Plonk prover is made of.
package poly

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/fr"
)

// Polynomial is a polynomial in coefficient form; index i holds the
// coefficient of X^i. A nil or empty slice is the zero polynomial.
type Polynomial []fr.Element

// Clone returns a deep copy of p.
func (p Polynomial) Clone() Polynomial {
	q := make(Polynomial, len(p))
	copy(q, p)
	return q
}

// Degree returns the degree of p, or -1 for the zero polynomial.
func (p Polynomial) Degree() int {
	for i := len(p) - 1; i >= 0; i-- {
		if !p[i].IsZero() {
			return i
		}
	}
	return -1
}

// IsZero reports whether p is the zero polynomial.
func (p Polynomial) IsZero() bool { return p.Degree() == -1 }

// Trim returns p without trailing zero coefficients.
func (p Polynomial) Trim() Polynomial {
	return p[:p.Degree()+1]
}

// Equal reports whether p and q represent the same polynomial.
func (p Polynomial) Equal(q Polynomial) bool {
	pt, qt := p.Trim(), q.Trim()
	if len(pt) != len(qt) {
		return false
	}
	for i := range pt {
		if !pt[i].Equal(&qt[i]) {
			return false
		}
	}
	return true
}

// Eval evaluates p at x using Horner's rule.
func (p Polynomial) Eval(x *fr.Element) fr.Element {
	var acc fr.Element
	for i := len(p) - 1; i >= 0; i-- {
		acc.Mul(&acc, x)
		acc.Add(&acc, &p[i])
	}
	return acc
}

// Add returns p + q.
func Add(p, q Polynomial) Polynomial {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	out := make(Polynomial, n)
	copy(out, p)
	for i := range q {
		out[i].Add(&out[i], &q[i])
	}
	return out
}

// Sub returns p - q.
func Sub(p, q Polynomial) Polynomial {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	out := make(Polynomial, n)
	copy(out, p)
	for i := range q {
		out[i].Sub(&out[i], &q[i])
	}
	return out
}

// Mul returns p · q. It uses schoolbook multiplication below a small
// threshold and FFT multiplication above it. It errors when the product
// degree exceeds the two-adicity of the scalar field (no FFT domain is
// large enough), which is reachable from attacker-sized inputs.
func Mul(p, q Polynomial) (Polynomial, error) {
	p, q = p.Trim(), q.Trim()
	if len(p) == 0 || len(q) == 0 {
		return Polynomial{}, nil
	}
	if len(p)*len(q) <= 1024 {
		out := make(Polynomial, len(p)+len(q)-1)
		for i := range p {
			if p[i].IsZero() {
				continue
			}
			for j := range q {
				var t fr.Element
				t.Mul(&p[i], &q[j])
				out[i+j].Add(&out[i+j], &t)
			}
		}
		return out, nil
	}
	n := len(p) + len(q) - 1
	d, err := NewDomain(uint64(n))
	if err != nil {
		return nil, fmt.Errorf("poly: product of degrees %d and %d: %w", len(p)-1, len(q)-1, err)
	}
	pe := make([]fr.Element, d.N)
	qe := make([]fr.Element, d.N)
	copy(pe, p)
	copy(qe, q)
	if err := d.FFT(pe); err != nil {
		return nil, err
	}
	if err := d.FFT(qe); err != nil {
		return nil, err
	}
	for i := range pe {
		pe[i].Mul(&pe[i], &qe[i])
	}
	if err := d.IFFT(pe); err != nil {
		return nil, err
	}
	return Polynomial(pe[:n]), nil
}

// DivideByLinear divides p by (X - z), returning the quotient q and the
// remainder r = p(z), so that p(X) = q(X)(X-z) + r. This is the opening
// quotient of a KZG proof.
func DivideByLinear(p Polynomial, z *fr.Element) (Polynomial, fr.Element) {
	if len(p) == 0 {
		return Polynomial{}, fr.Zero()
	}
	q := make(Polynomial, len(p)-1)
	var acc fr.Element
	for i := len(p) - 1; i >= 1; i-- {
		acc.Mul(&acc, z)
		acc.Add(&acc, &p[i])
		q[i-1] = acc
	}
	var rem fr.Element
	rem.Mul(&acc, z)
	rem.Add(&rem, &p[0])
	return q, rem
}

// Div returns the quotient and remainder of p / q by long division.
// It errors on division by the zero polynomial.
func Div(p, q Polynomial) (quot, rem Polynomial, err error) {
	q = q.Trim()
	if len(q) == 0 {
		return nil, nil, fmt.Errorf("poly: division by zero polynomial")
	}
	rem = p.Clone().Trim()
	if len(rem) < len(q) {
		return Polynomial{}, rem, nil
	}
	quot = make(Polynomial, len(rem)-len(q)+1)
	var leadInv fr.Element
	leadInv.Inverse(&q[len(q)-1])
	for len(rem) >= len(q) {
		d := len(rem) - len(q)
		var c fr.Element
		c.Mul(&rem[len(rem)-1], &leadInv)
		quot[d] = c
		for i := range q {
			var t fr.Element
			t.Mul(&c, &q[i])
			rem[d+i].Sub(&rem[d+i], &t)
		}
		rem = rem[:len(rem)-1].Trim()
	}
	return quot, rem, nil
}

// Interpolate returns the unique polynomial of degree < len(xs) passing
// through all (xs[i], ys[i]) via Lagrange interpolation. The xs must be
// distinct; this is O(n²) and intended for small n (tests, gadget setup).
// It errors when the point and value counts differ.
func Interpolate(xs, ys []fr.Element) (Polynomial, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("poly: interpolation point count mismatch (%d points, %d values)", len(xs), len(ys))
	}
	n := len(xs)
	out := make(Polynomial, n)
	for i := 0; i < n; i++ {
		// basis_i(X) = ∏_{j≠i} (X - x_j)/(x_i - x_j)
		basis := Polynomial{fr.One()}
		denom := fr.One()
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			var negXj fr.Element
			negXj.Neg(&xs[j])
			var err error
			basis, err = Mul(basis, Polynomial{negXj, fr.One()})
			if err != nil {
				return nil, err
			}
			var d fr.Element
			d.Sub(&xs[i], &xs[j])
			denom.Mul(&denom, &d)
		}
		denom.Inverse(&denom)
		denom.Mul(&denom, &ys[i])
		for k := range basis {
			var t fr.Element
			t.Mul(&basis[k], &denom)
			out[k].Add(&out[k], &t)
		}
	}
	return out, nil
}

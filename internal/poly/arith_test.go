package poly

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/fr"
)

// Coefficient-form arithmetic that no production path runs (the prover
// works on evaluations over a domain): this package's tests build and check
// polynomials with it, DivideByLinear's reconstruction among them.

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

// ElementsInv returns ω^0, ω⁻¹, …, ω^-(N-1) in order. Like Elements, the
// returned slice is cached and must be treated as read-only.
func (d *Domain) ElementsInv() []fr.Element {
	d.buildElements()
	return d.elemsInv
}

// Clone returns a deep copy of p.
func (p Polynomial) Clone() Polynomial {
	q := make(Polynomial, len(p))
	copy(q, p)
	return q
}

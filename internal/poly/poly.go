// Package poly implements dense univariate polynomials over the BN254
// scalar field together with FFT evaluation domains (of 2^k and 3·2^k
// points), the two pieces of algebra the Plonk prover is made of.
package poly

import (
	"github.com/zkdet/zkdet/internal/fr"
)

// Polynomial is a polynomial in coefficient form; index i holds the
// coefficient of X^i. A nil or empty slice is the zero polynomial.
type Polynomial []fr.Element

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

// Eval evaluates p at x using Horner's rule.
func (p Polynomial) Eval(x *fr.Element) fr.Element {
	var acc fr.Element
	for i := len(p) - 1; i >= 0; i-- {
		acc.Mul(&acc, x)
		acc.Add(&acc, &p[i])
	}
	return acc
}

// DivideByLinear divides p by (X - z), returning the quotient q and the
// remainder r = p(z), so that p(X) = q(X)(X-z) + r. This is the opening
// quotient of a KZG proof.
func DivideByLinear(p Polynomial, z *fr.Element) (Polynomial, fr.Element) {
	if len(p) == 0 {
		return Polynomial{}, fr.Zero()
	}
	q := DivideByLinearInPlace(append(Polynomial(nil), p...), z)
	var rem fr.Element
	if len(q) > 0 {
		rem.Mul(&q[0], z)
	}
	rem.Add(&rem, &p[0])
	return q, rem
}

// DivideByLinearInPlace is DivideByLinear without an output buffer: it
// overwrites p[1:] with the quotient by (X − z), whose coefficients it
// returns, and leaves p[0] as it was. p must not be empty.
func DivideByLinearInPlace(p Polynomial, z *fr.Element) Polynomial {
	var acc fr.Element
	for i := len(p) - 1; i >= 1; i-- {
		acc.Mul(&acc, z)
		acc.Add(&acc, &p[i])
		p[i] = acc
	}
	return p[1:]
}

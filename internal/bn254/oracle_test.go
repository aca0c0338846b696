package bn254

import (
	"math/big"
	"sync"

	"github.com/zkdet/zkdet/internal/fr"
)

// Arithmetic the tests check the pairing and the groups against, and that
// no production path calls: G2 addition and the subgroup check by [r]p,
// generic Fp12 ring operations and square-and-multiply exponentiation (the
// naive pairing's final exponentiation), and the NAF of the hard-part
// exponent.

// IsInSubgroup reports whether p is in the order-r subgroup (by checking
// [r]p == O; correct albeit not the fastest method).
func (p *G2Affine) IsInSubgroup() bool {
	if !p.IsOnCurve() {
		return false
	}
	var j G2Jac
	j.scalarMulBig(p, fr.Modulus())
	return j.IsInfinity()
}

// G2Add returns p + q in affine coordinates.
func G2Add(p, q *G2Affine) G2Affine {
	var jp, jq G2Jac
	jp.FromAffine(p)
	jq.FromAffine(q)
	jp.AddAssign(&jq)
	var out G2Affine
	out.FromJacobian(&jp)
	return out
}

// IsOne reports whether z == 1.
func (z *Fp2) IsOne() bool { return z.A0.IsOne() && z.A1.IsZero() }

// Add sets z = x + y and returns z.
func (z *Fp12) Add(x, y *Fp12) *Fp12 {
	z.C0.Add(&x.C0, &y.C0)
	z.C1.Add(&x.C1, &y.C1)
	return z
}

// Sub sets z = x - y and returns z.
func (z *Fp12) Sub(x, y *Fp12) *Fp12 {
	z.C0.Sub(&x.C0, &y.C0)
	z.C1.Sub(&x.C1, &y.C1)
	return z
}

// Neg sets z = -x and returns z.
func (z *Fp12) Neg(x *Fp12) *Fp12 {
	z.C0.Neg(&x.C0)
	z.C1.Neg(&x.C1)
	return z
}

// Exp sets z = x^e for non-negative e and returns z.
func (z *Fp12) Exp(x *Fp12, e *big.Int) *Fp12 {
	res := fp12One()
	base := *x
	for i := e.BitLen() - 1; i >= 0; i-- {
		res.Square(&res)
		if e.Bit(i) == 1 {
			res.Mul(&res, &base)
		}
	}
	*z = res
	return z
}

// hardExpNAF caches the NAF of the hard-part exponent (p⁴-p²+1)/r.
var hardExpNAF = sync.OnceValue(func() []int8 {
	return nafDigits(hardExponent())
})

// hardExponent returns (p⁴ - p² + 1)/r, the "hard part" exponent of the
// final exponentiation.
var hardExponent = sync.OnceValue(func() *big.Int {
	p := FpModulus()
	p2 := new(big.Int).Mul(p, p)
	p4 := new(big.Int).Mul(p2, p2)
	h := new(big.Int).Sub(p4, p2)
	h.Add(h, big.NewInt(1))
	h.Div(h, fr.Modulus())
	return h
})

// IsOne reports whether z == 1.
func (z *Fp) IsOne() bool { return fpField.IsOne(&z.v) }

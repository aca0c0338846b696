package bn254

import "math/big"

// Fp2 is the quadratic extension Fp[u]/(u²+1). An element is A0 + A1·u.
// The zero value is 0.
type Fp2 struct {
	A0, A1 Fp
}

func fp2One() Fp2 { return Fp2{A0: fpOne()} }

// MustFp2FromDecimal parses two base-10 literals as a0 + a1·u.
func MustFp2FromDecimal(a0, a1 string) Fp2 {
	return Fp2{A0: MustFpFromDecimal(a0), A1: MustFpFromDecimal(a1)}
}

// IsZero reports whether z == 0.
func (z *Fp2) IsZero() bool { return z.A0.IsZero() && z.A1.IsZero() }

// IsOne reports whether z == 1.
func (z *Fp2) IsOne() bool { return z.A0.IsOne() && z.A1.IsZero() }

// Equal reports whether z == x.
func (z *Fp2) Equal(x *Fp2) bool { return z.A0.Equal(&x.A0) && z.A1.Equal(&x.A1) }

// Set sets z = x and returns z.
func (z *Fp2) Set(x *Fp2) *Fp2 { *z = *x; return z }

// SetZero sets z = 0 and returns z.
func (z *Fp2) SetZero() *Fp2 { *z = Fp2{}; return z }

// SetOne sets z = 1 and returns z.
func (z *Fp2) SetOne() *Fp2 { *z = fp2One(); return z }

// String formats z as "a0 + a1*u".
func (z Fp2) String() string { return z.A0.String() + " + " + z.A1.String() + "*u" }

// Add sets z = x + y and returns z.
func (z *Fp2) Add(x, y *Fp2) *Fp2 {
	z.A0.Add(&x.A0, &y.A0)
	z.A1.Add(&x.A1, &y.A1)
	return z
}

// Sub sets z = x - y and returns z.
func (z *Fp2) Sub(x, y *Fp2) *Fp2 {
	z.A0.Sub(&x.A0, &y.A0)
	z.A1.Sub(&x.A1, &y.A1)
	return z
}

// Double sets z = 2x and returns z.
func (z *Fp2) Double(x *Fp2) *Fp2 {
	z.A0.Double(&x.A0)
	z.A1.Double(&x.A1)
	return z
}

// Neg sets z = -x and returns z.
func (z *Fp2) Neg(x *Fp2) *Fp2 {
	z.A0.Neg(&x.A0)
	z.A1.Neg(&x.A1)
	return z
}

// Conjugate sets z = a0 - a1·u and returns z.
func (z *Fp2) Conjugate(x *Fp2) *Fp2 {
	z.A0.Set(&x.A0)
	z.A1.Neg(&x.A1)
	return z
}

// Mul sets z = x * y using Karatsuba (u² = -1) and returns z.
func (z *Fp2) Mul(x, y *Fp2) *Fp2 {
	var v0, v1, t0, t1, res0, res1 Fp
	v0.Mul(&x.A0, &y.A0)
	v1.Mul(&x.A1, &y.A1)
	// res0 = v0 - v1
	res0.Sub(&v0, &v1)
	// res1 = (x0+x1)(y0+y1) - v0 - v1
	t0.Add(&x.A0, &x.A1)
	t1.Add(&y.A0, &y.A1)
	res1.Mul(&t0, &t1)
	res1.Sub(&res1, &v0)
	res1.Sub(&res1, &v1)
	z.A0 = res0
	z.A1 = res1
	return z
}

// Square sets z = x² and returns z.
func (z *Fp2) Square(x *Fp2) *Fp2 {
	// (a0+a1u)² = (a0+a1)(a0-a1) + 2a0a1·u
	var s, d, m Fp
	s.Add(&x.A0, &x.A1)
	d.Sub(&x.A0, &x.A1)
	m.Mul(&x.A0, &x.A1)
	z.A0.Mul(&s, &d)
	z.A1.Double(&m)
	return z
}

// MulByFp sets z = x * c for a base-field scalar c and returns z.
func (z *Fp2) MulByFp(x *Fp2, c *Fp) *Fp2 {
	z.A0.Mul(&x.A0, c)
	z.A1.Mul(&x.A1, c)
	return z
}

// MulByNonResidue sets z = x * ξ with ξ = 9 + u (the Fp6 non-residue)
// and returns z.
func (z *Fp2) MulByNonResidue(x *Fp2) *Fp2 {
	// (a0 + a1u)(9 + u) = (9a0 - a1) + (a0 + 9a1)u
	var nine, t0, t1 Fp
	nine = NewFp(9)
	var r0, r1 Fp
	t0.Mul(&x.A0, &nine)
	r0.Sub(&t0, &x.A1)
	t1.Mul(&x.A1, &nine)
	r1.Add(&x.A0, &t1)
	z.A0 = r0
	z.A1 = r1
	return z
}

// Inverse sets z = x⁻¹ (or 0 when x == 0) and returns z.
func (z *Fp2) Inverse(x *Fp2) *Fp2 {
	// 1/(a0+a1u) = (a0 - a1u)/(a0² + a1²)
	var norm, t Fp
	norm.Square(&x.A0)
	t.Square(&x.A1)
	norm.Add(&norm, &t)
	norm.Inverse(&norm)
	z.A0.Mul(&x.A0, &norm)
	t.Neg(&x.A1)
	z.A1.Mul(&t, &norm)
	return z
}

// Exp sets z = x^e for non-negative e and returns z.
func (z *Fp2) Exp(x *Fp2, e *big.Int) *Fp2 {
	if e.Sign() < 0 {
		//lint:ignore panicfree exponents here are the fixed Frobenius/cofactor constants of the curve, never attacker input; the chainable *Fp2 API has no error slot
		panic("bn254: negative exponent")
	}
	res := fp2One()
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

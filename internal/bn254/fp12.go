package bn254

import (
	"math/big"
	"sync"
)

// Fp12 is the quadratic extension Fp6[w]/(w² - v). An element is C0 + C1·w.
// The zero value is 0. GT, the pairing target group, is the subgroup of
// r-th roots of unity inside Fp12*.
type Fp12 struct {
	C0, C1 Fp6
}

func fp12One() Fp12 { return Fp12{C0: fp6One()} }

// IsZero reports whether z == 0.
func (z *Fp12) IsZero() bool { return z.C0.IsZero() && z.C1.IsZero() }

// IsOne reports whether z == 1.
func (z *Fp12) IsOne() bool {
	one := fp12One()
	return z.Equal(&one)
}

// Equal reports whether z == x.
func (z *Fp12) Equal(x *Fp12) bool { return z.C0.Equal(&x.C0) && z.C1.Equal(&x.C1) }

// Conjugate sets z = c0 - c1·w (the Fp6-conjugate, which is x^(p⁶))
// and returns z.
func (z *Fp12) Conjugate(x *Fp12) *Fp12 {
	z.C0.Set(&x.C0)
	z.C1.Neg(&x.C1)
	return z
}

// Mul sets z = x * y (Karatsuba over Fp6, w² = v) and returns z.
func (z *Fp12) Mul(x, y *Fp12) *Fp12 {
	var v0, v1, t0, t1, c0, c1 Fp6
	v0.Mul(&x.C0, &y.C0)
	v1.Mul(&x.C1, &y.C1)
	// c1 = (x0+x1)(y0+y1) - v0 - v1
	t0.Add(&x.C0, &x.C1)
	t1.Add(&y.C0, &y.C1)
	c1.Mul(&t0, &t1)
	c1.Sub(&c1, &v0)
	c1.Sub(&c1, &v1)
	// c0 = v0 + v·v1
	c0.MulByV(&v1)
	c0.Add(&c0, &v0)
	z.C0 = c0
	z.C1 = c1
	return z
}

// Square sets z = x² and returns z.
func (z *Fp12) Square(x *Fp12) *Fp12 {
	// Complex squaring: c0 = (x0+x1)(x0+v·x1) - m - v·m, c1 = 2m, m = x0x1.
	var m, t0, t1, c0 Fp6
	m.Mul(&x.C0, &x.C1)
	t0.Add(&x.C0, &x.C1)
	t1.MulByV(&x.C1)
	t1.Add(&t1, &x.C0)
	c0.Mul(&t0, &t1)
	c0.Sub(&c0, &m)
	var vm Fp6
	vm.MulByV(&m)
	c0.Sub(&c0, &vm)
	z.C0 = c0
	z.C1.Add(&m, &m)
	return z
}

// Inverse sets z = x⁻¹ (or 0 when x == 0) and returns z.
func (z *Fp12) Inverse(x *Fp12) *Fp12 {
	// 1/(c0 + c1w) = (c0 - c1w)/(c0² - v·c1²)
	var t0, t1 Fp6
	t0.Square(&x.C0)
	t1.Square(&x.C1)
	t1.MulByV(&t1)
	t0.Sub(&t0, &t1)
	t0.Inverse(&t0)
	z.C0.Mul(&x.C0, &t0)
	t0.Neg(&t0)
	z.C1.Mul(&x.C1, &t0)
	return z
}

// frobConstants holds c^i for i in [1,5] where c = ξ^((p-1)/6) ∈ Fp2, used
// by the Frobenius endomorphism. Computed once, on first use.
var frobOnce = sync.OnceValue(func() [6]Fp2 {
	xi := MustFp2FromDecimal("9", "1")
	e := new(big.Int).Sub(FpModulus(), big.NewInt(1))
	e.Div(e, big.NewInt(6))
	var c Fp2
	c.Exp(&xi, e)
	var out [6]Fp2
	out[0] = fp2One()
	for i := 1; i < 6; i++ {
		out[i].Mul(&out[i-1], &c)
	}
	return out
})

// Frobenius sets z = x^p and returns z.
//
// Viewing Fp12 over Fp2 with basis {1, w, v, vw, v², v²w} (i.e. w^i for
// i=0..5), Frobenius maps coordinate a_i to conj(a_i)·c^i with
// c = ξ^((p-1)/6), because u^p = -u and w^p = c·w.
func (z *Fp12) Frobenius(x *Fp12) *Fp12 {
	cs := frobOnce()
	// coordinates: w^0=1 → C0.B0, w^1 → C1.B0, w^2=v → C0.B1,
	// w^3=vw → C1.B1, w^4=v² → C0.B2, w^5=v²w → C1.B2.
	var a [6]Fp2
	a[0] = x.C0.B0
	a[1] = x.C1.B0
	a[2] = x.C0.B1
	a[3] = x.C1.B1
	a[4] = x.C0.B2
	a[5] = x.C1.B2
	for i := 0; i < 6; i++ {
		a[i].Conjugate(&a[i])
		if i > 0 {
			a[i].Mul(&a[i], &cs[i])
		}
	}
	z.C0.B0 = a[0]
	z.C1.B0 = a[1]
	z.C0.B1 = a[2]
	z.C1.B1 = a[3]
	z.C0.B2 = a[4]
	z.C1.B2 = a[5]
	return z
}

// FrobeniusSquare sets z = x^(p²) and returns z.
func (z *Fp12) FrobeniusSquare(x *Fp12) *Fp12 {
	z.Frobenius(x)
	return z.Frobenius(z)
}

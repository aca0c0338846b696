package bn254

// Fp6 is the cubic extension Fp2[v]/(v³ - ξ) with ξ = 9 + u.
// An element is B0 + B1·v + B2·v². The zero value is 0.
type Fp6 struct {
	B0, B1, B2 Fp2
}

func fp6One() Fp6 { return Fp6{B0: fp2One()} }

// IsZero reports whether z == 0.
func (z *Fp6) IsZero() bool { return z.B0.IsZero() && z.B1.IsZero() && z.B2.IsZero() }

// Equal reports whether z == x.
func (z *Fp6) Equal(x *Fp6) bool {
	return z.B0.Equal(&x.B0) && z.B1.Equal(&x.B1) && z.B2.Equal(&x.B2)
}

// Set sets z = x and returns z.
func (z *Fp6) Set(x *Fp6) *Fp6 { *z = *x; return z }

// Add sets z = x + y and returns z.
func (z *Fp6) Add(x, y *Fp6) *Fp6 {
	z.B0.Add(&x.B0, &y.B0)
	z.B1.Add(&x.B1, &y.B1)
	z.B2.Add(&x.B2, &y.B2)
	return z
}

// Sub sets z = x - y and returns z.
func (z *Fp6) Sub(x, y *Fp6) *Fp6 {
	z.B0.Sub(&x.B0, &y.B0)
	z.B1.Sub(&x.B1, &y.B1)
	z.B2.Sub(&x.B2, &y.B2)
	return z
}

// Neg sets z = -x and returns z.
func (z *Fp6) Neg(x *Fp6) *Fp6 {
	z.B0.Neg(&x.B0)
	z.B1.Neg(&x.B1)
	z.B2.Neg(&x.B2)
	return z
}

// Mul sets z = x * y (Toom/Karatsuba-style interpolation) and returns z.
func (z *Fp6) Mul(x, y *Fp6) *Fp6 {
	// v0 = x0y0, v1 = x1y1, v2 = x2y2
	var v0, v1, v2 Fp2
	v0.Mul(&x.B0, &y.B0)
	v1.Mul(&x.B1, &y.B1)
	v2.Mul(&x.B2, &y.B2)

	// c0 = v0 + ξ((x1+x2)(y1+y2) - v1 - v2)
	var t0, t1, c0, c1, c2 Fp2
	t0.Add(&x.B1, &x.B2)
	t1.Add(&y.B1, &y.B2)
	c0.Mul(&t0, &t1)
	c0.Sub(&c0, &v1)
	c0.Sub(&c0, &v2)
	c0.MulByNonResidue(&c0)
	c0.Add(&c0, &v0)

	// c1 = (x0+x1)(y0+y1) - v0 - v1 + ξv2
	t0.Add(&x.B0, &x.B1)
	t1.Add(&y.B0, &y.B1)
	c1.Mul(&t0, &t1)
	c1.Sub(&c1, &v0)
	c1.Sub(&c1, &v1)
	var xv2 Fp2
	xv2.MulByNonResidue(&v2)
	c1.Add(&c1, &xv2)

	// c2 = (x0+x2)(y0+y2) - v0 - v2 + v1
	t0.Add(&x.B0, &x.B2)
	t1.Add(&y.B0, &y.B2)
	c2.Mul(&t0, &t1)
	c2.Sub(&c2, &v0)
	c2.Sub(&c2, &v2)
	c2.Add(&c2, &v1)

	z.B0 = c0
	z.B1 = c1
	z.B2 = c2
	return z
}

// Square sets z = x² and returns z.
func (z *Fp6) Square(x *Fp6) *Fp6 { return z.Mul(x, x) }

// MulByV sets z = x · v, i.e. (b0,b1,b2) ↦ (ξ·b2, b0, b1), and returns z.
func (z *Fp6) MulByV(x *Fp6) *Fp6 {
	var t Fp2
	t.MulByNonResidue(&x.B2)
	b0, b1 := x.B0, x.B1
	z.B0 = t
	z.B1 = b0
	z.B2 = b1
	return z
}

// Inverse sets z = x⁻¹ (or 0 when x == 0) and returns z.
func (z *Fp6) Inverse(x *Fp6) *Fp6 {
	// Standard cubic-extension inversion:
	// A = b0² - ξ·b1·b2, B = ξ·b2² - b0·b1, C = b1² - b0·b2
	// F = b0·A + ξ·b1·C + ξ·b2·B ; z = (A, B, C)/F
	var a, b, c, t Fp2
	a.Square(&x.B0)
	t.Mul(&x.B1, &x.B2)
	t.MulByNonResidue(&t)
	a.Sub(&a, &t)

	b.Square(&x.B2)
	b.MulByNonResidue(&b)
	t.Mul(&x.B0, &x.B1)
	b.Sub(&b, &t)

	c.Square(&x.B1)
	t.Mul(&x.B0, &x.B2)
	c.Sub(&c, &t)

	var f, t2 Fp2
	f.Mul(&x.B0, &a)
	t2.Mul(&x.B1, &c)
	t2.MulByNonResidue(&t2)
	f.Add(&f, &t2)
	t2.Mul(&x.B2, &b)
	t2.MulByNonResidue(&t2)
	f.Add(&f, &t2)

	f.Inverse(&f)
	z.B0.Mul(&a, &f)
	z.B1.Mul(&b, &f)
	z.B2.Mul(&c, &f)
	return z
}

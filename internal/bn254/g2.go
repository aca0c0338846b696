package bn254

import (
	"math/big"
	"sync"

	"github.com/zkdet/zkdet/internal/fr"
)

// twistB returns b' = 3/(9+u), the constant of the sextic twist
// E': y² = x³ + b' over Fp2 on which G2 lives.
var twistB = sync.OnceValue(func() Fp2 {
	xi := MustFp2FromDecimal("9", "1")
	var inv Fp2
	inv.Inverse(&xi)
	three := NewFp(3)
	var b Fp2
	b.MulByFp(&inv, &three)
	return b
})

// G2Affine is a point on the twist E'(Fp2) in affine coordinates. The point
// at infinity is encoded as (0, 0).
type G2Affine struct {
	X, Y Fp2
}

// G2Jac is a point on E'(Fp2) in Jacobian coordinates; Z == 0 encodes
// infinity. The zero value is the point at infinity.
type G2Jac struct {
	X, Y, Z Fp2
}

// G2Generator returns the standard G2 generator.
func G2Generator() G2Affine {
	return G2Affine{
		X: MustFp2FromDecimal(
			"10857046999023057135944570762232829481370756359578518086990519993285655852781",
			"11559732032986387107991004021392285783925812861821192530917403151452391805634",
		),
		Y: MustFp2FromDecimal(
			"8495653923123431417604973247489272438418190587263600148770280649306958101930",
			"4082367875863433681332203403145435568316851327593401208105741076214120093531",
		),
	}
}

// IsInfinity reports whether p is the point at infinity.
func (p *G2Affine) IsInfinity() bool { return p.X.IsZero() && p.Y.IsZero() }

// Equal reports whether p == q.
func (p *G2Affine) Equal(q *G2Affine) bool { return p.X.Equal(&q.X) && p.Y.Equal(&q.Y) }

// Neg sets p = -q and returns p.
func (p *G2Affine) Neg(q *G2Affine) *G2Affine {
	p.X.Set(&q.X)
	if q.IsInfinity() {
		p.Y.SetZero()
	} else {
		p.Y.Neg(&q.Y)
	}
	return p
}

// IsOnCurve reports whether p satisfies y² = x³ + b' (infinity counts as on
// the curve). This does not check subgroup membership; see IsInSubgroup.
func (p *G2Affine) IsOnCurve() bool {
	if p.IsInfinity() {
		return true
	}
	var lhs, rhs Fp2
	lhs.Square(&p.Y)
	rhs.Square(&p.X)
	rhs.Mul(&rhs, &p.X)
	b := twistB()
	rhs.Add(&rhs, &b)
	return lhs.Equal(&rhs)
}

// IsInfinity reports whether p is the point at infinity.
func (p *G2Jac) IsInfinity() bool { return p.Z.IsZero() }

// Set sets p = q and returns p.
func (p *G2Jac) Set(q *G2Jac) *G2Jac { *p = *q; return p }

// SetInfinity sets p to the point at infinity and returns p.
func (p *G2Jac) SetInfinity() *G2Jac { *p = G2Jac{}; return p }

// FromAffine lifts q to Jacobian coordinates and returns p.
func (p *G2Jac) FromAffine(q *G2Affine) *G2Jac {
	if q.IsInfinity() {
		return p.SetInfinity()
	}
	p.X.Set(&q.X)
	p.Y.Set(&q.Y)
	p.Z.SetOne()
	return p
}

// FromJacobian converts q to affine coordinates and returns p.
func (p *G2Affine) FromJacobian(q *G2Jac) *G2Affine {
	if q.Z.IsZero() {
		p.X.SetZero()
		p.Y.SetZero()
		return p
	}
	var zInv, zInv2, zInv3 Fp2
	zInv.Inverse(&q.Z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	p.X.Mul(&q.X, &zInv2)
	p.Y.Mul(&q.Y, &zInv3)
	return p
}

// Double sets p = 2q and returns p.
func (p *G2Jac) Double(q *G2Jac) *G2Jac {
	if q.IsInfinity() {
		return p.SetInfinity()
	}
	var a, b, c, d, e, f, t Fp2
	a.Square(&q.X)
	b.Square(&q.Y)
	c.Square(&b)
	d.Add(&q.X, &b)
	d.Square(&d)
	d.Sub(&d, &a)
	d.Sub(&d, &c)
	d.Double(&d)
	e.Double(&a)
	e.Add(&e, &a)
	f.Square(&e)

	var x3, y3, z3 Fp2
	x3.Sub(&f, t.Double(&d))
	y3.Sub(&d, &x3)
	y3.Mul(&e, &y3)
	var c8 Fp2
	c8.Double(&c)
	c8.Double(&c8)
	c8.Double(&c8)
	y3.Sub(&y3, &c8)
	z3.Mul(&q.Y, &q.Z)
	z3.Double(&z3)

	p.X = x3
	p.Y = y3
	p.Z = z3
	return p
}

// AddAssign sets p = p + q and returns p.
func (p *G2Jac) AddAssign(q *G2Jac) *G2Jac {
	if q.IsInfinity() {
		return p
	}
	if p.IsInfinity() {
		return p.Set(q)
	}
	var z1z1, z2z2, u1, u2, s1, s2 Fp2
	z1z1.Square(&p.Z)
	z2z2.Square(&q.Z)
	u1.Mul(&p.X, &z2z2)
	u2.Mul(&q.X, &z1z1)
	s1.Mul(&p.Y, &q.Z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&q.Y, &p.Z)
	s2.Mul(&s2, &z1z1)

	if u1.Equal(&u2) {
		if s1.Equal(&s2) {
			return p.Double(p)
		}
		return p.SetInfinity()
	}

	var h, i, j, r, v Fp2
	h.Sub(&u2, &u1)
	i.Double(&h)
	i.Square(&i)
	j.Mul(&h, &i)
	r.Sub(&s2, &s1)
	r.Double(&r)
	v.Mul(&u1, &i)

	var x3, y3, z3, t Fp2
	x3.Square(&r)
	x3.Sub(&x3, &j)
	x3.Sub(&x3, t.Double(&v))
	y3.Sub(&v, &x3)
	y3.Mul(&r, &y3)
	t.Mul(&s1, &j)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&p.Z, &q.Z)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h)

	p.X = x3
	p.Y = y3
	p.Z = z3
	return p
}

// ScalarMul sets p = [s]q and returns p.
func (p *G2Jac) ScalarMul(q *G2Affine, s *fr.Element) *G2Jac {
	return p.scalarMulBig(q, s.BigInt())
}

func (p *G2Jac) scalarMulBig(q *G2Affine, s *big.Int) *G2Jac {
	if q.IsInfinity() || s.Sign() == 0 {
		return p.SetInfinity()
	}
	var acc, base G2Jac
	acc.SetInfinity()
	base.FromAffine(q)
	for i := s.BitLen() - 1; i >= 0; i-- {
		acc.Double(&acc)
		if s.Bit(i) == 1 {
			acc.AddAssign(&base)
		}
	}
	return p.Set(&acc)
}

// G2ScalarMul returns [s]q in affine coordinates.
func G2ScalarMul(q *G2Affine, s *fr.Element) G2Affine {
	var j G2Jac
	j.ScalarMul(q, s)
	var out G2Affine
	out.FromJacobian(&j)
	return out
}

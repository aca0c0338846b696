package bn254

import (
	"fmt"
	"math/big"

	"github.com/zkdet/zkdet/internal/fr"
)

// G1Affine is a point on E: y² = x³ + 3 over Fp in affine coordinates.
// The point at infinity is encoded as (0, 0), which is not on the curve.
type G1Affine struct {
	X, Y Fp
}

// G1Jac is a point in Jacobian coordinates (X/Z², Y/Z³); Z == 0 encodes the
// point at infinity. The zero value is the point at infinity.
type G1Jac struct {
	X, Y, Z Fp
}

// G1Generator returns the standard generator (1, 2).
func G1Generator() G1Affine {
	return G1Affine{X: NewFp(1), Y: NewFp(2)}
}

// IsInfinity reports whether p is the point at infinity.
func (p *G1Affine) IsInfinity() bool { return p.X.IsZero() && p.Y.IsZero() }

// Equal reports whether p == q.
func (p *G1Affine) Equal(q *G1Affine) bool { return p.X.Equal(&q.X) && p.Y.Equal(&q.Y) }

// Neg sets p = -q and returns p.
func (p *G1Affine) Neg(q *G1Affine) *G1Affine {
	p.X.Set(&q.X)
	if q.IsInfinity() {
		p.Y.SetZero()
	} else {
		p.Y.Neg(&q.Y)
	}
	return p
}

// IsOnCurve reports whether p satisfies y² = x³ + 3 (infinity counts as on
// the curve). G1 has prime order, so on-curve implies in-subgroup.
func (p *G1Affine) IsOnCurve() bool {
	if p.IsInfinity() {
		return true
	}
	var lhs, rhs, three Fp
	lhs.Square(&p.Y)
	rhs.Square(&p.X)
	rhs.Mul(&rhs, &p.X)
	three = NewFp(3)
	rhs.Add(&rhs, &three)
	return lhs.Equal(&rhs)
}

// Bytes returns the uncompressed 64-byte encoding (X ‖ Y, big-endian).
func (p *G1Affine) Bytes() [64]byte {
	var out [64]byte
	x := p.X.Bytes()
	y := p.Y.Bytes()
	copy(out[:32], x[:])
	copy(out[32:], y[:])
	return out
}

// G1FromBytes decodes an uncompressed 64-byte encoding, rejecting points
// that are not on the curve.
func G1FromBytes(b []byte) (G1Affine, error) {
	if len(b) != 64 {
		return G1Affine{}, fmt.Errorf("bn254: g1 encoding must be 64 bytes, got %d", len(b))
	}
	x, err := FpFromBytesCanonical(b[:32])
	if err != nil {
		return G1Affine{}, fmt.Errorf("bn254: g1 x: %w", err)
	}
	y, err := FpFromBytesCanonical(b[32:])
	if err != nil {
		return G1Affine{}, fmt.Errorf("bn254: g1 y: %w", err)
	}
	p := G1Affine{X: x, Y: y}
	if !p.IsOnCurve() {
		return G1Affine{}, fmt.Errorf("bn254: point not on G1")
	}
	return p, nil
}

// FromJacobian converts q to affine coordinates and returns p.
func (p *G1Affine) FromJacobian(q *G1Jac) *G1Affine {
	if q.Z.IsZero() {
		p.X.SetZero()
		p.Y.SetZero()
		return p
	}
	var zInv, zInv2, zInv3 Fp
	zInv.Inverse(&q.Z)
	zInv2.Square(&zInv)
	zInv3.Mul(&zInv2, &zInv)
	p.X.Mul(&q.X, &zInv2)
	p.Y.Mul(&q.Y, &zInv3)
	return p
}

// g1BatchFromJacobian converts points to affine with one shared inversion.
func g1BatchFromJacobian(out []G1Affine, in []G1Jac) {
	buf := make([]Fp, 2*len(in))
	zs, scratch := buf[:len(in)], buf[len(in):]
	for i := range in {
		zs[i] = in[i].Z
	}
	fpBatchInverse(zs, scratch)
	for i := range in {
		if in[i].Z.IsZero() {
			out[i] = G1Affine{}
			continue
		}
		var z2, z3 Fp
		z2.Square(&zs[i])
		z3.Mul(&z2, &zs[i])
		out[i].X.Mul(&in[i].X, &z2)
		out[i].Y.Mul(&in[i].Y, &z3)
	}
}

// IsInfinity reports whether p is the point at infinity.
func (p *G1Jac) IsInfinity() bool { return p.Z.IsZero() }

// Set sets p = q and returns p.
func (p *G1Jac) Set(q *G1Jac) *G1Jac { *p = *q; return p }

// SetInfinity sets p to the point at infinity and returns p.
func (p *G1Jac) SetInfinity() *G1Jac { *p = G1Jac{}; return p }

// FromAffine lifts q to Jacobian coordinates and returns p.
func (p *G1Jac) FromAffine(q *G1Affine) *G1Jac {
	if q.IsInfinity() {
		return p.SetInfinity()
	}
	p.X.Set(&q.X)
	p.Y.Set(&q.Y)
	p.Z.SetOne()
	return p
}

// Double sets p = 2q (dbl-2009-l, a = 0) and returns p.
func (p *G1Jac) Double(q *G1Jac) *G1Jac {
	if q.IsInfinity() {
		return p.SetInfinity()
	}
	var a, b, c, d, e, f, t Fp
	a.Square(&q.X)  // A = X²
	b.Square(&q.Y)  // B = Y²
	c.Square(&b)    // C = B²
	d.Add(&q.X, &b) // D = 2((X+B)² - A - C)
	d.Square(&d)
	d.Sub(&d, &a)
	d.Sub(&d, &c)
	d.Double(&d)
	e.Double(&a) // E = 3A
	e.Add(&e, &a)
	f.Square(&e) // F = E²

	var x3, y3, z3 Fp
	t.Double(&d)
	x3.Sub(&f, &t)  // X3 = F - 2D
	y3.Sub(&d, &x3) // Y3 = E(D - X3) - 8C
	y3.Mul(&e, &y3)
	var c8 Fp
	c8.Double(&c)
	c8.Double(&c8)
	c8.Double(&c8)
	y3.Sub(&y3, &c8)
	z3.Mul(&q.Y, &q.Z) // Z3 = 2YZ
	z3.Double(&z3)

	p.X = x3
	p.Y = y3
	p.Z = z3
	return p
}

// AddAssign sets p = p + q (general Jacobian addition) and returns p.
func (p *G1Jac) AddAssign(q *G1Jac) *G1Jac {
	if q.IsInfinity() {
		return p
	}
	if p.IsInfinity() {
		return p.Set(q)
	}
	// add-2007-bl
	var z1z1, z2z2, u1, u2, s1, s2 Fp
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

	var h, i, j, r, v Fp
	h.Sub(&u2, &u1) // H = U2 - U1
	i.Double(&h)    // I = (2H)²
	i.Square(&i)
	j.Mul(&h, &i)   // J = H·I
	r.Sub(&s2, &s1) // r = 2(S2 - S1)
	r.Double(&r)
	v.Mul(&u1, &i) // V = U1·I

	var x3, y3, z3, t Fp
	x3.Square(&r) // X3 = r² - J - 2V
	x3.Sub(&x3, &j)
	t.Double(&v)
	x3.Sub(&x3, &t)
	y3.Sub(&v, &x3) // Y3 = r(V - X3) - 2S1·J
	y3.Mul(&r, &y3)
	t.Mul(&s1, &j)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&p.Z, &q.Z) // Z3 = ((Z1+Z2)² - Z1Z1 - Z2Z2)·H
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h)

	p.X = x3
	p.Y = y3
	p.Z = z3
	return p
}

// AddMixed sets p = p + q for an affine q and returns p (madd-2007-bl,
// 7M + 4S against the general addition's 11M + 5S).
func (p *G1Jac) AddMixed(q *G1Affine) *G1Jac {
	if q.IsInfinity() {
		return p
	}
	if p.IsInfinity() {
		return p.FromAffine(q)
	}
	var z1z1, u2, s2, h Fp
	z1z1.Square(&p.Z)
	u2.Mul(&q.X, &z1z1)
	s2.Mul(&q.Y, &p.Z)
	s2.Mul(&s2, &z1z1)
	h.Sub(&u2, &p.X) // H = U2 - X1
	if h.IsZero() {
		if s2.Equal(&p.Y) {
			return p.Double(p)
		}
		return p.SetInfinity()
	}

	var hh, i, j, r, v Fp
	hh.Square(&h)
	i.Double(&hh) // I = 4·HH
	i.Double(&i)
	j.Mul(&h, &i)    // J = H·I
	r.Sub(&s2, &p.Y) // r = 2(S2 - Y1)
	r.Double(&r)
	v.Mul(&p.X, &i) // V = X1·I

	var x3, y3, z3, t Fp
	x3.Square(&r) // X3 = r² - J - 2V
	x3.Sub(&x3, &j)
	t.Double(&v)
	x3.Sub(&x3, &t)
	y3.Sub(&v, &x3) // Y3 = r(V - X3) - 2Y1·J
	y3.Mul(&r, &y3)
	t.Mul(&p.Y, &j)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&p.Z, &h) // Z3 = (Z1+H)² - Z1Z1 - HH
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh)

	p.X = x3
	p.Y = y3
	p.Z = z3
	return p
}

// ScalarMul sets p = [s]q and returns p. s is taken mod r.
func (p *G1Jac) ScalarMul(q *G1Affine, s *fr.Element) *G1Jac {
	return p.scalarMulBig(q, s.BigInt())
}

func (p *G1Jac) scalarMulBig(q *G1Affine, s *big.Int) *G1Jac {
	var acc G1Jac
	acc.SetInfinity()
	if q.IsInfinity() || s.Sign() == 0 {
		return p.SetInfinity()
	}
	var base G1Jac
	base.FromAffine(q)
	for i := s.BitLen() - 1; i >= 0; i-- {
		acc.Double(&acc)
		if s.Bit(i) == 1 {
			acc.AddAssign(&base)
		}
	}
	return p.Set(&acc)
}

// G1ScalarMul returns [s]q in affine coordinates.
func G1ScalarMul(q *G1Affine, s *fr.Element) G1Affine {
	var j G1Jac
	j.ScalarMul(q, s)
	var out G1Affine
	out.FromJacobian(&j)
	return out
}

// G1Add returns p + q in affine coordinates.
func G1Add(p, q *G1Affine) G1Affine {
	var j G1Jac
	j.FromAffine(p)
	j.AddMixed(q)
	var out G1Affine
	out.FromJacobian(&j)
	return out
}

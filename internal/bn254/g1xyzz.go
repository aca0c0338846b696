package bn254

// g1XYZZ is a G1 point in extended-Jacobian coordinates (x = X/ZZ,
// y = Y/ZZZ with ZZ³ = ZZZ²); ZZ == 0 encodes the point at infinity, so
// the zero value is infinity. It is the MSM bucket representation: adding
// an affine point costs 8M + 2S (madd-2008-s) against 7M + 4S for Jacobian
// madd-2007-bl and 11M + 5S for the general Jacobian addition, with no
// (Z1+H)² - Z1Z1 - HH tail of field subtractions.
type g1XYZZ struct {
	X, Y, ZZ, ZZZ Fp
}

func (p *g1XYZZ) isInfinity() bool { return p.ZZ.IsZero() }

// toJacobian sets q to the Jacobian point (X·ZZ, Y·ZZZ, ZZ) equal to p.
func (p *g1XYZZ) toJacobian(q *G1Jac) {
	if p.isInfinity() {
		q.SetInfinity()
		return
	}
	q.X.Mul(&p.X, &p.ZZ)
	q.Y.Mul(&p.Y, &p.ZZZ)
	q.Z = p.ZZ
}

// addMixed sets p = p + q, or p = p - q when neg is set, for an affine q
// (madd-2008-s). Points handed to an MSM are not trusted to be distinct:
// q equal to the bucket value doubles, q opposite to it cancels.
func (p *g1XYZZ) addMixed(q *G1Affine, neg bool) {
	if q.IsInfinity() {
		return
	}
	y2 := q.Y
	if neg {
		y2.Neg(&y2)
	}
	if p.isInfinity() {
		p.X, p.Y = q.X, y2
		p.ZZ.SetOne()
		p.ZZZ.SetOne()
		return
	}
	var pp, r Fp
	pp.Mul(&q.X, &p.ZZ) // P = U2 - X1
	pp.Sub(&pp, &p.X)
	r.Mul(&y2, &p.ZZZ) // R = S2 - Y1
	r.Sub(&r, &p.Y)
	if pp.IsZero() {
		if r.IsZero() {
			p.doubleAffine(&q.X, &y2)
		} else {
			*p = g1XYZZ{}
		}
		return
	}
	p.finishAdd(&p.X, &p.Y, &pp, &r)
}

// finishAdd is the shared tail of add-2008-s and madd-2008-s: given
// U1, S1 (this point's coordinates scaled to the common denominator),
// P = U2 - U1 ≠ 0 and R = S2 - S1, it sets X, Y and multiplies ZZ, ZZZ by
// P², P³. u1 and s1 may alias p.X and p.Y.
func (p *g1XYZZ) finishAdd(u1, s1, pp, r *Fp) {
	var p2, p3, q, x3, t Fp
	p2.Square(pp)
	p3.Mul(pp, &p2)
	q.Mul(u1, &p2)
	x3.Square(r) // X3 = R² - PPP - 2Q
	x3.Sub(&x3, &p3)
	t.Double(&q)
	x3.Sub(&x3, &t)
	t.Mul(s1, &p3) // Y3 = R(Q - X3) - S1·PPP
	q.Sub(&q, &x3)
	q.Mul(&q, r)
	p.Y.Sub(&q, &t)
	p.X = x3
	p.ZZ.Mul(&p.ZZ, &p2)
	p.ZZZ.Mul(&p.ZZZ, &p3)
}

// doubleAffine sets p = 2·(x, y) (mdbl-2008-s-1, a = 0); x and y must not
// point into p.
func (p *g1XYZZ) doubleAffine(x, y *Fp) {
	var u, s, m, t Fp
	u.Double(y)
	p.ZZ.Square(&u)      // V
	p.ZZZ.Mul(&u, &p.ZZ) // W
	s.Mul(x, &p.ZZ)      // S = X1·V
	m.Square(x)          // M = 3X1²
	t.Double(&m)
	m.Add(&m, &t)
	t.Mul(&p.ZZZ, y) // W·Y1
	p.X.Square(&m)   // X3 = M² - 2S
	p.X.Sub(&p.X, &s)
	p.X.Sub(&p.X, &s)
	s.Sub(&s, &p.X) // Y3 = M(S - X3) - W·Y1
	p.Y.Mul(&m, &s)
	p.Y.Sub(&p.Y, &t)
}

// double sets p = 2p (dbl-2008-s-1, a = 0).
func (p *g1XYZZ) double() {
	if p.isInfinity() {
		return
	}
	zz, zzz := p.ZZ, p.ZZZ
	x, y := p.X, p.Y
	p.doubleAffine(&x, &y) // the affine formulas, then rescale by the old ZZ, ZZZ
	p.ZZ.Mul(&p.ZZ, &zz)
	p.ZZZ.Mul(&p.ZZZ, &zzz)
}

// add sets p = p + q (add-2008-s, 12M + 2S), the bucket reduction's
// running-sum step.
func (p *g1XYZZ) add(q *g1XYZZ) {
	if q.isInfinity() {
		return
	}
	if p.isInfinity() {
		*p = *q
		return
	}
	var u1, s1, pp, r Fp
	u1.Mul(&p.X, &q.ZZ)
	s1.Mul(&p.Y, &q.ZZZ)
	pp.Mul(&q.X, &p.ZZ) // P = U2 - U1
	pp.Sub(&pp, &u1)
	r.Mul(&q.Y, &p.ZZZ) // R = S2 - S1
	r.Sub(&r, &s1)
	if pp.IsZero() {
		if r.IsZero() {
			p.double()
		} else {
			*p = g1XYZZ{}
		}
		return
	}
	p.ZZ.Mul(&p.ZZ, &q.ZZ)
	p.ZZZ.Mul(&p.ZZZ, &q.ZZZ)
	p.finishAdd(&u1, &s1, &pp, &r)
}

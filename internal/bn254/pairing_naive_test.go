package bn254

// The naive pairing, the correctness reference of the engine in pairing.go:
// it "untwists" G2 points into E(Fp12) and runs a textbook affine Miller
// loop there — with w⁶ = ξ in the tower, ψ(x', y') = (w²·x', w³·y') maps the
// twist E': y² = x³ + 3/ξ into E: y² = x³ + 3 over Fp12 — then raises to the
// hard exponent by plain square-and-multiply. Slow but auditable.

// e12Point is an affine point on E(Fp12); infinity is flagged explicitly.
type e12Point struct {
	x, y Fp12
	inf  bool
}

func fp12FromFp(v *Fp) Fp12 {
	var z Fp12
	z.C0.B0.A0.Set(v)
	return z
}

// untwist maps a G2 point to E(Fp12) via ψ(x, y) = (w²x, w³y).
func untwist(q *G2Affine) e12Point {
	if q.IsInfinity() {
		return e12Point{inf: true}
	}
	// Embed Fp2 coordinates into Fp12 (coefficient of w⁰), then multiply by
	// w² and w³. In the basis {1,w,v,vw,v²,v²w}: w² = v, w³ = v·w.
	var x, y Fp12
	x.C0.B1.Set(&q.X) // x' · v  (== x'·w²)
	y.C1.B1.Set(&q.Y) // y' · vw (== y'·w³)
	return e12Point{x: x, y: y}
}

// frobPoint applies the p-power Frobenius coordinate-wise on E(Fp12).
func frobPoint(p *e12Point) e12Point {
	if p.inf {
		return e12Point{inf: true}
	}
	var out e12Point
	out.x.Frobenius(&p.x)
	out.y.Frobenius(&p.y)
	return out
}

func negPoint(p *e12Point) e12Point {
	if p.inf {
		return e12Point{inf: true}
	}
	out := *p
	out.y.Neg(&p.y)
	return out
}

// lineDouble doubles t in place and returns the line l_{T,T} evaluated at
// (xP, yP) ∈ Fp embedded in Fp12.
func lineDouble(t *e12Point, xP, yP *Fp12) Fp12 {
	if t.inf {
		return fp12One()
	}
	if t.y.IsZero() {
		// Vertical tangent: l(P) = xP - x1, T goes to infinity.
		var l Fp12
		l.Sub(xP, &t.x)
		t.inf = true
		return l
	}
	// λ = 3x² / 2y
	var num, den, lambda Fp12
	num.Square(&t.x)
	threeFp := NewFp(3)
	three := fp12FromFp(&threeFp)
	num.Mul(&num, &three)
	den.Add(&t.y, &t.y)
	den.Inverse(&den)
	lambda.Mul(&num, &den)

	// l(P) = yP - y1 - λ(xP - x1)
	var l, tmp Fp12
	tmp.Sub(xP, &t.x)
	tmp.Mul(&lambda, &tmp)
	l.Sub(yP, &t.y)
	l.Sub(&l, &tmp)

	// x3 = λ² - 2x1 ; y3 = λ(x1 - x3) - y1
	var x3, y3 Fp12
	x3.Square(&lambda)
	x3.Sub(&x3, &t.x)
	x3.Sub(&x3, &t.x)
	y3.Sub(&t.x, &x3)
	y3.Mul(&lambda, &y3)
	y3.Sub(&y3, &t.y)
	t.x = x3
	t.y = y3
	return l
}

// lineAdd sets t = t + q and returns the line l_{T,Q} evaluated at the
// embedded point (xP, yP).
func lineAdd(t *e12Point, q *e12Point, xP, yP *Fp12) Fp12 {
	if q.inf {
		return fp12One()
	}
	if t.inf {
		*t = *q
		return fp12One()
	}
	if t.x.Equal(&q.x) {
		if t.y.Equal(&q.y) {
			return lineDouble(t, xP, yP)
		}
		// Vertical line: l(P) = xP - x1, T + Q = infinity.
		var l Fp12
		l.Sub(xP, &t.x)
		t.inf = true
		return l
	}
	// λ = (y2 - y1)/(x2 - x1)
	var num, den, lambda Fp12
	num.Sub(&q.y, &t.y)
	den.Sub(&q.x, &t.x)
	den.Inverse(&den)
	lambda.Mul(&num, &den)

	var l, tmp Fp12
	tmp.Sub(xP, &t.x)
	tmp.Mul(&lambda, &tmp)
	l.Sub(yP, &t.y)
	l.Sub(&l, &tmp)

	var x3, y3 Fp12
	x3.Square(&lambda)
	x3.Sub(&x3, &t.x)
	x3.Sub(&x3, &q.x)
	y3.Sub(&t.x, &x3)
	y3.Mul(&lambda, &y3)
	y3.Sub(&y3, &t.y)
	t.x = x3
	t.y = y3
	return l
}

// millerLoop computes the optimal ate Miller function f_{6t+2,Q}(P) times
// the two Frobenius line corrections.
func millerLoop(p *G1Affine, q *G2Affine) Fp12 {
	if p.IsInfinity() || q.IsInfinity() {
		return fp12One()
	}
	xP := fp12FromFp(&p.X)
	yP := fp12FromFp(&p.Y)

	qe := untwist(q)
	t := qe
	f := fp12One()

	s := loopCounter()
	for i := s.BitLen() - 2; i >= 0; i-- {
		f.Square(&f)
		l := lineDouble(&t, &xP, &yP)
		f.Mul(&f, &l)
		if s.Bit(i) == 1 {
			l := lineAdd(&t, &qe, &xP, &yP)
			f.Mul(&f, &l)
		}
	}

	// Frobenius correction lines: Q1 = π(Q), Q2 = -π²(Q).
	q1 := frobPoint(&qe)
	q2 := frobPoint(&q1)
	q2 = negPoint(&q2)

	l1 := lineAdd(&t, &q1, &xP, &yP)
	f.Mul(&f, &l1)
	l2 := lineAdd(&t, &q2, &xP, &yP)
	f.Mul(&f, &l2)
	return f
}

// finalExponentiationNaive is the reference final exponentiation: the hard
// part is a plain square-and-multiply by (p⁴-p²+1)/r. Slower than the
// cyclotomic path but unconditionally correct for any nonzero input.
func finalExponentiationNaive(f *Fp12) Fp12 {
	if f.IsZero() {
		return Fp12{}
	}
	r := easyPart(f)
	var out Fp12
	out.Exp(&r, hardExponent())
	return out
}

// PairNaive computes e(p, q) with the textbook Fp12 Miller loop. Retained
// as the correctness reference for the fast engine.
func PairNaive(p *G1Affine, q *G2Affine) Fp12 {
	f := millerLoop(p, q)
	return finalExponentiationNaive(&f)
}

// PairingCheckNaive is the reference product-of-pairings check.
func PairingCheckNaive(ps []G1Affine, qs []G2Affine) (bool, error) {
	if len(ps) != len(qs) {
		return false, ErrPairingInput
	}
	acc := fp12One()
	for i := range ps {
		f := millerLoop(&ps[i], &qs[i])
		acc.Mul(&acc, &f)
	}
	res := finalExponentiationNaive(&acc)
	return res.IsOne(), nil
}

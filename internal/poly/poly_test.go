package poly

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/zkdet/zkdet/internal/fr"
)

func randPoly(n int) Polynomial {
	p := make(Polynomial, n)
	for i := range p {
		p[i] = fr.MustRandom()
	}
	return p
}

// mustMul multiplies polynomials whose product degree is known to fit the
// field's two-adicity, failing the test otherwise.
func mustMul(t *testing.T, p, q Polynomial) Polynomial {
	t.Helper()
	out, err := Mul(p, q)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDegreeAndZero(t *testing.T) {
	var zero Polynomial
	if zero.Degree() != -1 || !zero.IsZero() {
		t.Fatal("nil polynomial should be zero of degree -1")
	}
	p := Polynomial{fr.NewElement(1), fr.Zero(), fr.Zero()}
	if p.Degree() != 0 {
		t.Fatalf("degree = %d, want 0", p.Degree())
	}
	p = Polynomial{fr.Zero(), fr.NewElement(2)}
	if p.Degree() != 1 {
		t.Fatalf("degree = %d, want 1", p.Degree())
	}
}

func TestEvalHorner(t *testing.T) {
	// p(X) = 3 + 2X + X², p(5) = 3 + 10 + 25 = 38.
	p := Polynomial{fr.NewElement(3), fr.NewElement(2), fr.NewElement(1)}
	x := fr.NewElement(5)
	got := p.Eval(&x)
	want := fr.NewElement(38)
	if !got.Equal(&want) {
		t.Fatalf("eval = %s, want 38", got.String())
	}
}

func TestAddSubEval(t *testing.T) {
	p, q := randPoly(7), randPoly(12)
	x := fr.MustRandom()
	sum := Add(p, q)
	diff := Sub(p, q)
	pe, qe := p.Eval(&x), q.Eval(&x)
	var wantSum, wantDiff fr.Element
	wantSum.Add(&pe, &qe)
	wantDiff.Sub(&pe, &qe)
	if got := sum.Eval(&x); !got.Equal(&wantSum) {
		t.Fatal("add eval mismatch")
	}
	if got := diff.Eval(&x); !got.Equal(&wantDiff) {
		t.Fatal("sub eval mismatch")
	}
}

func TestMulSchoolbookAndFFTAgree(t *testing.T) {
	// Large enough to trigger the FFT path; compare evaluations.
	p, q := randPoly(60), randPoly(70)
	prod := mustMul(t, p, q)
	if prod.Degree() != p.Degree()+q.Degree() {
		t.Fatalf("product degree %d, want %d", prod.Degree(), p.Degree()+q.Degree())
	}
	for i := 0; i < 5; i++ {
		x := fr.MustRandom()
		pe, qe := p.Eval(&x), q.Eval(&x)
		var want fr.Element
		want.Mul(&pe, &qe)
		if got := prod.Eval(&x); !got.Equal(&want) {
			t.Fatal("mul eval mismatch")
		}
	}
	// Zero cases.
	if got := mustMul(t, p, Polynomial{}); !got.IsZero() {
		t.Fatal("p * 0 != 0")
	}
}

func TestDivideByLinear(t *testing.T) {
	p := randPoly(20)
	z := fr.MustRandom()
	q, rem := DivideByLinear(p, &z)
	if want := p.Eval(&z); !rem.Equal(&want) {
		t.Fatal("remainder != p(z)")
	}
	// p(X) == q(X)(X - z) + rem at a random point.
	x := fr.MustRandom()
	var negZ fr.Element
	negZ.Neg(&z)
	lin := Polynomial{negZ, fr.One()}
	recon := Add(mustMul(t, q, lin), Polynomial{rem})
	if got, want := recon.Eval(&x), p.Eval(&x); !got.Equal(&want) {
		t.Fatal("q(X)(X-z)+r != p(X)")
	}
}

func TestDiv(t *testing.T) {
	p, q := randPoly(15), randPoly(4)
	quot, rem, err := Div(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if rem.Degree() >= q.Degree() {
		t.Fatal("remainder degree too high")
	}
	x := fr.MustRandom()
	recon := Add(mustMul(t, quot, q), rem)
	if got, want := recon.Eval(&x), p.Eval(&x); !got.Equal(&want) {
		t.Fatal("quot*q + rem != p")
	}
	// Exact division.
	prod := mustMul(t, p, q)
	quot2, rem2, err := Div(prod, q)
	if err != nil {
		t.Fatal(err)
	}
	if !rem2.IsZero() {
		t.Fatal("exact division has nonzero remainder")
	}
	if !quot2.Equal(p) {
		t.Fatal("exact division quotient mismatch")
	}
	if _, _, err := Div(p, Polynomial{}); err == nil {
		t.Fatal("division by zero polynomial should error")
	}
}

// interpolate returns the unique polynomial of degree < len(xs) passing
// through all (xs[i], ys[i]) via Lagrange interpolation: the O(n²) oracle
// Domain.LagrangeEval is checked against. The xs must be distinct; it errors
// when the point and value counts differ.
func interpolate(xs, ys []fr.Element) (Polynomial, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("poly: interpolation point count mismatch (%d points, %d values)", len(xs), len(ys))
	}
	n := len(xs)
	out := make(Polynomial, n)
	for i := 0; i < n; i++ {
		// basis_i(X) = ∏_{j≠i} (X - x_j)/(x_i - x_j)
		basis := Polynomial{fr.One()}
		denom := fr.One()
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			var negXj fr.Element
			negXj.Neg(&xs[j])
			var err error
			basis, err = Mul(basis, Polynomial{negXj, fr.One()})
			if err != nil {
				return nil, err
			}
			var d fr.Element
			d.Sub(&xs[i], &xs[j])
			denom.Mul(&denom, &d)
		}
		denom.Inverse(&denom)
		denom.Mul(&denom, &ys[i])
		for k := range basis {
			var t fr.Element
			t.Mul(&basis[k], &denom)
			out[k].Add(&out[k], &t)
		}
	}
	return out, nil
}

func TestInterpolate(t *testing.T) {
	n := 8
	xs := make([]fr.Element, n)
	ys := make([]fr.Element, n)
	for i := range xs {
		xs[i] = fr.NewElement(uint64(i + 1))
		ys[i] = fr.MustRandom()
	}
	p, err := interpolate(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got := p.Eval(&xs[i]); !got.Equal(&ys[i]) {
			t.Fatalf("interpolation fails at point %d", i)
		}
	}
	if _, err := interpolate(xs, ys[:len(ys)-1]); err == nil {
		t.Fatal("mismatched point counts should error")
	}
}

func TestDomainRoundTrip(t *testing.T) {
	for _, n := range []uint64{1, 2, 4, 8, 64, 256} {
		d, err := NewDomain(n)
		if err != nil {
			t.Fatal(err)
		}
		a := make([]fr.Element, d.N)
		for i := range a {
			a[i] = fr.MustRandom()
		}
		orig := make([]fr.Element, len(a))
		copy(orig, a)
		if err := d.FFT(a); err != nil {
			t.Fatal(err)
		}
		if err := d.IFFT(a); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if !a[i].Equal(&orig[i]) {
				t.Fatalf("n=%d: FFT/IFFT round trip mismatch at %d", n, i)
			}
		}
	}
}

func TestFFTMatchesEval(t *testing.T) {
	d, err := NewDomain(16)
	if err != nil {
		t.Fatal(err)
	}
	p := randPoly(int(d.N))
	evals := make([]fr.Element, d.N)
	copy(evals, p)
	if err := d.FFT(evals); err != nil {
		t.Fatal(err)
	}
	els := d.Elements()
	for i := range els {
		if want := p.Eval(&els[i]); !evals[i].Equal(&want) {
			t.Fatalf("FFT eval mismatch at %d", i)
		}
	}
}

func TestCosetFFT(t *testing.T) {
	d, err := NewDomain(32)
	if err != nil {
		t.Fatal(err)
	}
	p := randPoly(int(d.N))
	evals := make([]fr.Element, d.N)
	copy(evals, p)
	if err := d.FFTCoset(evals); err != nil {
		t.Fatal(err)
	}
	// Check a few points: evaluation at g·ω^i.
	g := fr.NewElement(fr.MultiplicativeGenerator)
	for _, i := range []uint64{0, 1, 7, 31} {
		wi := d.Element(i)
		var x fr.Element
		x.Mul(&g, &wi)
		if want := p.Eval(&x); !evals[i].Equal(&want) {
			t.Fatalf("coset FFT mismatch at %d", i)
		}
	}
	// Round trip.
	if err := d.IFFTCoset(evals); err != nil {
		t.Fatal(err)
	}
	for i := range evals {
		if !evals[i].Equal(&p[i]) {
			t.Fatal("coset round trip mismatch")
		}
	}
}

func TestDomainVanishingAndLagrange(t *testing.T) {
	d, err := NewDomain(8)
	if err != nil {
		t.Fatal(err)
	}
	// Z_H vanishes on H.
	for i := uint64(0); i < d.N; i++ {
		w := d.Element(i)
		if z := d.VanishingEval(&w); !z.IsZero() {
			t.Fatalf("Z_H(ω^%d) != 0", i)
		}
	}
	// L_i(x) interpolates the indicator at a random x: check against the
	// definition via Lagrange interpolation through (ω^j, δ_ij).
	x := fr.MustRandom()
	els := d.Elements()
	for i := uint64(0); i < d.N; i++ {
		ys := make([]fr.Element, d.N)
		ys[i] = fr.One()
		li, err := interpolate(els, ys)
		if err != nil {
			t.Fatal(err)
		}
		want := li.Eval(&x)
		got := d.LagrangeEval(i, &x)
		if !got.Equal(&want) {
			t.Fatalf("L_%d mismatch", i)
		}
	}
}

func TestDomainErrors(t *testing.T) {
	if _, err := NewDomain(0); err == nil {
		t.Fatal("NewDomain(0) should fail")
	}
	if _, err := NewDomain(1 << 29); err == nil {
		t.Fatal("NewDomain beyond two-adicity should fail")
	}
}

func TestQuickMulCommutes(t *testing.T) {
	prop := func(a, b, c, d uint64) bool {
		p := Polynomial{fr.NewElement(a), fr.NewElement(b)}
		q := Polynomial{fr.NewElement(c), fr.NewElement(d)}
		pq, err1 := Mul(p, q)
		qp, err2 := Mul(q, p)
		return err1 == nil && err2 == nil && pq.Equal(qp)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDivideByLinearConsistent(t *testing.T) {
	prop := func(a, b, c, z uint64) bool {
		p := Polynomial{fr.NewElement(a), fr.NewElement(b), fr.NewElement(c)}
		ze := fr.NewElement(z)
		q, rem := DivideByLinear(p, &ze)
		want := p.Eval(&ze)
		if !rem.Equal(&want) {
			return false
		}
		// Reconstruct at a second point.
		x := fr.NewElement(z + 13)
		var negZ fr.Element
		negZ.Neg(&ze)
		lin := Polynomial{negZ, fr.One()}
		qlin, err := Mul(q, lin)
		if err != nil {
			return false
		}
		recon := Add(qlin, Polynomial{rem})
		got, wantAt := recon.Eval(&x), p.Eval(&x)
		return got.Equal(&wantAt)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInterpolateEval(t *testing.T) {
	prop := func(y0, y1, y2 uint64) bool {
		xs := []fr.Element{fr.NewElement(1), fr.NewElement(2), fr.NewElement(3)}
		ys := []fr.Element{fr.NewElement(y0), fr.NewElement(y1), fr.NewElement(y2)}
		p, err := interpolate(xs, ys)
		if err != nil {
			return false
		}
		for i := range xs {
			if got := p.Eval(&xs[i]); !got.Equal(&ys[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

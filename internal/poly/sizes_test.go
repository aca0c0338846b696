package poly

import (
	"math/rand"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// supportedSizes lists every legal domain size ≤ max, both families, in
// increasing order.
func supportedSizes(max uint64) []uint64 {
	var sizes []uint64
	for p := uint64(1); p <= max; p <<= 1 {
		sizes = append(sizes, p)
		if p >= 2 && 3*p/2 <= max {
			sizes = append(sizes, 3*p/2)
		}
	}
	return sizes
}

func mustDomain(t testing.TB, n uint64) *Domain {
	t.Helper()
	d, err := NewDomain(n)
	if err != nil {
		t.Fatalf("NewDomain(%d): %v", n, err)
	}
	if d.N != n {
		t.Fatalf("NewDomain(%d) has size %d", n, d.N)
	}
	return d
}

// TestNewDomainTakesNextSize pins the size rule: the smallest of 2^k and
// 3·2^k that holds n, every legal size maps to itself, and the generator has
// exactly that order.
func TestNewDomainTakesNextSize(t *testing.T) {
	for _, tc := range []struct{ n, want uint64 }{
		{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 6}, {6, 6}, {7, 8}, {9, 12}, {13, 16},
		{671, 768}, {730, 768}, {769, 1024}, {1025, 1536}, {1738, 2048},
		{4097, 6144}, {6145, 8192}, {5*1024 + 6, 6144},
		{1<<28 - 1, 1 << 28}, {3<<26 - 1, 3 << 26}, {3<<26 + 1, 1 << 28},
	} {
		d, err := NewDomain(tc.n)
		if err != nil {
			t.Fatalf("NewDomain(%d): %v", tc.n, err)
		}
		if d.N != tc.want {
			t.Errorf("NewDomain(%d) has size %d, want %d", tc.n, d.N, tc.want)
		}
	}
	one := fr.One()
	for _, n := range supportedSizes(MaxDomainSize) {
		d := mustDomain(t, n)
		if d.N != uint64(1)<<d.Log && d.N != uint64(3)<<d.Log {
			t.Fatalf("size %d: Log = %d", n, d.Log)
		}
		// ω has order exactly N: ω^N = 1 and ω^(N/p) ≠ 1 for p = 2, 3.
		var x fr.Element
		if x.ExpUint64(&d.Gen, n); !x.Equal(&one) {
			t.Fatalf("size %d: ω^N != 1", n)
		}
		for _, p := range []uint64{2, 3} {
			if n%p != 0 {
				continue
			}
			if x.ExpUint64(&d.Gen, n/p); x.Equal(&one) {
				t.Fatalf("size %d: ω has order dividing N/%d", n, p)
			}
		}
	}
	if _, err := NewDomain(MaxDomainSize + 1); err == nil {
		t.Fatal("NewDomain(2^28+1) should fail although 3·2^27 would hold it")
	}
}

// dft is the O(N²) definition the transforms are checked against:
// out[i] = Σ_j a[j]·(shift·root^i)^j.
func dft(a []fr.Element, root, shift *fr.Element) []fr.Element {
	out := make([]fr.Element, len(a))
	x := *shift
	for i := range out {
		out[i] = Polynomial(a).Eval(&x)
		x.Mul(&x, root)
	}
	return out
}

// TestFFTMatchesDFT checks all four transforms against the definition on
// every supported size up to 3·2^7.
func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	one := fr.One()
	for _, n := range supportedSizes(3 << 7) {
		d := mustDomain(t, n)
		coeffs := randVec(rng, n)
		for _, tc := range []struct {
			name     string
			shift    *fr.Element
			fwd, inv func([]fr.Element) error
		}{
			{"FFT/IFFT", &one, d.FFT, d.IFFT},
			{"FFTCoset/IFFTCoset", &d.CosetShift, d.FFTCoset, d.IFFTCoset},
		} {
			want := dft(coeffs, &d.Gen, tc.shift)
			got := append([]fr.Element(nil), coeffs...)
			if err := tc.fwd(got); err != nil {
				t.Fatal(err)
			}
			if !equalVec(got, want) {
				t.Fatalf("n=%d: %s forward differs from the DFT", n, tc.name)
			}
			// The inverse is checked on its own input, not as a round trip:
			// it must take the oracle's evaluations back to the coefficients.
			if err := tc.inv(want); err != nil {
				t.Fatal(err)
			}
			if !equalVec(want, coeffs) {
				t.Fatalf("n=%d: %s inverse of the DFT is not the input", n, tc.name)
			}
		}
	}
}

// TestFFTRadix3BitIdentityAcrossWorkers is TestFFTMatchesSerialReference for
// the sizes the prover's 3·2^k keys and 6n cosets use: both directions give
// the same bits for every worker count, round-trip, and agree with Horner at
// a few domain points (the whole DFT is too slow here).
func TestFFTRadix3BitIdentityAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []uint64{768, 1536, 6144, 24576} {
		d := mustDomain(t, n)
		in := randVec(rng, n)
		fwd, inv := d.twiddles()
		for _, tw := range [][]fr.Element{fwd, inv} {
			ref := append([]fr.Element(nil), in...)
			d.fft(ref, tw, 1)
			for _, workers := range []int{2, 3, 8} {
				got := append([]fr.Element(nil), in...)
				d.fft(got, tw, workers)
				if !equalVec(got, ref) {
					t.Fatalf("n=%d workers=%d: transform differs from the serial one", n, workers)
				}
			}
		}

		evals := append([]fr.Element(nil), in...)
		if err := d.FFT(evals); err != nil {
			t.Fatal(err)
		}
		for _, i := range []uint64{0, 1, n / 3, n/3 + 1, 2 * n / 3, n - 1} {
			x := d.Element(i)
			if want := Polynomial(in).Eval(&x); !evals[i].Equal(&want) {
				t.Fatalf("n=%d: FFT[%d] != p(ω^%d)", n, i, i)
			}
		}
		if err := d.IFFT(evals); err != nil {
			t.Fatal(err)
		}
		if !equalVec(evals, in) {
			t.Fatalf("n=%d: IFFT(FFT(x)) != x", n)
		}
		if err := d.FFTCoset(evals); err != nil {
			t.Fatal(err)
		}
		var x fr.Element
		w := d.Element(n/3 + 2)
		x.Mul(&w, &d.CosetShift)
		if want := Polynomial(in).Eval(&x); !evals[n/3+2].Equal(&want) {
			t.Fatalf("n=%d: FFTCoset differs from p(g·ω^i)", n)
		}
		if err := d.IFFTCoset(evals); err != nil {
			t.Fatal(err)
		}
		if !equalVec(evals, in) {
			t.Fatalf("n=%d: IFFTCoset(FFTCoset(x)) != x", n)
		}
	}
}

// TestRadix3ExtendsPowerOfTwoDomain checks the relation Setup's quotient
// tables rely on: a domain's elements are every (big/N)-th element of any
// supported multiple of it, across the two families.
func TestRadix3ExtendsPowerOfTwoDomain(t *testing.T) {
	for _, tc := range []struct{ n, big uint64 }{
		{256, 768}, {256, 1536}, {1024, 6144}, {768, 3072}, {768, 6144}, {4096, 24576},
	} {
		small, big := mustDomain(t, tc.n), mustDomain(t, tc.big)
		if w := big.Element(tc.big / tc.n); !w.Equal(&small.Gen) {
			t.Fatalf("ω_%d^%d != ω_%d", tc.big, tc.big/tc.n, tc.n)
		}
	}
}

// TestMulAcrossSizeFamilies checks the FFT product (whose domain NewDomain
// sizes) against schoolbook for product lengths on both sides of every
// boundary between 2^k and 3·2^k.
func TestMulAcrossSizeFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{1024, 1025, 1536, 1537, 2048, 2049, 3072, 3073} {
		lp := n / 3
		p, q := Polynomial(randVec(rng, uint64(lp))), Polynomial(randVec(rng, uint64(n+1-lp)))
		want := make(Polynomial, n)
		for i := range p {
			for j := range q {
				var m fr.Element
				m.Mul(&p[i], &q[j])
				want[i+j].Add(&want[i+j], &m)
			}
		}
		got := mustMul(t, p, q)
		if len(got) != n || !equalVec(got, want) {
			t.Fatalf("product of length %d differs from schoolbook", n)
		}
	}
}

// FuzzFFT picks a size of either family and random coefficients and checks
// the forward transform, plain and coset, against Horner at three domain
// points, then both round trips.
func FuzzFFT(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(0))
	f.Add(uint8(9), int64(2), uint16(5))    // 3·2^3
	f.Add(uint8(20), int64(3), uint16(700)) // 2^10
	f.Add(uint8(19), int64(4), uint16(767)) // 3·2^8
	f.Add(uint8(25), int64(5), uint16(4099))
	sizes := supportedSizes(3 << 11)
	f.Fuzz(func(t *testing.T, pick uint8, seed int64, at uint16) {
		n := sizes[int(pick)%len(sizes)]
		d := mustDomain(t, n)
		rng := rand.New(rand.NewSource(seed))
		coeffs := randVec(rng, n)
		points := []uint64{uint64(at) % n, (uint64(at) + n/3 + 1) % n, n - 1}
		one := fr.One()
		for _, tc := range []struct {
			shift    *fr.Element
			fwd, inv func([]fr.Element) error
		}{
			{&one, d.FFT, d.IFFT},
			{&d.CosetShift, d.FFTCoset, d.IFFTCoset},
		} {
			evals := append([]fr.Element(nil), coeffs...)
			if err := tc.fwd(evals); err != nil {
				t.Fatal(err)
			}
			for _, i := range points {
				var x fr.Element
				w := d.Element(i)
				x.Mul(&w, tc.shift)
				if want := Polynomial(coeffs).Eval(&x); !evals[i].Equal(&want) {
					t.Fatalf("n=%d: transform[%d] differs from Horner", n, i)
				}
			}
			if err := tc.inv(evals); err != nil {
				t.Fatal(err)
			}
			if !equalVec(evals, coeffs) {
				t.Fatalf("n=%d: round trip is not the identity", n)
			}
		}
	})
}

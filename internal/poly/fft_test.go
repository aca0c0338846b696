package poly

import (
	"math/bits"
	"math/rand"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// randVec returns a deterministic pseudo-random vector of length n.
func randVec(rng *rand.Rand, n uint64) []fr.Element {
	out := make([]fr.Element, n)
	for i := range out {
		out[i] = fr.NewElement(rng.Uint64())
		if rng.Intn(4) == 0 {
			// Mix in values above 64 bits.
			var sq fr.Element
			sq.Square(&out[i])
			out[i] = sq
		}
	}
	return out
}

func equalVec(a, b []fr.Element) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(&b[i]) {
			return false
		}
	}
	return true
}

// fftSizes covers every power of two from 1 to 2^14, straddling the
// parallel threshold and exercising both block-split and butterfly-split
// stages.
func fftSizes() []uint64 {
	sizes := []uint64{}
	for n := uint64(1); n <= 1<<14; n <<= 1 {
		sizes = append(sizes, n)
	}
	return sizes
}

// TestFFTMatchesSerialReference asserts the table-driven (and, when forced,
// parallel) transform is bit-identical to the retained chained-multiply
// serial reference, for both directions.
func TestFFTMatchesSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range fftSizes() {
		d, err := NewDomain(n)
		if err != nil {
			t.Fatalf("NewDomain(%d): %v", n, err)
		}
		in := randVec(rng, n)

		ref := append([]fr.Element(nil), in...)
		if err := d.fftSerialReference(ref, &d.Gen); err != nil {
			t.Fatal(err)
		}

		got := append([]fr.Element(nil), in...)
		if err := d.FFT(got); err != nil {
			t.Fatal(err)
		}
		if !equalVec(got, ref) {
			t.Fatalf("n=%d: FFT differs from serial reference", n)
		}

		// Force a multi-worker split even on single-core machines.
		fwd, inv := d.twiddles()
		for _, workers := range []int{2, 3, 8} {
			got = append([]fr.Element(nil), in...)
			d.fft(got, fwd, workers)
			if !equalVec(got, ref) {
				t.Fatalf("n=%d workers=%d: parallel FFT differs from serial reference", n, workers)
			}
		}

		// Inverse direction against the reference with ω⁻¹.
		refInv := append([]fr.Element(nil), in...)
		if err := d.fftSerialReference(refInv, &d.GenInv); err != nil {
			t.Fatal(err)
		}
		for i := range refInv {
			refInv[i].Mul(&refInv[i], &d.NInv)
		}
		gotInv := append([]fr.Element(nil), in...)
		d.fft(gotInv, inv, 4)
		for i := range gotInv {
			gotInv[i].Mul(&gotInv[i], &d.NInv)
		}
		if !equalVec(gotInv, refInv) {
			t.Fatalf("n=%d: parallel IFFT core differs from serial reference", n)
		}
	}
}

// TestFFTRoundTrip asserts IFFT∘FFT and the coset variants are the
// identity across all sizes.
func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range fftSizes() {
		d, err := NewDomain(n)
		if err != nil {
			t.Fatalf("NewDomain(%d): %v", n, err)
		}
		in := randVec(rng, n)

		a := append([]fr.Element(nil), in...)
		if err := d.FFT(a); err != nil {
			t.Fatal(err)
		}
		if err := d.IFFT(a); err != nil {
			t.Fatal(err)
		}
		if !equalVec(a, in) {
			t.Fatalf("n=%d: IFFT(FFT(x)) != x", n)
		}

		a = append([]fr.Element(nil), in...)
		if err := d.FFTCoset(a); err != nil {
			t.Fatal(err)
		}
		if err := d.IFFTCoset(a); err != nil {
			t.Fatal(err)
		}
		if !equalVec(a, in) {
			t.Fatalf("n=%d: IFFTCoset(FFTCoset(x)) != x", n)
		}
	}
}

// TestFFTCosetMatchesShiftedEval asserts coset evaluations equal direct
// polynomial evaluation at g·ω^i.
func TestFFTCosetMatchesShiftedEval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []uint64{1, 2, 8, 64, 256} {
		d, err := NewDomain(n)
		if err != nil {
			t.Fatalf("NewDomain(%d): %v", n, err)
		}
		p := Polynomial(randVec(rng, n))
		evals := append([]fr.Element(nil), p...)
		if err := d.FFTCoset(evals); err != nil {
			t.Fatal(err)
		}
		for _, i := range []uint64{0, 1, n / 2, n - 1} {
			i %= n
			var x fr.Element
			w := d.Element(i)
			x.Mul(&w, &d.CosetShift)
			want := p.Eval(&x)
			if !evals[i].Equal(&want) {
				t.Fatalf("n=%d i=%d: coset eval mismatch", n, i)
			}
		}
	}
}

// TestDomainCachedTables asserts the lazily-built tables match the naive
// definitions and that repeated calls return the same cached slice.
func TestDomainCachedTables(t *testing.T) {
	d, err := NewDomain(256)
	if err != nil {
		t.Fatal(err)
	}
	elems := d.Elements()
	if &elems[0] != &d.Elements()[0] {
		t.Fatal("Elements() is not cached")
	}
	elemsInv := d.ElementsInv()
	one := fr.One()
	for i := uint64(0); i < d.N; i++ {
		want := d.Element(i)
		if !elems[i].Equal(&want) {
			t.Fatalf("Elements()[%d] != ω^%d", i, i)
		}
		var prod fr.Element
		prod.Mul(&elems[i], &elemsInv[i])
		if !prod.Equal(&one) {
			t.Fatalf("ElementsInv()[%d] is not the inverse of ω^%d", i, i)
		}
	}
	fwd, inv := d.twiddles()
	if uint64(len(fwd)) != d.N/2 || uint64(len(inv)) != d.N/2 {
		t.Fatalf("twiddle tables have length %d/%d, want %d", len(fwd), len(inv), d.N/2)
	}
	for j := range fwd {
		if !fwd[j].Equal(&elems[j]) {
			t.Fatalf("twiddle[%d] != ω^%d", j, j)
		}
	}
	cfwd, cinv := d.cosetPowers()
	g := fr.One()
	for i := range cfwd {
		if !cfwd[i].Equal(&g) {
			t.Fatalf("cosetPow[%d] != g^%d", i, i)
		}
		var prod fr.Element
		prod.Mul(&cfwd[i], &cinv[i])
		if !prod.Equal(&one) {
			t.Fatalf("cosetPowInv[%d] is not the inverse of g^%d", i, i)
		}
		g.Mul(&g, &d.CosetShift)
	}
}

// TestDomainConcurrentFirstUse hammers the lazy caches from many
// goroutines; under -race this catches unsynchronised table builds.
func TestDomainConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d, err := NewDomain(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	in := randVec(rng, d.N)
	ref := append([]fr.Element(nil), in...)
	if err := d.fftSerialReference(ref, &d.Gen); err != nil {
		t.Fatal(err)
	}

	done := make(chan []fr.Element, 8)
	for g := 0; g < 8; g++ {
		go func() {
			a := append([]fr.Element(nil), in...)
			if err := d.FFT(a); err != nil {
				a = nil
			}
			done <- a
		}()
	}
	for g := 0; g < 8; g++ {
		if got := <-done; !equalVec(got, ref) {
			t.Fatal("concurrent FFT differs from serial reference")
		}
	}
}

// fftSerialReference is the original fully-serial transform with twiddles
// recomputed by chained multiplication, retained as the bit-exact reference
// the property tests compare the table-driven parallel transform against.
func (d *Domain) fftSerialReference(a []fr.Element, w *fr.Element) error {
	n := uint64(len(a))
	if err := d.checkLen(a); err != nil {
		return err
	}
	if n == 1 {
		return nil
	}
	shift := 64 - uint(d.Log)
	for i := uint64(0); i < n; i++ {
		j := bits.Reverse64(i) >> shift
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	stageRoot := make([]fr.Element, d.Log+1)
	stageRoot[d.Log] = *w
	for s := d.Log - 1; s >= 1; s-- {
		stageRoot[s].Square(&stageRoot[s+1])
	}
	for s := 1; s <= d.Log; s++ {
		m := uint64(1) << s
		half := m >> 1
		wm := stageRoot[s]
		for k := uint64(0); k < n; k += m {
			wj := fr.One()
			for j := uint64(0); j < half; j++ {
				var t fr.Element
				t.Mul(&a[k+j+half], &wj)
				var u fr.Element
				u.Set(&a[k+j])
				a[k+j].Add(&u, &t)
				a[k+j+half].Sub(&u, &t)
				wj.Mul(&wj, &wm)
			}
		}
	}
	return nil
}

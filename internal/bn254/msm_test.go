package bn254

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// msmTestPoints returns n distinct points built by successive additions of
// the generator (cheap compared to n scalar multiplications).
func msmTestPoints(n int) []G1Affine {
	g := G1Generator()
	jacs := make([]G1Jac, n)
	var acc G1Jac
	acc.SetInfinity()
	for i := 0; i < n; i++ {
		acc.AddMixed(&g)
		jacs[i] = acc
	}
	out := make([]G1Affine, n)
	g1BatchFromJacobian(out, jacs)
	return out
}

// msmTestScalars mixes full-width scalars with the edge cases the signed
// recoding has to get right: 0, 1, r-1 (all-ones carries) and small values.
func msmTestScalars(rng *rand.Rand, n int) []fr.Element {
	out := make([]fr.Element, n)
	minusOne := fr.Zero()
	one := fr.One()
	minusOne.Sub(&minusOne, &one)
	for i := range out {
		switch rng.Intn(8) {
		case 0:
			out[i] = fr.Zero()
		case 1:
			out[i] = fr.One()
		case 2:
			out[i] = minusOne
		case 3:
			out[i] = fr.NewElement(rng.Uint64())
		default:
			out[i] = fr.MustRandom()
		}
	}
	return out
}

// msmTestWindows lists every width windowSize can return, plus 2 and 16,
// the narrowest and widest msmWithWindow supports.
var msmTestWindows = []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 16}

// msmNaive is the definitional reference: ∑ scalars[i]·points[i] by
// individual scalar multiplications.
func msmNaive(points []G1Affine, scalars []fr.Element) G1Affine {
	var acc G1Jac
	acc.SetInfinity()
	for i := range points {
		var t G1Jac
		t.ScalarMul(&points[i], &scalars[i])
		acc.AddAssign(&t)
	}
	var out G1Affine
	out.FromJacobian(&acc)
	return out
}

// TestG1MSMMatchesNaive cross-checks the signed-digit chunked MSM against
// the naive sum at sizes straddling the double-and-add cutoff at 3 and the
// windowSize breakpoints up to 3072.
func TestG1MSMMatchesNaive(t *testing.T) {
	sizes := []int{1, 2, 3, 19, 20, 47, 48, 111, 112, 319, 320, 639, 640, 1535, 1536, 3071, 3072}
	if testing.Short() {
		sizes = []int{1, 3, 20, 48, 112, 320}
	}
	maxN := sizes[len(sizes)-1]
	rng := rand.New(rand.NewSource(42))
	points := msmTestPoints(maxN)
	scalars := msmTestScalars(rng, maxN)
	for _, n := range sizes {
		got, err := G1MSM(points[:n], scalars[:n])
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := msmNaive(points[:n], scalars[:n])
		if !got.Equal(&want) {
			t.Fatalf("n=%d: G1MSM differs from naive sum", n)
		}
	}
}

// TestMSMEveryWindowWidth runs the Pippenger core at every window width
// the windowSize breakpoints can select (including the 12- to 14-bit
// windows normally reserved for 2^14+ points) and the int16 digit bound,
// so each bucket layout is exercised without a quarter-million-point naive
// reference.
func TestMSMEveryWindowWidth(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(43))
	points := msmTestPoints(n)
	scalars := msmTestScalars(rng, n)
	want := msmNaive(points, scalars)
	for _, c := range msmTestWindows {
		got := msmWithWindow(points, scalars, c)
		if !got.Equal(&want) {
			t.Fatalf("window=%d: msmWithWindow differs from naive sum", c)
		}
	}
}

// TestG1MSMWithInfinityPoints asserts points at infinity in the input are
// handled as zeros.
func TestG1MSMWithInfinityPoints(t *testing.T) {
	const n = 100
	rng := rand.New(rand.NewSource(44))
	points := msmTestPoints(n)
	scalars := msmTestScalars(rng, n)
	for i := 0; i < n; i += 7 {
		points[i] = G1Affine{} // infinity
	}
	got, err := G1MSM(points, scalars)
	if err != nil {
		t.Fatal(err)
	}
	want := msmNaive(points, scalars)
	if !got.Equal(&want) {
		t.Fatal("G1MSM with infinity points differs from naive sum")
	}
}

// TestG1MSMErrors covers the length-mismatch and empty-input contracts.
// TestG1MSMSmallScalars pins the window-count bound: scalars far below the
// 254-bit ceiling (including the all-zero vector) must still sum exactly.
func TestG1MSMSmallScalars(t *testing.T) {
	const n = 300
	points := msmTestPoints(n)
	scalars := make([]fr.Element, n)
	for i := range scalars {
		scalars[i] = fr.NewElement(uint64(i) * 2654435761)
	}
	got, err := G1MSM(points, scalars)
	if err != nil {
		t.Fatal(err)
	}
	want := msmNaive(points, scalars)
	if !got.Equal(&want) {
		t.Fatal("G1MSM with small scalars differs from naive sum")
	}

	zeros := make([]fr.Element, n)
	got, err = G1MSM(points, zeros)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsInfinity() {
		t.Fatal("G1MSM of all-zero scalars is not infinity")
	}
}

func TestG1MSMErrors(t *testing.T) {
	points := msmTestPoints(2)
	scalars := msmTestScalars(rand.New(rand.NewSource(45)), 3)
	if _, err := G1MSM(points, scalars); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	out, err := G1MSM(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsInfinity() {
		t.Fatal("empty MSM should be the point at infinity")
	}
}

// msmEdgeScalars returns the scalars whose recoding is most likely to go
// wrong at window width c: 0, 1, r-1 (every window carries), the digits
// exactly at the signed range's ends ±2^(c-1) in the first and in a higher
// window, and two full-width values.
func msmEdgeScalars(c int) []fr.Element {
	half := new(big.Int).Lsh(big.NewInt(1), uint(c-1))
	at := func(v *big.Int, window int) fr.Element {
		return fr.FromBig(new(big.Int).Lsh(v, uint(window*c)))
	}
	halfLess := new(big.Int).Sub(half, big.NewInt(1))
	out := []fr.Element{
		fr.Zero(), fr.One(), fr.NewFromInt64(-1),
		at(half, 0),     // recodes to digit -2^(c-1) plus a carry
		at(halfLess, 0), // the largest positive digit
		at(half, 3),
		at(halfLess, 3),
		fr.MustFromDecimal("8711490012043620347520491173648392718299283749201948572039485720394857203948"),
	}
	var neg fr.Element
	neg.Neg(&out[3]) // r - 2^(c-1)
	return append(out, neg, fr.MustRandom())
}

// TestG1MSMDuplicateAndOppositePoints feeds the bucket kernel what SRS
// points never do but a batch of attacker-supplied commitments can: the
// same point several times under one digit (the mixed add must double), P
// and -P under one digit (it must cancel to infinity and keep going), a
// point equal or opposite to the bucket's accumulated value, and infinity
// entries — each under every edge scalar, at every window width.
func TestG1MSMDuplicateAndOppositePoints(t *testing.T) {
	g := msmTestPoints(3)
	p, q, pq := g[0], g[1], g[2] // G, 2G, 3G = G + 2G
	var negP, negPQ, inf G1Affine
	negP.Neg(&p)
	negPQ.Neg(&pq)
	patterns := [][]G1Affine{
		{p, p},
		{p, p, p, p},
		{p, negP},
		{p, negP, q},
		{p, q, pq},    // third point equals the bucket value
		{p, q, negPQ}, // third point is its opposite
		{p, q, negPQ, p, p},
		{inf, p, inf, p, inf},
		{inf, inf},
	}
	for _, c := range msmTestWindows {
		scalars := msmEdgeScalars(c)
		var allPoints []G1Affine
		var allScalars []fr.Element
		for _, pat := range patterns {
			for si := range scalars {
				// Every point of the pattern under the same scalar, so
				// they meet in the same bucket of every window.
				same := make([]fr.Element, len(pat))
				for i := range same {
					same[i] = scalars[si]
				}
				got := msmWithWindow(pat, same, c)
				if want := msmNaive(pat, same); !got.Equal(&want) {
					t.Fatalf("window=%d pattern=%d scalar=%d: differs from naive sum", c, len(pat), si)
				}
				allPoints = append(allPoints, pat...)
				allScalars = append(allScalars, same...)
			}
		}
		// All of them in one MSM: different scalars share digits in some
		// windows, mixing the patterns inside a bucket.
		got := msmWithWindow(allPoints, allScalars, c)
		want := msmNaive(allPoints, allScalars)
		if !got.Equal(&want) {
			t.Fatalf("window=%d: combined edge MSM differs from naive sum", c)
		}
		if c == windowSize(len(allPoints)) {
			if viaAPI, err := G1MSM(allPoints, allScalars); err != nil || !viaAPI.Equal(&want) {
				t.Fatalf("G1MSM on the combined edge input: %v", err)
			}
		}
	}
}

// FuzzG1MSM lets the fuzzer pick points among the small multiples ±kG
// (and infinity) and scalars among a small pool, so equal and opposite
// points collide inside buckets densely; the oracle is the naive sum.
func FuzzG1MSM(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 2, 0}, uint8(0))
	f.Add([]byte{1, 3, 2, 3, 0, 3, 1, 3, 4, 5}, uint8(3))
	f.Add([]byte{5, 9, 6, 9, 5, 8, 6, 2, 16, 7, 15, 7}, uint8(7))
	mult := msmTestPoints(8)
	table := []G1Affine{{}} // index 0 is infinity
	for i := range mult {
		var neg G1Affine
		neg.Neg(&mult[i])
		table = append(table, mult[i], neg)
	}
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		c := msmTestWindows[int(width)%len(msmTestWindows)]
		pool := msmEdgeScalars(c)
		pool = pool[:len(pool)-1] // drop the random one: a crasher must replay
		n := len(data) / 2
		if n > 64 {
			n = 64
		}
		points := make([]G1Affine, n)
		scalars := make([]fr.Element, n)
		for i := 0; i < n; i++ {
			points[i] = table[int(data[2*i])%len(table)]
			scalars[i] = pool[int(data[2*i+1])%len(pool)]
		}
		want := msmNaive(points, scalars)
		if n > 0 {
			if got := msmWithWindow(points, scalars, c); !got.Equal(&want) {
				t.Fatalf("window=%d: msmWithWindow differs from naive sum", c)
			}
		}
		got, err := G1MSM(points, scalars)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(&want) {
			t.Fatal("G1MSM differs from naive sum")
		}
	})
}

package bn254

import (
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
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
var msmTestWindows = []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16}

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

// The two ends of msmWithWindow's batch threshold: every bucket through the
// batch-affine rounds down to its last pair, or no round at all, every point
// added by the reduction's XYZZ mixed addition (what a small MSM gets).
const (
	msmAlwaysBatch = 0
	msmNeverBatch  = math.MaxInt
)

// msmBothFills runs the Pippenger core at width c once with the buckets
// filled by batch-affine rounds and once by XYZZ mixed additions, and fails
// unless the two agree; it returns the batch-affine result.
func msmBothFills(t testing.TB, points []G1Affine, scalars []fr.Element, c int) G1Affine {
	t.Helper()
	batched := msmWithWindow(points, scalars, c, msmAlwaysBatch)
	if xyzz := msmWithWindow(points, scalars, c, msmNeverBatch); !batched.Equal(&xyzz) {
		t.Fatalf("window=%d n=%d: batch-affine fill differs from XYZZ fill", c, len(points))
	}
	return batched
}

// TestMSMBatchThresholdEnds pins what msmBothFills relies on: at
// msmNeverBatch a bucket accumulation runs no batched round (it never asks
// for a denominator buffer), at msmAlwaysBatch it does, and the two sums are
// the same point.
func TestMSMBatchThresholdEnds(t *testing.T) {
	points := msmTestPoints(8)
	digits := []int16{1, 1, 1, 1, 2, -2, 2, 3}
	var never, always msmTaskScratch
	sums := [2]g1XYZZ{
		never.bucketAccumulate(4, points, digits, msmNeverBatch),
		always.bucketAccumulate(4, points, digits, msmAlwaysBatch),
	}
	if never.den != nil {
		t.Fatal("msmNeverBatch ran a batched round")
	}
	if always.den == nil {
		t.Fatal("msmAlwaysBatch ran no batched round")
	}
	var got [2]G1Affine
	for i := range sums {
		var j G1Jac
		sums[i].toJacobian(&j)
		got[i].FromJacobian(&j)
	}
	// 1·(G + 2G + 3G + 4G) + 2·(5G - 6G + 7G) + 3·8G = 46G
	want := msmNaive(points[:1], []fr.Element{fr.NewElement(46)})
	if !got[0].Equal(&want) || !got[1].Equal(&want) {
		t.Fatal("bucket accumulation differs from the naive sum")
	}
}

// msmEveryWidthBothFills checks both fills against want at every width in
// msmTestWindows.
func msmEveryWidthBothFills(t *testing.T, points []G1Affine, scalars []fr.Element, want *G1Affine) {
	t.Helper()
	for _, c := range msmTestWindows {
		if got := msmBothFills(t, points, scalars, c); !got.Equal(want) {
			t.Fatalf("window=%d n=%d: both fills differ from naive sum", c, len(points))
		}
	}
}

// TestG1MSMMatchesNaive cross-checks the signed-digit chunked MSM against
// the naive sum at sizes straddling the double-and-add cutoff at 3 and the
// windowSize breakpoints up to 3072.
func TestG1MSMMatchesNaive(t *testing.T) {
	sizes := []int{1, 2, 3, 15, 16, 47, 48, 111, 112, 255, 256, 639, 640, 1535, 1536, 3071, 3072}
	if testing.Short() {
		sizes = []int{1, 3, 16, 48, 112, 256}
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
		if n >= 3 && n%16 == 0 { // 16, 48, 112, 256, 640, 1536, 3072
			msmEveryWidthBothFills(t, points[:n], scalars[:n], &want)
		}
	}
}

// TestMSMEveryWindowWidth runs the Pippenger core at every window width
// the windowSize breakpoints can select (including the 11- to 14-bit
// windows normally reserved for 2^14+ points) and the int16 digit bound,
// so each bucket layout is exercised without a quarter-million-point naive
// reference.
func TestMSMEveryWindowWidth(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(43))
	points := msmTestPoints(n)
	scalars := msmTestScalars(rng, n)
	want := msmNaive(points, scalars)
	msmEveryWidthBothFills(t, points, scalars, &want)
	for _, c := range msmTestWindows {
		got := msmWithWindow(points, scalars, c, msmMinBatch)
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
	msmEveryWidthBothFills(t, points, scalars, &want)
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
	msmEveryWidthBothFills(t, points, scalars, &want)

	zeros := make([]fr.Element, n)
	got, err = G1MSM(points, zeros)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsInfinity() {
		t.Fatal("G1MSM of all-zero scalars is not infinity")
	}
	msmEveryWidthBothFills(t, points, zeros, &G1Affine{})
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
	wide, _ := new(big.Int).SetString("8711490012043620347520491173648392718299283749201948572039485720394857203948", 10)
	out := []fr.Element{
		fr.Zero(), fr.One(), fr.NewFromInt64(-1),
		at(half, 0),     // recodes to digit -2^(c-1) plus a carry
		at(halfLess, 0), // the largest positive digit
		at(half, 3),
		at(halfLess, 3),
		fr.FromBig(wide),
	}
	var neg fr.Element
	neg.Neg(&out[3]) // r - 2^(c-1)
	return append(out, neg, fr.MustRandom())
}

// TestG1MSMDuplicateAndOppositePoints feeds the bucket kernel what SRS
// points never do but a batch of attacker-supplied commitments can: the
// same point several times under one digit (the addition must double), P
// and -P under one digit (it must cancel to infinity and keep going), a
// point equal or opposite to the bucket's accumulated value, and infinity
// entries — and the shapes a sort-and-pair fill can get wrong: a whole
// chunk in one bucket with an odd and an even count, a pair that cancels
// while its bucket still has rounds to go, a pair whose sum equals the
// point left over beside it, and P/-P runs that produce an infinity in
// every round. Each under every edge scalar through both fills at every
// window width up to 12 bits; what the wider windows run is said below.
func TestG1MSMDuplicateAndOppositePoints(t *testing.T) {
	g := msmTestPoints(9)
	p, q, pq := g[0], g[1], g[2] // G, 2G, 3G = G + 2G
	var negP, negQ, negPQ, inf G1Affine
	negP.Neg(&p)
	negQ.Neg(&q)
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
		g[:8],                                // one bucket, even count: three full rounds
		g,                                    // one bucket, odd count: a point sits out every round
		{p, negP, g[3], g[4], g[5]},          // round 1 cancels a pair, round 2 adds into what is left
		{p, negP, q, negQ, g[3], g[4], g[5]}, // two cancellations, then an odd remainder
		{p, q, pq, pq},                       // round 1 yields 3G twice beside each other: round 2 doubles
		{p, q, negPQ, g[3]},                  // round 1 yields 3G and -3G + 4G
		{p, negP, p, negP, p, negP, p},       // every pair of round 1 cancels, one point survives
		{p, p, negP, negP, p, p, negP, negP}, // 2G, -2G, 2G, -2G: round 2 cancels everything
		{p, p, p, p, negP, negP, negP, negP, q, q, negQ, negQ, g[4]}, // an infinity in rounds 2 and 3
	}
	for _, c := range msmTestWindows {
		scalars := msmEdgeScalars(c)
		var allPoints []G1Affine
		var allScalars []fr.Element
		for pi, pat := range patterns {
			for si := range scalars {
				// Every point of the pattern under the same scalar, so
				// they meet in the same bucket of every window.
				same := make([]fr.Element, len(pat))
				for i := range same {
					same[i] = scalars[si]
				}
				allPoints = append(allPoints, pat...)
				allScalars = append(allScalars, same...)
				// A pattern under one scalar fills one bucket per window
				// with the same points in the same order at any width, so
				// beyond 12 bits, where a full-width scalar costs 2^(c-1)
				// reduction steps in every window, the two fills have
				// nothing new to disagree on: the first nine patterns go
				// through the batch-affine fill for the recoding and the
				// reduction at that width, and the fill shapes after them
				// only into the combined MSM below.
				var got G1Affine
				switch {
				case c <= 12:
					got = msmBothFills(t, pat, same, c)
				case pi < 9:
					got = msmWithWindow(pat, same, c, msmAlwaysBatch)
				default:
					continue
				}
				if want := msmNaive(pat, same); !got.Equal(&want) {
					t.Fatalf("window=%d pattern=%d scalar=%d: differs from naive sum", c, pi, si)
				}
			}
		}
		// All of them in one MSM: different scalars share digits in some
		// windows, mixing the patterns inside a bucket.
		got := msmBothFills(t, allPoints, allScalars, c)
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

// TestG1MSMConcurrent runs MSMs of different sizes from many goroutines at
// once, as plonk.commitParallel and concurrent provers do: each live call
// and each of its workers must hold scratch of its own, or the sums (and
// the race detector) say so.
func TestG1MSMConcurrent(t *testing.T) {
	sizes := []int{300, 700, 1100, 2500}
	rng := rand.New(rand.NewSource(46))
	points := msmTestPoints(sizes[len(sizes)-1])
	scalars := msmTestScalars(rng, len(points))
	want := make([]G1Affine, len(sizes))
	for i, n := range sizes {
		want[i] = msmNaive(points[:n], scalars[:n])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				i := (g + round) % len(sizes)
				got, err := G1MSM(points[:sizes[i]], scalars[:sizes[i]])
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(&want[i]) {
					t.Errorf("goroutine %d: concurrent G1MSM of %d points differs from naive sum", g, sizes[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// msmParentBytesPerCall is what one G1MSM of 2^13 points allocated before
// its scratch was pooled (BenchmarkG1MSM/2^13 -benchmem at PR 18).
const msmParentBytesPerCall = 576617

// TestG1MSMSteadyStateAllocation is the guard on the scratch pool: once
// warm, a 2^13-point MSM must be able to run on pooled memory alone. The
// quietest of a few calls is what is checked, because a garbage collection
// (or the race detector, which makes sync.Pool drop a quarter of its Puts)
// may empty the pool under any single one.
func TestG1MSMSteadyStateAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("2^13-point MSMs")
	}
	const n = 1 << 13
	rng := rand.New(rand.NewSource(47))
	points := msmTestPoints(n)
	scalars := msmTestScalars(rng, n)
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 8; i++ {
		runtime.ReadMemStats(&before)
		if _, err := G1MSM(points, scalars); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i > 0 {
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	if least > msmParentBytesPerCall {
		t.Fatalf("a warm G1MSM of 2^13 points allocated %d bytes, more than the %d of the unpooled kernel", least, msmParentBytesPerCall)
	}
	t.Logf("warm G1MSM of 2^13 points: %d bytes allocated (unpooled kernel: %d)", least, msmParentBytesPerCall)
}

// FuzzG1MSM lets the fuzzer pick points among the small multiples ±kG
// (and infinity) and scalars among a small pool, so equal and opposite
// points collide inside buckets densely; the oracle is the naive sum, and
// the batch-affine and XYZZ fills must also agree with each other.
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
			if got := msmBothFills(t, points, scalars, c); !got.Equal(&want) {
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

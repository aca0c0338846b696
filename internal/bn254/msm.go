package bn254

import (
	"fmt"
	"math/bits"
	"sync"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/parallel"
)

// msmMinChunk is the smallest per-task point range worth a goroutine: a
// bucket accumulation over fewer points is dominated by the bucket
// reduction itself.
const msmMinChunk = 256

// msmMinBatch is the smallest number of independent affine additions worth
// one shared field inversion. A batched addition is ~50 ns cheaper than the
// XYZZ mixed addition it replaces and the Fermat inversion costs ~8 µs, so
// the two meet near 150 pairs; the measured curve is flat from 96 to 192
// (EXPERIMENTS.md §"Batch-affine buckets"). A chunk that cannot fill its
// first round this far — every verifier and seal-fold MSM — is summed with
// XYZZ mixed additions only.
const msmMinBatch = 128

// G1MSM computes the multi-scalar multiplication ∑ scalars[i]·points[i]
// with Pippenger's bucket algorithm using signed windowed digits (halving
// the bucket count per window) and a two-dimensional parallel split: the
// point vector is chunked so the task count is numWindows × numChunks,
// which saturates any core count instead of capping at the ~20–30 windows
// of a 254-bit scalar. It is the MSM over bases that are not a fixed
// prefix of an SRS — verifier and seal-time fold MSMs, VerifySRS — and
// over the SRS prefixes G1MSMTable does not serve.
func G1MSM(points []G1Affine, scalars []fr.Element) (G1Affine, error) {
	if len(points) != len(scalars) {
		return G1Affine{}, fmt.Errorf("bn254: msm length mismatch: %d points, %d scalars", len(points), len(scalars))
	}
	if len(points) == 0 {
		return G1Affine{}, nil
	}
	if len(points) < 3 {
		// One shared bucket walk only starts winning once a few points
		// amortise the per-window reductions; below that, plain
		// double-and-add is cheaper.
		var acc G1Jac
		acc.SetInfinity()
		for i := range points {
			var t G1Jac
			t.ScalarMul(&points[i], &scalars[i])
			acc.AddAssign(&t)
		}
		var out G1Affine
		out.FromJacobian(&acc)
		return out, nil
	}
	return msmWithWindow(points, scalars, windowSize(len(points)), msmMinBatch), nil
}

// scalarBits bounds the bit length of a canonical scalar (r < 2^254).
const scalarBits = 254

// msmWindows is the number of c-bit signed digits a scalar below 2^bits
// needs, for both MSM paths. With c·W ≥ bits+2 the top window holds at most
// c-2 bits of the scalar: its digit plus the carry from below stays under
// 2^(c-1) and never carries out, so no window past those is ever non-zero.
func msmWindows(bits, c int) int { return (bits + 1 + c) / c }

// msmScratch is the memory one msmWithWindow call needs: the signed
// digits, one sum per task, and one bucket scratch per worker.
type msmScratch struct {
	points  int              // the longest MSM this scratch has served
	digits  []int16          // signed digits, window-major
	partial []G1Jac          // one sum per (window, chunk) task
	tasks   []msmTaskScratch // one per worker, each reused by the worker's tasks
}

// msmTaskScratch is what one worker's bucket accumulations need.
type msmTaskScratch struct {
	off       []uint32   // counting-sort offsets, one per bucket plus two
	pts       []G1Affine // the chunk's points sorted by bucket, then each round's sums
	den, prod []Fp       // a round's slope denominators, and fpBatchInverse's scratch
}

// msmIdle holds the scratch of every G1MSM call that is not running.
// Verifiers, and provers on domains G1MSMTable does not serve, run MSMs of
// a few sizes, several at a time; each live call takes a scratch of its
// own, the smallest that has served an MSM as long as its own, so that two
// calls of different lengths at once do not trade scratch sized for the
// other. It is a free list rather than a sync.Pool: a pool keeps an object
// on the P that put it, where a call on another P does not find it, so the
// more Ps the more scratch a warm call allocated again; and a garbage
// collection empties a pool. The idle scratch is the longest MSM's memory
// times the most calls that ever ran at once.
var msmIdle struct {
	mu   sync.Mutex
	free []*msmScratch // guarded by mu
}

// takeMSMScratch returns an idle scratch for an MSM of n points, or a new
// one. The caller gives it back with releaseMSMScratch.
func takeMSMScratch(n int) *msmScratch {
	msmIdle.mu.Lock()
	defer msmIdle.mu.Unlock()
	free := msmIdle.free
	if len(free) == 0 {
		return new(msmScratch)
	}
	// The smallest that fits, else the largest.
	best := 0
	for i, s := range free {
		fits, bestFits := s.points >= n, free[best].points >= n
		switch {
		case fits && (!bestFits || s.points < free[best].points):
			best = i
		case !fits && !bestFits && s.points > free[best].points:
			best = i
		}
	}
	s := free[best]
	free[best] = free[len(free)-1]
	msmIdle.free = free[:len(free)-1]
	return s
}

// releaseMSMScratch returns s, which served an MSM of n points, to the idle
// list.
func releaseMSMScratch(s *msmScratch, n int) {
	s.points = max(s.points, n)
	msmIdle.mu.Lock()
	defer msmIdle.mu.Unlock()
	msmIdle.free = append(msmIdle.free, s)
}

// grow returns s resized to n elements, reallocating only when its
// capacity is short; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// msmWithWindow is the Pippenger core with an explicit window width
// (at most 16: digits are stored as int16) and batch threshold; tests call
// it directly to exercise every windowSize breakpoint and both kinds of
// bucket addition on small inputs.
func msmWithWindow(points []G1Affine, scalars []fr.Element, c, minBatch int) G1Affine {
	n := len(scalars)
	call := takeMSMScratch(n)
	defer releaseMSMScratch(call, n)
	// One pass per scalar: leave Montgomery form into canonical limbs, note
	// the bit length, and recode into signed windowed digits in
	// [-2^(c-1), 2^(c-1)-1] with carry propagation, so each window needs
	// only 2^(c-1) buckets (a negative digit subtracts the point). The matrix
	// is window-major so a bucket pass reads its digits sequentially. A point
	// at infinity keeps all-zero digits, so no bucket ever sees one.
	maxWindows := msmWindows(scalarBits, c)
	call.digits = grow(call.digits, maxWindows*n)
	digits := call.digits
	clear(digits)
	var mu sync.Mutex
	maxBits := 0
	parallel.Execute(n, func(start, end int) {
		top := 0
		for i := start; i < end; i++ {
			if points[i].IsInfinity() {
				continue
			}
			l := scalars[i].Limbs()
			top = max(top, recodeSigned(&l, c, digits[i:], n))
		}
		mu.Lock()
		if top > maxBits {
			maxBits = top
		}
		mu.Unlock()
	})
	// Bound the window count by the largest scalar: windows above its top
	// bit and carry hold all-zero digits, so walking them would only add
	// empty bucket reductions and c doublings each. Commitments to
	// low-degree or small-coefficient polynomials hit this path hard.
	numWindows := msmWindows(maxBits, c)

	// Two-dimensional task grid: windows × point chunks. Chunking only
	// helps when the per-chunk ranges stay large enough to amortise the
	// extra bucket reductions.
	numChunks := (parallel.Workers() + numWindows - 1) / numWindows
	if maxChunks := (n + msmMinChunk - 1) / msmMinChunk; numChunks > maxChunks {
		numChunks = maxChunks
	}
	if numChunks < 1 {
		numChunks = 1
	}
	chunkLen := (n + numChunks - 1) / numChunks

	numTasks := numWindows * numChunks
	call.partial = grow(call.partial, numTasks)
	partial := call.partial
	// Worker k runs tasks [k·numTasks/workers, (k+1)·numTasks/workers) on
	// scratch k.
	workers := min(parallel.Workers(), numTasks)
	for len(call.tasks) < workers {
		call.tasks = append(call.tasks, msmTaskScratch{})
	}
	parallel.ExecuteWorkers(workers, workers, func(first, last int) {
		for k := first; k < last; k++ {
			s := &call.tasks[k]
			for task := k * numTasks / workers; task < (k+1)*numTasks/workers; task++ {
				w := task / numChunks
				lo := (task % numChunks) * chunkLen
				hi := min(lo+chunkLen, n)
				sum := s.bucketAccumulate(1<<(c-1), points[lo:hi], digits[w*n+lo:w*n+hi], minBatch)
				sum.toJacobian(&partial[task])
			}
		}
	})

	// Reduce chunk sums per window, then combine windows with doublings.
	var acc G1Jac
	acc.SetInfinity()
	for w := numWindows - 1; w >= 0; w-- {
		if w != numWindows-1 {
			for k := 0; k < c; k++ {
				acc.Double(&acc)
			}
		}
		for chunk := 0; chunk < numChunks; chunk++ {
			acc.AddAssign(&partial[w*numChunks+chunk])
		}
	}
	var out G1Affine
	out.FromJacobian(&acc)
	return out
}

// bucketAccumulate computes ∑ digit_i · P_i for one window over one point
// chunk. Bucket b holds the points of |digit| = b+1 ∈ [1, numBuckets];
// negative digits contribute the negated point, and no point is infinity
// (msmWithWindow gave those zero digits).
//
// The points are counting-sorted by bucket, then every bucket is halved by
// rounds of pairwise affine additions: the pairs of a round are independent,
// so one shared inversion yields every slope (Montgomery's trick) and an
// addition costs 5M + 1S against the 8M + 2S of an XYZZ mixed addition.
// Rounds stop when fewer than minBatch pairs are left to share the
// inversion, and the XYZZ running sum of the reduction takes what remains of
// each bucket point by point with addMixed. A chunk too short to fill even
// its first round — every verifier and seal-fold MSM — is summed that way
// whole. minBatch = 0 runs the rounds down to the last pair and
// minBatch = math.MaxInt none at all (tests).
func (s *msmTaskScratch) bucketAccumulate(numBuckets int, points []G1Affine, digit []int16, minBatch int) g1XYZZ {
	// After the prefix sum off[b+1] is where bucket b starts; the scatter
	// advances it to where bucket b ends, which is where b+1 starts, so
	// bucket b is then pts[off[b]:off[b+1]].
	s.off = grow(s.off, numBuckets+2)
	off := s.off
	clear(off)
	for _, d := range digit {
		if d != 0 {
			off[bucketOf(d)+2]++
		}
	}
	for b := 2; b < len(off); b++ {
		off[b] += off[b-1]
	}
	// The scratch is sized by the chunk, not by this call's non-zero digits
	// or pairs, so a reused scratch grows once per chunk length.
	s.pts = grow(s.pts, len(digit))
	pts := s.pts[:off[numBuckets+1]]
	for i, d := range digit {
		if d == 0 {
			continue
		}
		p := &pts[off[bucketOf(d)+1]]
		off[bucketOf(d)+1]++
		*p = points[i]
		if d < 0 {
			p.Y.Neg(&p.Y)
		}
	}
	// From here cnt[b] counts bucket b's points, laid out back to back in
	// pts in bucket order.
	cnt := off[:numBuckets]
	for b := range cnt {
		cnt[b] = off[b+1] - off[b]
	}

	for {
		pairs := 0
		for _, m := range cnt {
			pairs += int(m / 2)
		}
		if pairs < max(minBatch, 1) {
			break
		}
		s.den, s.prod = grow(s.den, len(digit)/2), grow(s.prod, len(digit)/2)
		den, prod := s.den[:pairs], s.prod[:pairs]
		d, k := 0, 0
		for _, m := range cnt {
			for j := uint32(0); j+1 < m; j += 2 {
				slopeDenominator(&den[d], &pts[k], &pts[k+1])
				d, k = d+1, k+2
			}
			k += int(m & 1)
		}
		fpBatchInverse(den, prod)
		// Pack the sums, and each bucket's odd point out, to the front of
		// pts: a pair is two reads for at most one write, so the write
		// position never passes the read position.
		r, w, d := 0, 0, 0
		for b, m := range cnt {
			cnt[b] = 0
			for j := uint32(0); j+1 < m; j += 2 {
				if !den[d].IsZero() { // else the pair cancelled
					pts[w].addAffine(&pts[r], &pts[r+1], &den[d])
					w++
					cnt[b]++
				}
				r, d = r+2, d+1
			}
			if m&1 == 1 {
				pts[w] = pts[r]
				r, w = r+1, w+1
				cnt[b]++
			}
		}
		pts = pts[:w]
	}

	var running, sum g1XYZZ
	k := len(pts)
	for b := len(cnt) - 1; b >= 0; b-- {
		for j := cnt[b]; j > 0; j-- {
			k--
			running.addMixed(&pts[k], false)
		}
		sum.add(&running)
	}
	return sum
}

// bucketOf maps a non-zero signed digit to its bucket index |d| - 1. The
// sign of a digit is a coin flip, so it is folded in without a branch.
func bucketOf(d int16) int {
	v := int32(d)
	sign := v >> 31
	return int((v^sign)-sign) - 1
}

// slopeDenominator sets d to the denominator of the slope of the line
// through the finite points p and q — x_q - x_p, or 2y for the tangent when
// p = q — and to zero exactly when p + q is infinity (opposite points, or a
// point of order two), so that no other zero reaches a shared inversion.
func slopeDenominator(d *Fp, p, q *G1Affine) {
	d.Sub(&q.X, &p.X)
	if d.IsZero() && p.Y.Equal(&q.Y) {
		d.Double(&p.Y)
	}
}

// addAffine sets r = p + q for finite p, q given dInv, the inverse of their
// non-zero slopeDenominator. r may alias p or q.
func (r *G1Affine) addAffine(p, q *G1Affine, dInv *Fp) {
	var l, x3, y3 Fp
	if p.X.Equal(&q.X) {
		l.Square(&p.X) // tangent: λ = 3x² / 2y
		x3.Double(&l)
		l.Add(&l, &x3)
	} else {
		l.Sub(&q.Y, &p.Y) // chord: λ = (y_q - y_p) / (x_q - x_p)
	}
	l.Mul(&l, dInv)
	x3.Square(&l) // x_r = λ² - x_p - x_q
	x3.Sub(&x3, &p.X)
	x3.Sub(&x3, &q.X)
	y3.Sub(&p.X, &x3) // y_r = λ(x_p - x_r) - y_p
	y3.Mul(&y3, &l)
	y3.Sub(&y3, &p.Y)
	r.X, r.Y = x3, y3
}

// recodeSigned writes the signed c-bit digits of the canonical scalar l,
// each in [-2^(c-1), 2^(c-1)-1], to out[0], out[stride], out[2·stride], …
// with carry propagation, so ∑ out[w·stride]·2^(c·w) = l, and returns the
// bit length of l. Digits above the last non-zero one are not written; the
// caller zeroes them.
func recodeSigned(l *[4]uint64, c int, out []int16, stride int) int {
	bl := limbsBitLen(l)
	carry := 0
	for w := 0; w*c < bl || carry != 0; w++ {
		d := limbWindow(l, w*c, c) + carry
		carry = 0
		if d >= 1<<(c-1) {
			d -= 1 << c
			carry = 1
		}
		out[w*stride] = int16(d)
	}
	return bl
}

// limbsBitLen returns the bit length of a little-endian 256-bit integer.
func limbsBitLen(l *[4]uint64) int {
	for j := 3; j >= 0; j-- {
		if l[j] != 0 {
			return 64*j + bits.Len64(l[j])
		}
	}
	return 0
}

// limbWindow returns the c bits of l starting at bit offset (counting from
// the least-significant bit); bits at or beyond 256 read as zero.
func limbWindow(l *[4]uint64, offset, c int) int {
	if offset >= 256 {
		return 0
	}
	j, sh := offset/64, uint(offset%64)
	v := l[j] >> sh
	if sh+uint(c) > 64 && j < 3 {
		v |= l[j+1] << (64 - sh)
	}
	return int(v & (1<<uint(c) - 1))
}

// windowSize picks the Pippenger window for n points: the fastest width in
// a measured sweep of msmWithWindow over c = 2..16 with full-width scalars
// (BenchmarkMSMWindow; table in EXPERIMENTS.md). A window costs one
// addition per point and two more per bucket for the reduction, so the
// optimum sits where the reduction is a minor share of the window; the
// curve is flat within ±1 of each entry.
func windowSize(n int) int {
	switch {
	case n < 16:
		return 3
	case n < 48:
		return 4
	case n < 112:
		return 5
	case n < 256:
		return 6
	case n < 640:
		return 7
	case n < 1536:
		return 8
	case n < 3072:
		return 9
	case n < 1<<14:
		return 10
	case n < 1<<15:
		return 11
	case n < 1<<16:
		return 12
	case n < 1<<18:
		return 13
	default:
		return 14
	}
}

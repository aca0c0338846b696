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

// G1MSM computes the multi-scalar multiplication ∑ scalars[i]·points[i]
// with Pippenger's bucket algorithm using signed windowed digits (halving
// the bucket count per window) and a two-dimensional parallel split: the
// point vector is chunked so the task count is numWindows × numChunks,
// which saturates any core count instead of capping at the ~20–30 windows
// of a 254-bit scalar. It is the workhorse behind every KZG commitment in
// the repo.
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
	return msmWithWindow(points, scalars, windowSize(len(points))), nil
}

// scalarBits bounds the bit length of a canonical scalar (r < 2^254).
const scalarBits = 254

// msmWithWindow is the Pippenger core with an explicit window width
// (at most 16: digits are stored as int16); tests call it directly to
// exercise every windowSize breakpoint on small inputs.
func msmWithWindow(points []G1Affine, scalars []fr.Element, c int) G1Affine {
	n := len(scalars)
	// One pass per scalar: leave Montgomery form into canonical limbs, note
	// the bit length, and recode into signed windowed digits in
	// [-2^(c-1), 2^(c-1)-1] with carry propagation, so each window needs
	// only 2^(c-1) buckets (a negative digit subtracts the point). One extra
	// window absorbs the final carry (its digit is 0 or 1). The matrix is
	// window-major so a bucket pass reads its digits sequentially.
	maxWindows := (scalarBits+c-1)/c + 1
	digits := make([]int16, maxWindows*n)
	var mu sync.Mutex
	maxBits := 0
	parallel.Execute(n, func(start, end int) {
		top := 0
		for i := start; i < end; i++ {
			l := scalars[i].Limbs()
			bl := limbsBitLen(&l)
			if bl > top {
				top = bl
			}
			carry := 0
			for w := 0; w*c < bl || carry != 0; w++ {
				d := limbWindow(&l, w*c, c) + carry
				carry = 0
				if d >= 1<<(c-1) {
					d -= 1 << c
					carry = 1
				}
				digits[w*n+i] = int16(d)
			}
		}
		mu.Lock()
		if top > maxBits {
			maxBits = top
		}
		mu.Unlock()
	})
	// Bound the window count by the largest scalar: windows above its top
	// bit hold all-zero digits, so walking them would only add empty bucket
	// reductions and c doublings each. Commitments to low-degree or
	// small-coefficient polynomials hit this path hard.
	numWindows := (maxBits+c-1)/c + 1

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

	partial := make([]G1Jac, numWindows*numChunks)
	parallel.Execute(numWindows*numChunks, func(start, end int) {
		// One bucket array per worker range, reused by every task in it.
		buckets := make([]g1XYZZ, 1<<(c-1))
		for task := start; task < end; task++ {
			w := task / numChunks
			lo := (task % numChunks) * chunkLen
			hi := lo + chunkLen
			if hi > n {
				hi = n
			}
			sum := bucketAccumulate(buckets, points[lo:hi], digits[w*n+lo:w*n+hi])
			sum.toJacobian(&partial[task])
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
// chunk, using (and first clearing) the caller's bucket array. Bucket b
// holds the points of |digit| = b+1 ∈ [1, 2^(c-1)]; negative digits
// contribute the negated point.
func bucketAccumulate(buckets []g1XYZZ, points []G1Affine, digit []int16) g1XYZZ {
	clear(buckets)
	for i, d := range digit {
		switch {
		case d > 0:
			buckets[d-1].addMixed(&points[i], false)
		case d < 0:
			buckets[-int(d)-1].addMixed(&points[i], true)
		}
	}
	var running, sum g1XYZZ
	for b := len(buckets) - 1; b >= 0; b-- {
		running.add(&buckets[b])
		sum.add(&running)
	}
	return sum
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
// (BenchmarkMSMWindow; table in EXPERIMENTS.md). A window costs n mixed
// additions plus 2·2^(c-1) general additions of bucket reduction, so the
// optimum sits where the reduction is a minor share of the window; the
// curve is flat within ±1 of each entry.
func windowSize(n int) int {
	switch {
	case n < 20:
		return 3
	case n < 48:
		return 4
	case n < 112:
		return 5
	case n < 320:
		return 6
	case n < 640:
		return 7
	case n < 1536:
		return 8
	case n < 3072:
		return 9
	case n < 1<<14:
		return 10
	case n < 1<<16:
		return 12
	case n < 1<<18:
		return 13
	default:
		return 14
	}
}

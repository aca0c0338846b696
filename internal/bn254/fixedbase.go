package bn254

import (
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/parallel"
)

// fixedBaseWidth is the signed digit width c of G1FixedBaseMul: the fastest
// width of a sweep over c = 8…13 at 32 784 scalars (BenchmarkFixedBaseWidth;
// table in EXPERIMENTS.md §PR 59). A wider digit means fewer windows, so
// fewer additions per scalar, but a table of 2^(c-1) entries per window
// that outgrows the cache: 1.5 MiB at c = 11.
const fixedBaseWidth = 11

// fixedBaseBatch is how many scalars share one batch of affine additions,
// hence one field inversion, per window. A batch's accumulators, digits and
// slope denominators stay in cache at this length, and the inversion is a
// few nanoseconds per addition.
const fixedBaseBatch = 1024

// G1FixedBaseMul returns [s_i]B for every scalar s_i. It is the one
// fixed-base path: an SRS's powers [τ^i]G, 16 400 of them for zkdet-node
// and 32 784 for the benchmark and the cluster, are its consumer.
//
// A table holds d·2^(c·w)·B for every window w and digit d in
// [1, 2^(c-1)], its windows built in parallel. Each scalar is recoded into
// signed c-bit digits, so [s]B is the sum of one signed table entry per
// non-zero digit and needs no doubling. Workers take contiguous ranges of
// the scalars and walk them in batches of fixedBaseBatch: per window, the
// batch's additions are independent, so they run in affine coordinates on
// one shared inversion (Montgomery's trick), as G1MSM's bucket rounds do,
// and the results need no normalisation.
//
// The scalars are secret when they are powers of τ, and so are their
// digits: the digit scratch is cleared before G1FixedBaseMul returns, and
// the caller clears the scalars.
func G1FixedBaseMul(base *G1Affine, scalars []fr.Element) []G1Affine {
	return fixedBaseMul(base, scalars, fixedBaseWidth)
}

// fixedBaseMul is G1FixedBaseMul at digit width c (at most 16: digits are
// int16); tests and the width sweep call it directly.
func fixedBaseMul(base *G1Affine, scalars []fr.Element, c int) []G1Affine {
	t := newFixedBaseTable(base, c)
	out := make([]G1Affine, len(scalars))
	parallel.Execute(len(scalars), func(start, end int) {
		var s fixedBaseScratch
		t.mulRange(out[start:end], scalars[start:end], &s)
	})
	return out
}

// fixedBaseTable holds the signed-digit multiples of one base point: entry
// pts[w·2^(c-1) + d-1] is d·2^(c·w)·B for window w < windows and digit
// d in [1, 2^(c-1)]. No entry is infinity: r is prime and divides neither
// d nor a power of two.
type fixedBaseTable struct {
	c, windows int
	pts        []G1Affine
}

// newFixedBaseTable builds the table of b at digit width c. The window
// bases 2^(c·w)·B take c doublings each, in turn. Then every window doubles
// its run of multiples 2^(c-1)-fold in c-1 levels, the windows in
// parallel: with the first m = 2^k multiples in place, (m+j)·E = (j)·E +
// m·E for j in [1, m], one batch of affine additions per level across a
// worker's windows, the last of each window's a doubling.
func newFixedBaseTable(b *G1Affine, c int) *fixedBaseTable {
	windows := msmWindows(scalarBits, c)
	half := 1 << (c - 1)
	t := &fixedBaseTable{c: c, windows: windows, pts: make([]G1Affine, windows*half)}
	jacs := make([]G1Jac, windows)
	jacs[0].FromAffine(b)
	for w := 1; w < windows; w++ {
		jacs[w] = jacs[w-1]
		for k := 0; k < c; k++ {
			jacs[w].Double(&jacs[w])
		}
	}
	bases := make([]G1Affine, windows)
	g1BatchFromJacobian(bases, jacs)
	parallel.Execute(windows, func(start, end int) {
		den := make([]Fp, (end-start)*half/2)
		prod := make([]Fp, len(den))
		for w := start; w < end; w++ {
			t.pts[w*half] = bases[w]
		}
		for m := 1; m < half; m *= 2 {
			k := 0
			for w := start; w < end; w++ {
				e := t.pts[w*half : (w+1)*half]
				for j := 0; j < m; j++ {
					slopeDenominator(&den[k], &e[j], &e[m-1])
					k++
				}
			}
			fpBatchInverse(den[:k], prod[:k])
			k = 0
			for w := start; w < end; w++ {
				e := t.pts[w*half : (w+1)*half]
				for j := 0; j < m; j++ {
					e[m+j].addAffine(&e[j], &e[m-1], &den[k])
					k++
				}
			}
		}
	})
	return t
}

// fixedBaseScratch is one worker's memory for a batch: the batch's signed
// digits, window-major, and per window the indices of the accumulators
// that take a finite addition, with their slope denominators and
// fpBatchInverse's scratch.
type fixedBaseScratch struct {
	digits    []int16
	idx       []int32
	den, prod []Fp
}

// mulRange sets out[i] = [scalars[i]]B batch by batch, and leaves the digit
// scratch zeroed.
func (t *fixedBaseTable) mulRange(out []G1Affine, scalars []fr.Element, s *fixedBaseScratch) {
	for lo := 0; lo < len(scalars); lo += fixedBaseBatch {
		hi := min(lo+fixedBaseBatch, len(scalars))
		s.recode(scalars[lo:hi], t.c, t.windows)
		t.addWindows(out[lo:hi], s)
	}
	clear(s.digits[:cap(s.digits)])
}

// recode writes the signed c-bit digits of every scalar to s.digits, one
// row of len(scalars) digits per window.
func (s *fixedBaseScratch) recode(scalars []fr.Element, c, windows int) {
	m := len(scalars)
	s.digits = grow(s.digits, windows*m)
	clear(s.digits)
	for i := range scalars {
		l := scalars[i].Limbs()
		recodeSigned(&l, c, s.digits[i:], m)
		clear(l[:])
	}
}

// addWindows sets out[i] to the sum of the table entries that the digits
// in column i of s.digits select. Per window, a digit that meets an
// accumulator still at infinity is a copy of its entry; the others are one
// batch of affine additions. A denominator of zero is a sum of opposite
// points, which leaves infinity; slopeDenominator turns a sum of equal
// points into a doubling. Below the top window neither can happen, because
// each entry outweighs the partial sum below it and neither wraps r. In the
// top window the sum is the scalar itself, never 0 mod r; a doubling there
// needs the partial sum to be the entry minus r, which a canonical scalar
// reaches at some widths (c = 8) but not at fixedBaseWidth. The kernel
// takes any digits at any width (TestFixedBaseAdditionBranches).
func (t *fixedBaseTable) addWindows(out []G1Affine, s *fixedBaseScratch) {
	m := len(out)
	half := 1 << (t.c - 1)
	clear(out)
	s.idx = grow(s.idx, m)
	s.den, s.prod = grow(s.den, m), grow(s.prod, m)
	for w := 0; w < t.windows; w++ {
		row := s.digits[w*m : (w+1)*m]
		entries := t.pts[w*half : (w+1)*half]
		k := 0
		for i, d := range row {
			if d == 0 {
				continue
			}
			q := signedEntry(entries, d)
			if out[i].IsInfinity() {
				out[i] = q
				continue
			}
			slopeDenominator(&s.den[k], &out[i], &q)
			s.idx[k] = int32(i)
			k++
		}
		fpBatchInverse(s.den[:k], s.prod[:k])
		for j, i := range s.idx[:k] {
			if s.den[j].IsZero() {
				out[i] = G1Affine{}
				continue
			}
			q := signedEntry(entries, row[i])
			out[i].addAffine(&out[i], &q, &s.den[j])
		}
	}
}

// signedEntry returns d·E for the non-zero digit d, where entries[e-1] is
// e·E.
func signedEntry(entries []G1Affine, d int16) G1Affine {
	q := entries[bucketOf(d)]
	if d < 0 {
		q.Y.Neg(&q.Y)
	}
	return q
}

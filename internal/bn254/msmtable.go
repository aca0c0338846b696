package bn254

import (
	"fmt"
	"slices"
	"sync"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/parallel"
)

// msmTableWidth is the digit width c of G1MSMTable: the fastest width of a
// sweep over c = 8…12 at 515, 1 539 and 3 075 points, the widths taking
// turns (BenchmarkMSMTableWidth; table in EXPERIMENTS.md §PR 47).
const msmTableWidth = 10

// msmTableMinLen and msmTableMaxLen bound the MSMs G1MSMTable runs on its
// table; the others go to G1MSM (BenchmarkMSMTableCrossover; EXPERIMENTS.md
// §PR 47). On two workers the two are even from 4 to 12 points, where a
// few narrow windows cost what the table pass's reduction of 2^(c-1)
// buckets per chunk does, and the table leads from 16. Towards the maximum
// the gain fades while the table and its scratch cost 4 160 B a point: the
// table pass was 1–12 % faster at 6 147 points, 4–8 % at 8 195, between
// 2 % faster and 2 % slower at 12 291, and between 1 % faster and 8 %
// slower at 16 384. So a prover on a domain of up to 6 144 rows commits on
// the table, one on 8 192 rows or more on G1MSM, and no table grows past
// 34 MB.
const (
	msmTableMinLen = 8
	msmTableMaxLen = 1<<13 - 1
)

// msmTableGrowAfter is how many MSMs an empty table sends to G1MSM before
// it first grows. Building it costs ~250 doublings per point, what 15 to
// 25 MSMs at 515 to 1 539 points save on it (EXPERIMENTS.md §PR 47), so a
// process that only derives a key or two and proves nothing — one Setup is
// 8 to 15 MSMs — never pays for a table. Once the table exists the process
// is proving, and a longer prefix enters it on the first MSM that needs it.
const msmTableGrowAfter = 16

// msmTableStep is the headroom of every extension: the table extends to
// the next multiple of it above the longest MSM so far. A key's Setup
// commits to polynomials as long as its domain (a multiple of 64 from 64
// rows up) and its proofs to a few coefficients more (blinded wires, the
// quotient's pieces), so one extension covers both instead of each of
// those lengths extending the table, and reallocating it and its scratch,
// once.
const msmTableStep = 64

// G1MSMTable is a fixed-base window table over a prefix of one base vector
// B (an SRS's powers of τ), which turns an MSM over that prefix into one
// bucket pass without doublings. Entry T[i·W+w] is 2^(c·w)·B[i], so with
// each scalar s_i recoded into W signed c-bit digits d_{i,w},
// ∑ s_i·B[i] = ∑_{i,w} d_{i,w}·T[i·W+w]: bucketAccumulate runs over the
// n·W entries as if they were n·W points with one-window scalars, split
// into GOMAXPROCS contiguous chunks, and the chunk sums are added up.
//
// The table is built lazily. The first msmTableGrowAfter-1 MSMs run on
// G1MSM; the next builds the table over the longest prefix any of them
// asked for, plus msmTableStep's headroom. After that an MSM over a longer
// prefix than the table covers first extends it, which the point-major
// layout makes an append.
//
// The table costs W·64 B per base point covered (1 664 B at c = 10), and
// the scratch an MSM needs another 1.5 times that. The scratch is the
// table's own, sized when the table grows: one digit stream, and one
// bucket scratch per chunk, as many chunks as GOMAXPROCS was then. Scratch
// this large taken per call, or from a sync.Pool that a garbage collection
// empties, would be reallocated inside proofs; this way an MSM on the table
// allocates nothing here. One mutex serialises the MSMs over one table
// (each already runs on every core) and its growth, so no MSM ever reads a
// partly built table.
//
// The zero value is an empty table.
type G1MSMTable struct {
	mu     sync.Mutex
	n      int              // guarded by mu; base points covered
	early  int              // guarded by mu; MSMs made while the table was empty
	want   int              // guarded by mu; the longest MSM made so far
	pts    []G1Affine       // guarded by mu; T, n·W entries, point-major
	digits []int16          // guarded by mu; the scalars' signed digits, laid out as pts
	tasks  []msmTaskScratch // guarded by mu; one bucket scratch per chunk
	sums   []G1Jac          // guarded by mu; one sum per chunk
}

// MSM returns ∑ scalars[i]·bases[i] for i < len(scalars). Every call on one
// table must pass the same base vector, which must not change once passed:
// the table keeps the multiples of the longest prefix it has seen and does
// not notice a changed base.
func (t *G1MSMTable) MSM(bases []G1Affine, scalars []fr.Element) (G1Affine, error) {
	if len(scalars) > len(bases) {
		return G1Affine{}, fmt.Errorf("bn254: msm length mismatch: %d bases, %d scalars", len(bases), len(scalars))
	}
	n := len(scalars)
	if n < msmTableMinLen || n > msmTableMaxLen {
		return G1MSM(bases[:n], scalars)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > t.n {
		t.want = max(t.want, n)
		if t.n == 0 {
			if t.early++; t.early < msmTableGrowAfter {
				return G1MSM(bases[:n], scalars)
			}
		}
		t.extend(bases[:min(len(bases), msmTableMaxLen, (t.want/msmTableStep+1)*msmTableStep)], msmTableWidth)
	}
	return t.msm(scalars, msmTableWidth), nil
}

// msm is MSM's table pass at digit width c over a table that covers
// len(scalars) points; tests call it directly on tables of other widths and
// on MSMs outside MSM's bounds. A table must be used at one width only. The
// caller holds t.mu.
func (t *G1MSMTable) msm(scalars []fr.Element, c int) G1Affine {
	n, W := len(scalars), msmWindows(scalarBits, c)
	pts, digits, tasks, sums := t.pts[:n*W], t.digits[:n*W], t.tasks, t.sums
	chunks := len(tasks)

	// One signed-digit recoding per scalar into its W slots of the stream;
	// a point at infinity keeps all-zero digits, so no bucket sees one.
	parallel.Execute(n, func(start, end int) {
		for i := start; i < end; i++ {
			d := digits[i*W : (i+1)*W]
			clear(d)
			if pts[i*W].IsInfinity() {
				continue
			}
			l := scalars[i].Limbs()
			recodeSigned(&l, c, d, 1)
		}
	})
	chunkLen := (n*W + chunks - 1) / chunks
	parallel.ExecuteWorkers(chunks, chunks, func(start, end int) {
		for k := start; k < end; k++ {
			lo, hi := min(k*chunkLen, n*W), min((k+1)*chunkLen, n*W)
			sum := tasks[k].bucketAccumulate(1<<(c-1), pts[lo:hi], digits[lo:hi], msmMinBatch)
			sum.toJacobian(&sums[k])
		}
	})
	var acc G1Jac
	acc.SetInfinity()
	for k := 0; k < chunks; k++ {
		acc.AddAssign(&sums[k])
	}
	var out G1Affine
	out.FromJacobian(&acc)
	return out
}

// extend extends the table to cover every point of bases, which starts with
// the prefix it covers already, and sizes the scratch to match. The
// caller holds t.mu.
func (t *G1MSMTable) extend(bases []G1Affine, c int) {
	old, n, W := t.n, len(bases), msmWindows(scalarBits, c)
	t.pts = slices.Grow(t.pts, (n-old)*W)[:n*W]
	pts := t.pts
	parallel.Execute(n-old, func(start, end int) {
		jacs := make([]G1Jac, end-start)
		row := make([]G1Affine, end-start)
		for j := range jacs {
			i := old + start + j
			pts[i*W] = bases[i]
			jacs[j].FromAffine(&bases[i])
		}
		for w := 1; w < W; w++ {
			for j := range jacs {
				for k := 0; k < c; k++ {
					jacs[j].Double(&jacs[j])
				}
			}
			g1BatchFromJacobian(row, jacs)
			for j := range row {
				pts[(old+start+j)*W+w] = row[j]
			}
		}
	})
	// Size the scratch for the longest MSM the table now serves, so that no
	// MSM on it grows any.
	chunks := parallel.Workers()
	chunkLen := (n*W + chunks - 1) / chunks
	t.digits = grow(t.digits, n*W)
	t.tasks, t.sums = grow(t.tasks, chunks), grow(t.sums, chunks)
	for k := range t.tasks {
		s := &t.tasks[k]
		s.pts = grow(s.pts, chunkLen)
		s.den, s.prod = grow(s.den, chunkLen/2), grow(s.prod, chunkLen/2)
	}
	t.n = n
}

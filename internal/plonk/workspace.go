package plonk

import (
	"time"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/obs"
	"github.com/zkdet/zkdet/internal/poly"
)

// workspace holds every buffer one proof fills, sized for one key: the
// wire values and their blinded polynomials, the permutation numerators,
// denominators and z, the LogUp columns of a lookup key, the coset columns
// and quotient of round 3, the next-row fold Y opens, and both round-5
// folds, whose quotients by
// (X − ζ) and (X − ζω) are taken in place. Prove overwrites or clears
// every buffer before it reads it, so a proof on a used workspace is
// byte-identical to one on a fresh workspace.
type workspace struct {
	aV, bV, cV []fr.Element      // wire values over the n rows
	pi         poly.Polynomial   // the public-input polynomial, n
	a, b, c    poly.Polynomial   // blinded wires, n + 2
	nums, dens []fr.Element      // grand-product factors, n; then LogUp's inversion inputs
	zV         []fr.Element      // z over the rows, n; first the denominators' inversion scratch
	z          poly.Polynomial   // blinded z, n + 3
	mV, hV, sV []fr.Element      // lookup: LogUp columns over the rows, n
	counts     []uint64          // lookup: one tally per table value
	m, h, s    poly.Polynomial   // lookup: blinded M, H (n + 2) and S (n + 3)
	y          poly.Polynomial   // Σ_l α^{6+l}·w_l, n + 2
	wire       [][]fr.Element    // coset columns of a, b, c, z, PI (and M, H, S)
	t          poly.Polynomial   // the quotient over the coset, then its coefficients
	foldZeta   poly.Polynomial   // round 5's fold at ζ, 3n (srsPowers)
	foldOmega  poly.Polynomial   // round 5's fold at ζω, n + 3
	pieces     []poly.Polynomial // the quotient's pieces, views into t
	fold       []poly.Polynomial // the polynomials round 5 folds at ζ
	coeffs     []fr.Element      // and their coefficients
}

// newWorkspace allocates a workspace for pk's domain and shape.
func (pk *ProvingKey) newWorkspace() *workspace {
	n := int(pk.Domain.N)
	vec := func(l int) []fr.Element { return make([]fr.Element, l) }
	ws := &workspace{
		aV: vec(n), bV: vec(n), cV: vec(n),
		pi: vec(n), a: vec(n + 2), b: vec(n + 2), c: vec(n + 2),
		nums: vec(n), dens: vec(n), zV: vec(n), z: vec(n + 3),
		y:         vec(n + 2),
		t:         vec(int(pk.quotient.N)),
		foldZeta:  vec(srsPowers(uint64(n))),
		foldOmega: vec(n + 3),
		pieces:    make([]poly.Polynomial, quotientPieces),
		// At most 16 linear columns, the pieces and 6 openings at ζ.
		fold:   make([]poly.Polynomial, 0, 16+quotientPieces+6),
		coeffs: make([]fr.Element, 0, 16+quotientPieces+6),
	}
	nbWire := 5
	if pk.shape.lookup() {
		ws.mV, ws.hV, ws.sV = vec(n), vec(n), vec(n)
		ws.counts = make([]uint64, 1<<pk.tableBits)
		ws.m, ws.h, ws.s = vec(n+2), vec(n+2), vec(n+3)
		nbWire = 8
	}
	ws.wire = make([][]fr.Element, nbWire)
	for i := range ws.wire {
		ws.wire[i] = vec(int(pk.quotient.N))
	}
	return ws
}

// takeWorkspace returns an idle workspace of pk, or a new one when every
// one is in use: concurrent proofs on one key each get their own.
func (pk *ProvingKey) takeWorkspace() *workspace {
	select {
	case ws := <-pk.idle:
		return ws
	default:
		return pk.newWorkspace()
	}
}

// putWorkspace hands a workspace back once its proof is done. A key keeps
// one idle workspace and drops the rest: each proof already spreads over
// every core, so proofs on one key mostly run one after another, and a key
// lives as long as its System, so a burst of concurrent proofs must not
// leave one workspace per prover behind for good. It is the key's own, not
// a sync.Pool's, because a garbage collection would empty a pool and the
// next proof would allocate its buffers again.
func (pk *ProvingKey) putWorkspace(ws *workspace) {
	select {
	case pk.idle <- ws:
	default:
	}
}

// Phase is one timed step of Setup or Prove. Each key keeps one
// obs.Histogram per phase (ProvingKey.Phase). The durations are those of
// the circuit's public structure — its size and shape — whatever the
// witness, and no phase reads anything from a witness but its length.
type Phase int

// The phases of Prove, in the order a proof runs them, then those of Setup.
const (
	// PhaseWitness: the wire columns, the public-input polynomial and the
	// blinded wires (and, for a lookup key, the multiplicities).
	PhaseWitness Phase = iota
	// PhaseCommit: the round-1 to round-3 commitments.
	PhaseCommit
	// PhasePermutation: the transcript's first rounds, the grand product z
	// and, for a lookup key, the LogUp columns H and S.
	PhasePermutation
	// PhaseQuotient: the coset FFTs, the quotient numerator, the inverse
	// transform and the degree check.
	PhaseQuotient
	// PhaseOpen: the round-4 openings and the linearization's scalars.
	PhaseOpen
	// PhaseFold: round 5's two folds, their divisions and their MSMs.
	PhaseFold
	// PhaseSetupInterpolate: Setup's interpolation of the key's columns.
	PhaseSetupInterpolate
	// PhaseSetupCosets: Setup's round-3 coset tables.
	PhaseSetupCosets
	// PhaseSetupCommit: Setup's column commitments.
	PhaseSetupCommit
	// NbPhases counts the phases.
	NbPhases
)

// phaseNames are the phases' names, as Metrics keys spell them.
var phaseNames = [NbPhases]string{
	"witness", "commit", "permutation", "quotient", "open", "fold",
	"setupInterpolate", "setupCosets", "setupCommit",
}

// String returns the phase's name: "quotient", "setupCommit", ….
func (p Phase) String() string { return phaseNames[p] }

// Phase returns the histogram of phase p's durations on this key: one
// observation per Setup phase, one per successful proof for each Prove
// phase. Callers read it (Quantile, or Merge into another histogram) and
// must not Observe into it.
func (pk *ProvingKey) Phase(p Phase) *obs.Histogram { return &pk.phases[p] }

// stopwatch splits one run of Setup or Prove into its phases: lap charges
// the time since the previous lap to a phase, and a phase that runs in
// several stretches (PhaseCommit) accumulates them.
type stopwatch struct {
	last time.Time
	d    [NbPhases]time.Duration
}

func newStopwatch() stopwatch { return stopwatch{last: time.Now()} }

func (s *stopwatch) lap(p Phase) {
	now := time.Now()
	s.d[p] += now.Sub(s.last)
	s.last = now
}

// record observes every phase in [from, to) into pk's histograms.
func (s *stopwatch) record(pk *ProvingKey, from, to Phase) {
	for p := from; p < to; p++ {
		pk.phases[p].Observe(s.d[p])
	}
}

package plonk

import (
	"fmt"
	"sort"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/transcript"
)

// Batch accumulates the pairing statements of many proofs against one
// verifying key and checks them all with a single two-pair pairing. Each
// proof's transcript replay and quotient-identity check still run
// individually (in Add), but the expensive pairing work is shared: the N
// deferred statements e(Lᵢ, G2)·e(-Wᵢ, τG2) == 1 are folded with powers of
// a transcript-derived challenge ρ into one statement, so the marginal
// pairing cost of an extra proof is two G1 scalar multiplications instead
// of a Miller loop and final exponentiation.
//
// Soundness: if any single statement is false, the folded statement holds
// for at most N-1 choices of ρ out of |Fr|, so a cheating batch passes with
// probability ≤ (N-1)/r. ρ is bound to every Lᵢ and Wᵢ, so it cannot be
// chosen before the proofs are fixed.
type Batch struct {
	vk    *VerifyingKey
	terms []pairingTerms
}

// NewBatch returns an empty batch for the given verifying key.
func NewBatch(vk *VerifyingKey) *Batch {
	return &Batch{vk: vk}
}

// Add runs the cheap per-proof verification work (transcript replay,
// quotient identity, commitment folding) and defers the pairing statement
// into the batch. A proof rejected here never enters the batch; the
// returned error is the same one Verify would produce.
func (b *Batch) Add(proof *Proof, public []fr.Element) error {
	terms, err := prepare(b.vk, proof, public)
	if err != nil {
		return err
	}
	b.terms = append(b.terms, terms)
	return nil
}

// AddFor runs Add's per-proof verification against a DIFFERENT verifying
// key, deferring the pairing statement into this batch. This folds proofs
// of different circuits — classic, lookup-enabled, custom-gate — into one
// pairing check: the deferred statement e(L, G2)·e(−W, τG2) == 1 only
// depends on the SRS, so any key sharing the batch key's G2 points can
// contribute. Keys from a different SRS are rejected.
func (b *Batch) AddFor(vk *VerifyingKey, proof *Proof, public []fr.Element) error {
	if !vk.G2[0].Equal(&b.vk.G2[0]) || !vk.G2[1].Equal(&b.vk.G2[1]) {
		return fmt.Errorf("plonk: batch AddFor: verifying key from a different SRS")
	}
	terms, err := prepare(vk, proof, public)
	if err != nil {
		return err
	}
	b.terms = append(b.terms, terms)
	return nil
}

// Len returns the number of statements accumulated so far.
func (b *Batch) Len() int { return len(b.terms) }

// Check verifies every accumulated statement with one pairing check. An
// empty batch passes vacuously. On failure at least one statement in the
// batch is invalid; use Bisect to isolate which.
func (b *Batch) Check() error {
	idxs := make([]int, len(b.terms))
	for i := range idxs {
		idxs[i] = i
	}
	ok, err := b.checkSubset(idxs)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: batch pairing check (%d proofs)", ErrProofInvalid, len(b.terms))
	}
	return nil
}

// checkSubset folds the statements at the given indices and runs one
// pairing check. The folding challenge is derived from a fresh transcript
// binding the subset size, each statement's index, and its L/W points, so
// every subset gets an independent challenge.
func (b *Batch) checkSubset(idxs []int) (bool, error) {
	n := len(idxs)
	if n == 0 {
		return true, nil
	}
	tr := transcript.New("zkdet/plonk/batch")
	count := fr.NewElement(uint64(n))
	tr.AppendScalar("count", &count)
	for _, i := range idxs {
		iv := fr.NewElement(uint64(i))
		tr.AppendScalar("index", &iv)
		tr.AppendPoint("L", &b.terms[i].L)
		tr.AppendPoint("W", &b.terms[i].W)
	}
	rho := tr.ChallengeScalar("rho")
	rhoPowers := fr.Powers(&rho, n)

	ls := make([]bn254.G1Affine, n)
	ws := make([]bn254.G1Affine, n)
	for j, i := range idxs {
		ls[j] = b.terms[i].L
		ws[j] = b.terms[i].W
	}
	foldL, err := bn254.G1MSM(ls, rhoPowers)
	if err != nil {
		return false, fmt.Errorf("plonk: %w", err)
	}
	foldW, err := bn254.G1MSM(ws, rhoPowers)
	if err != nil {
		return false, fmt.Errorf("plonk: %w", err)
	}

	_, _, lines, err := b.vk.verifierCache()
	if err != nil {
		return false, err
	}
	var negW bn254.G1Affine
	negW.Neg(&foldW)
	return bn254.PairingCheckPrecomp(
		[]bn254.G1Affine{foldL, negW},
		lines[:],
	)
}

// Bisect isolates the invalid statements after a failed Check by recursive
// subset splitting: a subset that passes its folded check is cleared as a
// whole, a failing subset is split in half until single statements remain.
// For k invalid proofs among n it costs O(k·log n) pairing checks instead
// of n. The returned indices (positions in Add order, ascending) are the
// statements whose individual pairing checks fail; an empty result means
// the whole batch passes.
func (b *Batch) Bisect() ([]int, error) {
	idxs := make([]int, len(b.terms))
	for i := range idxs {
		idxs[i] = i
	}
	bad, err := b.bisect(idxs)
	if err != nil {
		return nil, err
	}
	sort.Ints(bad)
	return bad, nil
}

func (b *Batch) bisect(idxs []int) ([]int, error) {
	if len(idxs) == 0 {
		return nil, nil
	}
	ok, err := b.checkSubset(idxs)
	if err != nil {
		return nil, err
	}
	if ok {
		return nil, nil
	}
	if len(idxs) == 1 {
		return idxs, nil
	}
	mid := len(idxs) / 2
	left, err := b.bisect(idxs[:mid])
	if err != nil {
		return nil, err
	}
	right, err := b.bisect(idxs[mid:])
	if err != nil {
		return nil, err
	}
	return append(left, right...), nil
}

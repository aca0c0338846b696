package plonk

import (
	"fmt"
	"sort"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/transcript"
)

// Batch accumulates the pairing statements of many proofs and checks them
// all with two MSMs and a single two-pair pairing. Add runs each proof's
// transcript replay and linearization and keeps the statement as the terms
// of its left-hand point (an opening); no group operation runs until Check.
// Check folds the N deferred statements e(Lᵢ, G2)·e(−Wᵢ, τG2) == 1 with
// powers of a challenge ρ into one,
//
//	e(Σ ρⁱ·Lᵢ, G2) · e(−Σ ρⁱ·Wᵢ, τG2) == 1,
//
// and evaluates Σ ρⁱ·Lᵢ as one MSM over every statement's proof points, each
// distinct key's columns once and the generator once (their scalars summed
// across the statements that share them), and Σ ρⁱ·Wᵢ = Σ ρⁱ·Wζᵢ + ρⁱuᵢ·Wζωᵢ
// as one MSM over 2N points. An extra proof costs its points' share of the
// two MSMs, not an MSM and a scalar multiplication of its own.
//
// Soundness: if any single statement is false, the folded statement holds
// for at most N-1 choices of ρ out of |Fr|, so a cheating batch passes with
// probability ≤ (N-1)/r. ρ is bound to each statement's uᵢ, the last
// challenge of its proof's own transcript, which binds the verifying key,
// the public inputs and every commitment and opening Lᵢ and Wᵢ are computed
// from — so ρ cannot be chosen before the proofs are fixed.
type Batch struct {
	vk    *VerifyingKey
	stmts []opening
}

// NewBatch returns an empty batch for the given verifying key.
func NewBatch(vk *VerifyingKey) *Batch {
	return &Batch{vk: vk}
}

// Add runs the per-proof verification work (shape checks, transcript
// replay, the linearization) and defers the pairing statement into the
// batch. Add refuses only a proof of the wrong shape or public-input count,
// with the error Verify would return; any other false proof enters the
// batch and fails Check, since the constraint identities are checked inside
// the pairing.
func (b *Batch) Add(proof *Proof, public []fr.Element) error {
	return b.AddFor(b.vk, proof, public)
}

// AddFor runs Add's per-proof verification against a DIFFERENT verifying
// key, deferring the pairing statement into this batch. This folds proofs
// of different circuits — custom-gate and lookup + custom — into one
// pairing check: the deferred statement e(L, G2)·e(−W, τG2) == 1 only
// depends on the SRS, so any key sharing the batch key's G2 points can
// contribute. Keys from a different SRS are rejected.
func (b *Batch) AddFor(vk *VerifyingKey, proof *Proof, public []fr.Element) error {
	p, err := b.Prepare(vk, proof, public)
	if err == nil {
		b.AddPrepared(p)
	}
	return err
}

// Prepared is one proof's per-proof verification work, done by Prepare
// and deferred into a batch by AddPrepared.
type Prepared struct{ o opening }

// Prepare runs AddFor's per-proof work — the SRS and shape checks, the
// transcript replay, the linearization — and returns the statement instead
// of deferring it, with the error AddFor would return. It reads the batch
// and changes nothing, so a caller may prepare many proofs on several
// goroutines at once and then add them in a fixed order: the batch, its ρ
// and Bisect's positions are those of AddFor calls in that order.
func (b *Batch) Prepare(vk *VerifyingKey, proof *Proof, public []fr.Element) (Prepared, error) {
	if !vk.SameSRS(b.vk) {
		return Prepared{}, fmt.Errorf("plonk: batch AddFor: verifying key from a different SRS")
	}
	o, err := openingMSM(vk, proof, public)
	return Prepared{o: o}, err
}

// AddPrepared defers a statement Prepare returned into the batch.
func (b *Batch) AddPrepared(p Prepared) { b.stmts = append(b.stmts, p.o) }

// Len returns the number of statements accumulated so far.
func (b *Batch) Len() int { return len(b.stmts) }

// Check verifies every accumulated statement with one pairing check. An
// empty batch passes vacuously. On failure at least one statement in the
// batch is invalid; use Bisect to isolate which.
func (b *Batch) Check() error {
	idxs := make([]int, len(b.stmts))
	for i := range idxs {
		idxs[i] = i
	}
	ok, err := b.checkSubset(idxs)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: pairing check (%d proofs)", ErrProofInvalid, len(b.stmts))
	}
	return nil
}

// batchRho derives the folding challenge of the statements at idxs from a
// fresh transcript binding the subset size, each statement's index and its
// u, so every subset gets an independent challenge.
func (b *Batch) batchRho(idxs []int) fr.Element {
	tr := transcript.New("zkdet/plonk/batch")
	count := fr.NewElement(uint64(len(idxs)))
	tr.AppendScalar("count", &count)
	for _, i := range idxs {
		iv := fr.NewElement(uint64(i))
		tr.AppendScalar("index", &iv)
		tr.AppendScalar("u", &b.stmts[i].u)
	}
	return tr.ChallengeScalar("rho")
}

// checkSubset folds the statements at the given indices with powers of
// their ρ and runs one pairing check.
func (b *Batch) checkSubset(idxs []int) (bool, error) {
	n := len(idxs)
	if n == 0 {
		return true, nil
	}
	rho := b.batchRho(idxs)
	rhoPowers := fr.Powers(&rho, n)

	// Size the L fold: the proof points, then each distinct key's columns
	// (keys holds the first statement of each key, keyScs its columns'
	// summed scalars, keyOf a statement's key slot), then the generator.
	var keys []*opening
	var keyScs [][]fr.Element
	keyOf := make([]int, n)
	nbL := 1
	for j, i := range idxs {
		o := &b.stmts[i]
		nbL += len(o.pts)
		k := 0
		for k < len(keys) && keys[k].vk != o.vk {
			k++
		}
		if k == len(keys) {
			keys = append(keys, o)
			keyScs = append(keyScs, make([]fr.Element, len(o.key)))
			nbL += len(o.key)
		}
		keyOf[j] = k
	}
	pts := make([]bn254.G1Affine, 0, nbL)
	scs := make([]fr.Element, nbL)
	ws := make([]bn254.G1Affine, 0, 2*n)
	wScs := make([]fr.Element, 0, 2*n)
	var g1, t fr.Element
	for j, i := range idxs {
		o, r := &b.stmts[i], &rhoPowers[j]
		for k, p := range o.pts {
			scs[len(pts)].Mul(&o.scs[k], r)
			pts = append(pts, *p)
		}
		ks := keyScs[keyOf[j]]
		for c := range o.key {
			t.Mul(&o.key[c], r)
			ks[c].Add(&ks[c], &t)
		}
		t.Mul(&o.g1, r)
		g1.Add(&g1, &t)
		t.Mul(&o.u, r)
		ws = append(ws, o.wZeta, o.wZetaOmega)
		wScs = append(wScs, *r, t)
	}
	for k, first := range keys {
		for c, col := range first.cols {
			scs[len(pts)] = keyScs[k][c]
			pts = append(pts, *col)
		}
	}
	scs[len(pts)] = g1
	pts = append(pts, bn254.G1Generator())

	foldL, err := bn254.G1MSM(pts, scs)
	if err != nil {
		return false, fmt.Errorf("plonk: %w", err)
	}
	foldW, err := bn254.G1MSM(ws, wScs)
	if err != nil {
		return false, fmt.Errorf("plonk: %w", err)
	}

	_, _, lines, err := b.vk.verifierCache()
	if err != nil {
		return false, err
	}
	var negW bn254.G1Affine
	negW.Neg(&foldW)
	ok, err := bn254.PairingCheckPrecomp(
		[]bn254.G1Affine{foldL, negW},
		lines[:],
	)
	if err != nil {
		return false, fmt.Errorf("plonk: %w", err)
	}
	return ok, nil
}

// Bisect isolates the invalid statements after a failed Check by recursive
// subset splitting: a subset that passes its folded check is cleared as a
// whole, a failing subset is split in half until single statements remain.
// For k invalid proofs among n it costs O(k·log n) pairing checks instead
// of n. The returned indices (positions in Add order, ascending) are the
// statements whose individual pairing checks fail; an empty result means
// the whole batch passes.
func (b *Batch) Bisect() ([]int, error) {
	idxs := make([]int, len(b.stmts))
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

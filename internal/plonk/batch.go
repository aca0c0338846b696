package plonk

import (
	"fmt"
	"slices"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/parallel"
	"github.com/zkdet/zkdet/internal/transcript"
)

// Batch accumulates the pairing statements of many proofs and checks them
// all with two MSMs and a single two-pair pairing. Add refuses what can be
// refused without a group operation or a transcript (a foreign SRS, the
// proof's shape, the public-input count, the key's domain) and keeps the
// rest by reference; Check runs every statement's transcript replay and
// linearization on the worker pool, keeping each as the terms of its
// left-hand point (an opening), then folds the N statements
// e(Lᵢ, G2)·e(−Wᵢ, τG2) == 1 with powers of a challenge ρ into one,
//
//	e(Σ ρⁱ·Lᵢ, G2) · e(−Σ ρⁱ·Wᵢ, τG2) == 1,
//
// and evaluates Σ ρⁱ·Lᵢ as one MSM over every statement's proof points, each
// distinct key's columns once and the generator once (their scalars summed
// across the statements that share them), and Σ ρⁱ·Wᵢ = Σ ρⁱ·Wζᵢ + ρⁱuᵢ·Wζωᵢ
// as one MSM over 2N points. An extra proof costs its points' share of the
// two MSMs, not an MSM and a scalar multiplication of its own. The fold's
// positions, ρ and every error are those of the Add calls in order,
// whatever the number of workers.
//
// Soundness: if any single statement is false, the folded statement holds
// for at most N-1 choices of ρ out of |Fr|, so a cheating batch passes with
// probability ≤ (N-1)/r. ρ is bound to each statement's uᵢ, the last
// challenge of its proof's own transcript, which binds the verifying key,
// the public inputs and every commitment and opening Lᵢ and Wᵢ are computed
// from — so ρ cannot be chosen before the proofs are fixed.
type Batch struct {
	vk    *VerifyingKey
	items []statement // what AddFor took, in Add order
	stmts []opening   // items, prepared by Check
	folds int         // pairing checks the last Check ran
}

// statement is what AddFor took; the batch reads it until Check returns.
type statement struct {
	vk     *VerifyingKey
	proof  *Proof
	public []fr.Element
}

// BatchError is Check's refusal of a fold, which Check returns wrapped
// with ErrProofInvalid: the positions, in Add order and ascending, of the
// statements that fail on their own. Offenders is empty only if the fold
// failed while every statement passes alone — a collision of ρ,
// astronomically unlikely, and not a pass.
type BatchError struct{ Offenders []int }

func (e *BatchError) Error() string {
	return fmt.Sprintf("pairing check refuses statements %v", e.Offenders)
}

// NewBatch returns an empty batch for the given verifying key.
func NewBatch(vk *VerifyingKey) *Batch {
	return &Batch{vk: vk}
}

// Add defers a proof against the batch key into the batch. Add refuses only
// a proof of the wrong shape or public-input count, with the error Verify
// would return; any other false proof enters the batch and fails Check,
// since the constraint identities are checked inside the pairing. The batch
// reads proof and public until Check returns: change neither before then.
func (b *Batch) Add(proof *Proof, public []fr.Element) error {
	return b.AddFor(b.vk, proof, public)
}

// AddFor is Add against a DIFFERENT verifying key. This folds proofs of
// different circuits — custom-gate and lookup + custom — into one pairing
// check: the deferred statement e(L, G2)·e(−W, τG2) == 1 only depends on
// the SRS, so any key sharing the batch key's G2 points can contribute.
// Keys from a different SRS are refused, and so is a key whose N is not a
// supported domain size (ErrDomainSize).
func (b *Batch) AddFor(vk *VerifyingKey, proof *Proof, public []fr.Element) error {
	if !vk.SameSRS(b.vk) {
		return fmt.Errorf("plonk: batch AddFor: verifying key from a different SRS")
	}
	if err := checkStatement(vk, proof, public); err != nil {
		return err
	}
	if err := vk.CheckDomain(); err != nil {
		return err
	}
	b.items = append(b.items, statement{vk: vk, proof: proof, public: public})
	return nil
}

// Check verifies every accumulated statement with one pairing check. An
// empty batch passes vacuously. A failed fold is bisected: each half is
// folded on its own, a half that passes is cleared as a whole and a failing
// one split again until single statements remain, so k invalid statements
// among n cost O(k·log n) pairing checks to isolate. The refusal wraps
// ErrProofInvalid and a *BatchError naming them; any other error (an MSM or
// pairing failure) says nothing about the statements.
func (b *Batch) Check() error {
	n := len(b.items)
	b.folds = 0
	b.stmts = make([]opening, n)
	refused := make([]bool, n)
	parallel.Execute(n, func(start, end int) {
		for i := start; i < end; i++ {
			it := &b.items[i]
			var err error
			b.stmts[i], err = openingMSM(it.vk, it.proof, it.public)
			refused[i] = err != nil
		}
	})
	idxs := make([]int, 0, n)
	var bad []int // a statement whose ζ falls inside its domain: refused alone
	for i, r := range refused {
		if r {
			bad = append(bad, i)
			continue
		}
		idxs = append(idxs, i)
	}
	ok, err := b.checkSubset(idxs)
	if err != nil {
		return err
	}
	if !ok {
		named, err := b.offenders(idxs)
		if err != nil {
			return err
		}
		bad = append(bad, named...)
		slices.Sort(bad)
	}
	if ok && len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrProofInvalid, &BatchError{Offenders: bad})
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
	b.folds++
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

// offenders returns the statements at idxs, whose fold failed, that fail
// alone, ascending: it folds each half and splits a failing half again.
func (b *Batch) offenders(idxs []int) ([]int, error) {
	if len(idxs) == 1 {
		return idxs, nil
	}
	var bad []int
	mid := len(idxs) / 2
	for _, half := range [][]int{idxs[:mid], idxs[mid:]} {
		ok, err := b.checkSubset(half)
		if err != nil {
			return nil, err
		}
		if !ok {
			named, err := b.offenders(half)
			if err != nil {
				return nil, err
			}
			bad = append(bad, named...)
		}
	}
	return bad, nil
}

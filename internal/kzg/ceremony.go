package kzg

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/parallel"
)

// This file implements a simulated multi-party Powers-of-Tau ceremony,
// standing in for the Perpetual Powers of Tau (Zcash/Semaphore) the paper
// uses. Each contributor replaces τ with τ·s for a fresh secret s, by
// raising every SRS element to the appropriate power of s. As long as one
// contributor is honest (destroys s), nobody knows the final τ.

// Contribution records one ceremony update so the chain can be publicly
// verified: the contributor publishes [s]G1 and [s]G2 for its secret s.
type Contribution struct {
	// SG1 is [s]G1 and SG2 is [s]G2 for the contributor's secret s.
	SG1 bn254.G1Affine
	SG2 bn254.G2Affine
	// After is [τ·s]G1 (the new power-1 element), linking this update to
	// the resulting SRS.
	After bn254.G1Affine
}

// Ceremony is an in-progress Powers-of-Tau ceremony. It starts from the
// identity SRS ([1·G, 1·G, ...] is not usable, so it starts from τ = 1,
// i.e. G1[i] = G for all i) and accumulates contributions.
type Ceremony struct {
	srs           *SRS
	contributions []Contribution
}

// ErrCeremonyInvalid reports a broken contribution chain.
var ErrCeremonyInvalid = errors.New("kzg: ceremony transcript verification failed")

// NewCeremony starts a ceremony for an SRS of the given size (τ = 1).
func NewCeremony(size int) (*Ceremony, error) {
	if size < 2 {
		return nil, fmt.Errorf("kzg: ceremony size must be at least 2, got %d", size)
	}
	g1 := bn254.G1Generator()
	g2 := bn254.G2Generator()
	srs := &SRS{G1: make([]bn254.G1Affine, size)}
	for i := range srs.G1 {
		srs.G1[i] = g1
	}
	srs.G2[0] = g2
	srs.G2[1] = g2
	return &Ceremony{srs: srs}, nil
}

// Contribute mixes the given entropy into the SRS as one participant's
// secret. The secret is derived from entropy plus fresh system randomness,
// used, and discarded; only the public update proof is retained.
func (c *Ceremony) Contribute(entropy []byte) error {
	fresh := fr.MustRandom()
	defer fresh.SetZero()
	h := sha256.New()
	h.Write(entropy)
	b := fresh.Bytes()
	h.Write(b[:])
	for i := range b {
		b[i] = 0
	}
	// toxic: s is this contributor's ceremony secret (the "waste" of the
	// powers-of-tau update); it and everything derived from it must be
	// destroyed before Contribute returns.
	s := fr.FromBytes(h.Sum(nil))
	defer s.SetZero()
	if s.IsZero() {
		return errors.New("kzg: derived zero contribution secret")
	}
	// New G1[i] = [s^i] old G1[i]; new [τs]G2 = [s] old [τ]G2.
	scalars := fr.Powers(&s, len(c.srs.G1))
	defer zeroizeScalars(scalars)
	// Each power update is an independent scalar multiplication.
	parallel.Execute(len(c.srs.G1)-1, func(start, end int) {
		for i := start + 1; i < end+1; i++ {
			c.srs.G1[i] = bn254.G1ScalarMul(&c.srs.G1[i], &scalars[i])
		}
	})
	c.srs.G2[1] = bn254.G2ScalarMul(&c.srs.G2[1], &s)

	g1 := bn254.G1Generator()
	g2 := bn254.G2Generator()
	c.contributions = append(c.contributions, Contribution{
		SG1:   bn254.G1ScalarMul(&g1, &s),
		SG2:   bn254.G2ScalarMul(&g2, &s),
		After: c.srs.G1[1],
	})
	return nil
}

// zeroizeScalars overwrites a slice of secret scalars in place; ceremony
// code calls it (usually deferred) on anything derived from a contribution
// secret.
func zeroizeScalars(xs []fr.Element) {
	for i := range xs {
		xs[i].SetZero()
	}
}

// Contributions returns the public update chain.
func (c *Ceremony) Contributions() []Contribution {
	out := make([]Contribution, len(c.contributions))
	copy(out, c.contributions)
	return out
}

// SRS finalizes the ceremony, verifying internal consistency of the result
// before releasing it. The released SRS is a copy: a later Contribute
// rewrites the ceremony's powers in place, and must not move an SRS that
// keys and commitments were made against.
func (c *Ceremony) SRS() (*SRS, error) {
	if len(c.contributions) == 0 {
		return nil, fmt.Errorf("%w: no contributions", ErrCeremonyInvalid)
	}
	srs := &SRS{G1: slices.Clone(c.srs.G1), G2: c.srs.G2}
	if err := VerifySRS(srs); err != nil {
		return nil, err
	}
	return srs, nil
}

// VerifyChain checks the public contribution chain: each update's secret
// links the previous power-1 element to the next, and the G1/G2 halves of
// each update agree (e([s]G1, G2) == e(G1, [s]G2)).
func VerifyChain(contribs []Contribution, final *SRS) error {
	if len(contribs) == 0 {
		return fmt.Errorf("%w: empty chain", ErrCeremonyInvalid)
	}
	g1 := bn254.G1Generator()
	g2 := bn254.G2Generator()
	prev := g1 // power-1 element starts at [1]G1 (τ = 1)
	for i, ct := range contribs {
		// G1/G2 halves agree: e(SG1, G2) == e(G1, SG2)
		// ⇔ e(SG1, G2) · e(-G1, SG2) == 1.
		var negG1 bn254.G1Affine
		negG1.Neg(&g1)
		ok, err := bn254.PairingCheck(
			[]bn254.G1Affine{ct.SG1, negG1},
			[]bn254.G2Affine{g2, ct.SG2},
		)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%w: contribution %d halves disagree", ErrCeremonyInvalid, i)
		}
		// After == [s]·prev: e(After, G2) == e(prev, SG2).
		var negAfter bn254.G1Affine
		negAfter.Neg(&ct.After)
		ok, err = bn254.PairingCheck(
			[]bn254.G1Affine{prev, negAfter},
			[]bn254.G2Affine{ct.SG2, g2},
		)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%w: contribution %d does not chain", ErrCeremonyInvalid, i)
		}
		prev = ct.After
	}
	if !prev.Equal(&final.G1[1]) {
		return fmt.Errorf("%w: chain head does not match final SRS", ErrCeremonyInvalid)
	}
	return VerifySRS(final)
}

// VerifySRS checks the structural consistency of an SRS: consecutive powers
// are related by τ, batched into a single pairing check with a random
// combiner: e(Σ ρ^i G1[i+1], G2) == e(Σ ρ^i G1[i], [τ]G2).
func VerifySRS(srs *SRS) error {
	if len(srs.G1) < 2 {
		return fmt.Errorf("%w: too small", ErrInvalidSRS)
	}
	g1 := bn254.G1Generator()
	g2 := bn254.G2Generator()
	if !srs.G1[0].Equal(&g1) || !srs.G2[0].Equal(&g2) {
		return fmt.Errorf("%w: generators corrupted", ErrInvalidSRS)
	}
	rho := fr.MustRandom()
	defer rho.SetZero()
	n := len(srs.G1)
	coeffs := make([]fr.Element, n-1)
	acc := fr.One()
	for i := range coeffs {
		coeffs[i] = acc
		acc.Mul(&acc, &rho)
	}
	lo, err := bn254.G1MSM(srs.G1[:n-1], coeffs)
	if err != nil {
		return err
	}
	hi, err := bn254.G1MSM(srs.G1[1:], coeffs)
	if err != nil {
		return err
	}
	var negHi bn254.G1Affine
	negHi.Neg(&hi)
	ok, err := bn254.PairingCheck(
		[]bn254.G1Affine{lo, negHi},
		[]bn254.G2Affine{srs.G2[1], srs.G2[0]},
	)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: power chain broken", ErrInvalidSRS)
	}
	return nil
}

// Package kzg implements the KZG (Kate–Zaverucha–Goldberg) polynomial
// commitment scheme over BN254, the commitment layer underneath Plonk.
//
// It also implements a simulated multi-party "Powers of Tau" ceremony
// (Ceremony) standing in for the Perpetual Powers of Tau used by the paper:
// each contributor multiplies the structured reference string by powers of
// a fresh secret, and publishes an update proof that lets anyone verify the
// chain without trusting any single contributor.
package kzg

import (
	"crypto/rand"
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/poly"
)

// Common errors returned by this package.
var (
	ErrPolynomialTooLarge = errors.New("kzg: polynomial degree exceeds SRS size")
	ErrInvalidSRS         = errors.New("kzg: invalid SRS")
)

// SRS is a structured reference string: powers of a secret τ in G1 plus
// [1]G2 and [τ]G2. The secret itself is "toxic waste" and is never stored.
type SRS struct {
	// G1 holds [τ^i]G1 for i = 0 … size-1.
	G1 []bn254.G1Affine
	// G2 holds [1]G2 and [τ]G2.
	G2 [2]bn254.G2Affine
}

// MaxDegree returns the largest polynomial degree this SRS can commit to.
func (s *SRS) MaxDegree() int { return len(s.G1) - 1 }

// NewSRSFromSecret derives an SRS of the given size directly from a known
// secret τ. Exposed for tests and as the ceremony's building block; real
// deployments must use Setup or a Ceremony so τ is never known to anyone.
func NewSRSFromSecret(size int, tau *fr.Element) (*SRS, error) {
	if size < 2 {
		return nil, fmt.Errorf("kzg: srs size must be at least 2, got %d", size)
	}
	scalars := fr.Powers(tau, size)
	g1 := bn254.G1Generator()
	table := bn254.NewG1FixedBaseTable(&g1)
	srs := &SRS{G1: table.MulMany(scalars)}
	g2 := bn254.G2Generator()
	srs.G2[0] = g2
	srs.G2[1] = bn254.G2ScalarMul(&g2, tau)
	return srs, nil
}

// Setup generates an SRS from fresh randomness and discards the secret:
// τ is zeroized before Setup returns, whatever path it takes.
func Setup(size int) (*SRS, error) {
	tau, err := fr.Random(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("kzg: setup: %w", err)
	}
	defer tau.SetZero()
	srs, err := NewSRSFromSecret(size, &tau)
	if err != nil {
		return nil, fmt.Errorf("kzg: setup: %w", err)
	}
	return srs, nil
}

// Commitment is a KZG commitment: a single G1 point, independent of the
// committed polynomial's degree.
type Commitment = bn254.G1Affine

// OpeningProof attests that the committed polynomial evaluates to
// ClaimedValue at some point; the proof is the single point [q(τ)]G1 for
// the quotient q(X) = (p(X) - y)/(X - z).
type OpeningProof struct {
	Quotient     bn254.G1Affine
	ClaimedValue fr.Element
}

// Commit returns the commitment [p(τ)]G1.
func Commit(srs *SRS, p poly.Polynomial) (Commitment, error) {
	p = p.Trim()
	if len(p) > len(srs.G1) {
		return Commitment{}, fmt.Errorf("%w: degree %d > %d", ErrPolynomialTooLarge, len(p)-1, srs.MaxDegree())
	}
	return bn254.G1MSM(srs.G1[:len(p)], p)
}

// Open produces an opening proof for p at point z.
func Open(srs *SRS, p poly.Polynomial, z *fr.Element) (OpeningProof, error) {
	q, y := poly.DivideByLinear(p, z)
	c, err := Commit(srs, q)
	if err != nil {
		return OpeningProof{}, fmt.Errorf("kzg: committing quotient: %w", err)
	}
	return OpeningProof{Quotient: c, ClaimedValue: y}, nil
}

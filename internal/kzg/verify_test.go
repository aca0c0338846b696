package kzg

import (
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
)

// Verify checks an opening proof: e(C - [y]G1 + z·π, G2) · e(-π, [τ]G2) == 1.
// It is the reference the tests hold Commit and Open to; no verifier of the
// module checks a lone opening (plonk folds its openings into one pairing
// check).
func Verify(srs *SRS, c *Commitment, z *fr.Element, proof *OpeningProof) error {
	one := fr.One()
	var negY fr.Element
	negY.Neg(&proof.ClaimedValue)
	f, err := bn254.G1MSM(
		[]bn254.G1Affine{*c, bn254.G1Generator(), proof.Quotient},
		[]fr.Element{one, negY, *z},
	)
	if err != nil {
		return fmt.Errorf("kzg: %w", err)
	}
	var negPi bn254.G1Affine
	negPi.Neg(&proof.Quotient)
	ok, err := bn254.PairingCheck([]bn254.G1Affine{f, negPi}, srs.G2[:])
	if err != nil {
		return fmt.Errorf("kzg: %w", err)
	}
	if !ok {
		return errors.New("kzg: proof verification failed")
	}
	return nil
}

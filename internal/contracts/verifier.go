package contracts

import (
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
)

// VerifierCodeSize approximates the flattened-Solidity byte size of a Plonk
// verifier contract with hardcoded group elements, calibrated so deployment
// gas matches Table II (≈1,644,969).
const VerifierCodeSize = 7960

// ErrProofRejected is returned when on-chain verification fails.
var ErrProofRejected = errors.New("contracts: proof rejected")

// Verifier is the on-chain Plonk verifier of §VI-C2: a contract with the
// verification key hardcoded at deployment, supporting unlimited
// verifications. Gas per call follows the EIP-1108 precompile schedule for
// the verifier's actual group-operation count (2 pairings plus the
// MSM-folding scalar multiplications), so verification is O(1) on-chain.
//
// Batching has one path: a block applied through the chain's block verifier
// (BlockProofChecker) has its proofs folded once, before execution, and a
// verify call whose calldata is in that block's table
// (CallContext.ProofFold) charges the amortised schedule for the fold's
// width instead of re-running the pairing.
//
// The contract holds nothing but its key: what a call pays is decided by
// the block it executes in, never by which node or code path runs it.
type Verifier struct {
	vk *plonk.VerifyingKey
}

var _ chain.Contract = (*Verifier)(nil)

// NewVerifier creates a verifier for one circuit's verification key.
func NewVerifier(vk *plonk.VerifyingKey) *Verifier { return &Verifier{vk: vk} }

// VerificationGas is the gas charged for one standalone proof verification:
// 2 pairings + ~18+ℓ G1 scalar multiplications + folding additions.
func VerificationGas(nbPublic int) uint64 {
	return chain.GasPairingBase +
		2*chain.GasPairingPerPair +
		uint64(18+nbPublic)*chain.GasEcMul +
		24*chain.GasEcAdd
}

// BatchVerifiedGas is the amortised per-proof gas when a proof is checked
// as part of a batch of n: the single pairing check is split across the
// batch, while each proof still pays its own transcript/MSM folding (the
// 18+ℓ scalar muls of a standalone verification plus 2 for its share of
// the random-linear-combination fold). A fold of one has no linear
// combination to take, so it costs exactly what the lone verification does.
func BatchVerifiedGas(n, nbPublic int) uint64 {
	if n <= 1 {
		return VerificationGas(nbPublic)
	}
	pairing := (chain.GasPairingBase + 2*chain.GasPairingPerPair) / uint64(n)
	return pairing + uint64(18+nbPublic+2)*chain.GasEcMul + 24*chain.GasEcAdd
}

// Call dispatches its one method:
//
//	verify(proofBytes, publicInput₁, …, publicInput_ℓ) → 0x01
//
// which reverts when the proof does not verify.
func (v *Verifier) Call(ctx *chain.CallContext, method string, args []byte) ([]byte, error) {
	if method != "verify" {
		return nil, fmt.Errorf("contracts: verifier has no method %q", method)
	}
	return v.verify(ctx, args)
}

// decodeVerifyArgs splits verify calldata into the proof and its public
// inputs.
func decodeVerifyArgs(args []byte) (*plonk.Proof, []fr.Element, error) {
	parts, err := DecodeArgsVariadic(args)
	if err != nil {
		return nil, nil, err
	}
	if len(parts) < 1 {
		return nil, nil, fmt.Errorf("%w: missing proof", ErrBadArgs)
	}
	proof, err := plonk.ProofFromBytes(parts[0])
	if err != nil {
		return nil, nil, fmt.Errorf("contracts: %w", err)
	}
	public := make([]fr.Element, len(parts)-1)
	for i, p := range parts[1:] {
		e, err := fr.FromBytesCanonical(p)
		if err != nil {
			return nil, nil, fmt.Errorf("contracts: public input %d: %w", i, err)
		}
		public[i] = e
	}
	return proof, public, nil
}

func (v *Verifier) verify(ctx *chain.CallContext, args []byte) ([]byte, error) {
	proof, public, err := decodeVerifyArgs(args)
	if err != nil {
		return nil, err
	}
	if n, ok := ctx.ProofFold(args); ok {
		// The block's proof check already ran this exact calldata through
		// a pairing check folded over n proofs; charge the amortised
		// schedule and skip the pairing entirely.
		if err := ctx.Gas.Charge(BatchVerifiedGas(n, len(public))); err != nil {
			return nil, err
		}
		return []byte{1}, nil
	}
	if err := ctx.Gas.Charge(VerificationGas(len(public))); err != nil {
		return nil, err
	}
	if err := plonk.Verify(v.vk, proof, public); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrProofRejected, err)
	}
	return []byte{1}, nil
}

// VerifyArgs builds the calldata for a verify call.
func VerifyArgs(proof *plonk.Proof, public []fr.Element) []byte {
	parts := make([][]byte, 0, 1+len(public))
	parts = append(parts, proof.Bytes())
	for i := range public {
		b := public[i].Bytes()
		parts = append(parts, b[:])
	}
	return EncodeArgs(parts...)
}

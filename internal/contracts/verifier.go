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
// Two batching paths cut the amortised cost further:
//
//   - verifyBatch checks N proofs in one call, folding the N pairing
//     statements into a single pairing (plonk.BatchVerify) and charging
//     the pairing gas once.
//   - A block applied through the chain's block verifier
//     (BlockProofChecker) has its proofs folded once, before execution; a
//     verify call whose calldata is in that block's table
//     (CallContext.ProofFold) charges the amortised schedule for the
//     fold's width instead of re-running the pairing.
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

// Call dispatches. Methods:
//
//	verify(proofBytes, publicInput₁, …, publicInput_ℓ) → 0x01
//	verifyBatch(batch₁, …, batch_N) → 0x01
//
// where each batchᵢ is itself EncodeArgs(proofBytes, publicInput₁, …).
// Both revert when any proof does not verify.
func (v *Verifier) Call(ctx *chain.CallContext, method string, args []byte) ([]byte, error) {
	switch method {
	case "verify":
		return v.verify(ctx, args)
	case "verifyBatch":
		return v.verifyBatch(ctx, args)
	default:
		return nil, fmt.Errorf("contracts: verifier has no method %q", method)
	}
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

func (v *Verifier) verifyBatch(ctx *chain.CallContext, args []byte) ([]byte, error) {
	batches, err := DecodeArgsVariadic(args)
	if err != nil {
		return nil, err
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadArgs)
	}
	n := len(batches)
	proofs := make([]*plonk.Proof, n)
	publics := make([][]fr.Element, n)
	for i, b := range batches {
		proofs[i], publics[i], err = decodeVerifyArgs(b)
		if err != nil {
			return nil, fmt.Errorf("contracts: batch entry %d: %w", i, err)
		}
	}
	// One pairing for the whole call plus each proof's own folding work.
	gas := uint64(chain.GasPairingBase + 2*chain.GasPairingPerPair)
	for i := range publics {
		gas += uint64(18+len(publics[i])+2)*chain.GasEcMul + 24*chain.GasEcAdd
	}
	if err := ctx.Gas.Charge(gas); err != nil {
		return nil, err
	}
	if err := plonk.BatchVerify(v.vk, proofs, publics); err != nil {
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

// VerifyBatchArgs builds the calldata for a verifyBatch call: one nested
// VerifyArgs blob per proof.
func VerifyBatchArgs(proofs []*plonk.Proof, publics [][]fr.Element) []byte {
	entries := make([][]byte, len(proofs))
	for i := range proofs {
		entries[i] = VerifyArgs(proofs[i], publics[i])
	}
	return EncodeArgs(entries...)
}

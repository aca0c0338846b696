// Package zkdet is the public API of the ZKDET reproduction: a traceable
// and privacy-preserving data exchange scheme based on non-fungible tokens
// and zero-knowledge proofs (Song, Gao, Song, Xiao — ICDCS 2022).
//
// A ZKDET deployment combines four layers, all implemented in this module
// from scratch on the Go standard library:
//
//   - a Plonk zkSNARK over BN254 with KZG commitments (internal/plonk,
//     internal/kzg, internal/bn254) using the circuit-friendly Poseidon
//     hash, commitments and keystream cipher (internal/poseidon);
//   - a blockchain substrate with EVM-calibrated gas metering and the
//     DataNFT / clock-auction / escrow / verifier contracts
//     (internal/chain, internal/contracts);
//   - IPFS-like content-addressed blob storage (internal/storage);
//   - the ZKDET protocols themselves: proofs of encryption π_e, proofs of
//     transformation π_t (duplication, aggregation, partition, processing),
//     the key-secure two-phase exchange (π_p, π_k) and the ZKCP baseline
//     (internal/core).
//
// # Quickstart
//
//	sys, _ := zkdet.NewSystem(1 << 12)          // universal setup
//	m, _, _ := zkdet.NewMarketplace(sys)        // chain + storage + contracts
//	alice := zkdet.AddressFromString("alice")
//	data := zkdet.EncodeBytes([]byte("dataset"))
//	asset, _ := m.MintAsset(alice, "alice", data, zkdet.RandomKey())
//	// asset.TokenID is live on-chain; the encrypted data sits in storage.
//
// See examples/ for complete programs: quickstart, a full marketplace
// exchange, verifiable model training, and provenance tracing.
package zkdet

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
)

// Re-exported core types. The underlying packages carry the full
// documentation; these aliases are the stable public surface.
type (
	// System holds the universal SRS and per-circuit preprocessing.
	System = core.System
	// Marketplace is a full deployment: chain, storage, contracts, proofs.
	Marketplace = core.Marketplace
	// Dataset is a data asset's plaintext (vector of field elements).
	Dataset = core.Dataset
	// Ciphertext is an encrypted dataset with its CTR nonce.
	Ciphertext = core.Ciphertext
	// Asset is an owner's handle to a minted data asset.
	Asset = core.Asset
	// TransformResult is the outcome of an on-chain transformation.
	TransformResult = core.TransformResult
	// TransformProof is a proof of transformation π_t.
	TransformProof = core.TransformProof
	// ProofChain is a verifiable sequence of transformations.
	ProofChain = core.ProofChain
	// Processor is a pluggable data-processing transformation f.
	Processor = core.Processor
	// Predicate is a public property φ proven about exchanged data.
	Predicate = core.Predicate
	// Seller and Buyer are the §IV-F exchange roles; the arbiter 𝒥 is the
	// deployment's on-chain escrow (Marketplace.SellViaEscrow).
	Seller = core.Seller
	// Buyer is the exchange counterparty validating and paying for data.
	Buyer = core.Buyer
	// Listing is the public face of a dataset offered for sale.
	Listing = core.Listing
	// Address identifies a chain account.
	Address = chain.Address
	// DeployGas reports contract deployment costs (Table II).
	DeployGas = core.DeployGas
	// Scalar is an element of the proof system's scalar field.
	Scalar = fr.Element
	// ProofRegistry is the public off-chain proof store.
	ProofRegistry = core.ProofRegistry
	// TokenProofs bundles one token's published proofs.
	TokenProofs = core.TokenProofs
	// AuditReport summarizes a lineage audit.
	AuditReport = core.AuditReport
)

// Predicate implementations (§III-C's φ).
type (
	// TruePredicate accepts every dataset.
	TruePredicate = core.TruePredicate
	// RangePredicate bounds every entry below 2^Bits.
	RangePredicate = core.RangePredicate
	// SumPredicate fixes the dataset's element sum.
	SumPredicate = core.SumPredicate
	// NonZeroPredicate forbids missing (zero) values.
	NonZeroPredicate = core.NonZeroPredicate
)

// NewSystem generates a fresh proving system whose SRS supports circuits of
// up to maxConstraints gates. The setup secret is sampled from
// crypto/rand and discarded (see kzg.Ceremony for the multi-party variant).
func NewSystem(maxConstraints int) (*System, error) {
	srs, err := kzg.Setup(core.SRSPowers(maxConstraints))
	if err != nil {
		return nil, fmt.Errorf("zkdet: %w", err)
	}
	return core.NewSystem(srs), nil
}

// NewSystemFromCeremony builds a proving system from a completed
// Powers-of-Tau ceremony, verifying its transcript first.
func NewSystemFromCeremony(c *kzg.Ceremony) (*System, error) {
	srs, err := c.SRS()
	if err != nil {
		return nil, fmt.Errorf("zkdet: %w", err)
	}
	if err := kzg.VerifyChain(c.Contributions(), srs); err != nil {
		return nil, fmt.Errorf("zkdet: %w", err)
	}
	return core.NewSystem(srs), nil
}

// NewMarketplace deploys the contract suite on a fresh simulated chain over
// a fresh content-addressed blob store.
func NewMarketplace(sys *System) (*Marketplace, DeployGas, error) {
	return core.NewMarketplace(sys)
}

// EncodeBytes packs raw bytes into a Dataset.
func EncodeBytes(data []byte) Dataset { return core.EncodeBytes(data) }

// DecodeBytes unpacks a Dataset produced by EncodeBytes.
func DecodeBytes(d Dataset) ([]byte, error) { return core.DecodeBytes(d) }

// RandomKey draws a fresh encryption key.
func RandomKey() Scalar { return fr.MustRandom() }

// NewScalar converts a uint64 into a field element.
func NewScalar(v uint64) Scalar { return fr.NewElement(v) }

// AddressFromString derives a deterministic account address from a label.
func AddressFromString(s string) Address { return chain.AddressFromString(s) }

// NewProofRegistry returns an empty public proof store for use with
// Marketplace.AuditLineage.
func NewProofRegistry() *ProofRegistry { return core.NewProofRegistry() }

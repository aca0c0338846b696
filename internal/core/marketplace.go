package core

import (
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/indexer"
	"github.com/zkdet/zkdet/internal/plonk"
	"github.com/zkdet/zkdet/internal/storage"
)

// Marketplace wires the full ZKDET deployment together (Figure 1): the
// blockchain with the DataNFT / auction / escrow / verifier contracts, the
// decentralized storage network holding encrypted datasets, and the proof
// system. It is the component a data owner or demander actually talks to.
type Marketplace struct {
	Sys   *System
	Chain *chain.Chain
	// Store is the deployment's content-addressed storage: the simulated
	// DHT by default (NewMarketplace), or any storage.BlobStore — a single
	// cluster node's local store, a p2p transport-backed store — when
	// deployed with NewMarketplaceWith.
	Store storage.BlobStore

	// Submitter, when set, routes marketplace transactions through an
	// external admission path — a cluster node's mempool + gossip — instead
	// of executing directly on the local chain. It must block until the
	// transaction is included and return its receipt. The transaction's
	// Nonce is advisory (taken from the local chain); cluster submitters
	// typically reassign it atomically at admission.
	Submitter func(tx chain.Transaction) (*chain.Receipt, error)

	// ix is the optional event indexer; when attached, provenance queries
	// walk the index instead of contract storage.
	ix *indexer.Indexer

	// checker is the deployment's block verifier: it knows every
	// proof-carrying contract deployed so far and is installed on the chain
	// at genesis, so every block the chain applies — produced, imported or
	// replayed from a WAL — folds its proofs the same way.
	checker *contracts.BlockProofChecker

	// ctd is the optional confidential-token deployment (EnableConfidential).
	ctd *ConfidentialDeployment
}

// PiKVerifierName is the deployment name of the π_k verifier used by the
// escrow.
const PiKVerifierName = "zkdet-pik-verifier"

// DeployGas reports what contract deployments cost (Table II rows 1–2).
type DeployGas struct {
	DataNFT  uint64
	Auction  uint64
	Escrow   uint64
	Verifier uint64
}

// NewMarketplace deploys the contract suite on a fresh chain and spins up a
// storage network.
func NewMarketplace(sys *System, storageNodes int) (*Marketplace, DeployGas, error) {
	store, err := storage.NewNetwork(storageNodes)
	if err != nil {
		return nil, DeployGas{}, err
	}
	return NewMarketplaceWith(sys, chain.New(), store)
}

// NewMarketplaceWith deploys the contract suite onto a caller-provided
// chain and blob store. Cluster deployments use this as the genesis
// function: every node deploys the identical suite (same verifying key,
// same deployment order) onto its own chain, so all replicas start from
// the same state root and replayed blocks hash identically.
func NewMarketplaceWith(sys *System, c *chain.Chain, store storage.BlobStore) (*Marketplace, DeployGas, error) {
	var gas DeployGas
	var err error
	if gas.DataNFT, err = c.Deploy(contracts.DataNFTName, &contracts.DataNFT{}, contracts.DataNFTCodeSize); err != nil {
		return nil, gas, err
	}
	if gas.Auction, err = c.Deploy(contracts.AuctionName, contracts.NewClockAuction(contracts.DataNFTName), contracts.AuctionCodeSize); err != nil {
		return nil, gas, err
	}
	vk, err := sys.KeyCircuitVK()
	if err != nil {
		return nil, gas, fmt.Errorf("core: preparing π_k verifier: %w", err)
	}
	verifier := contracts.NewVerifier(vk)
	if gas.Verifier, err = c.Deploy(PiKVerifierName, verifier, contracts.VerifierCodeSize); err != nil {
		return nil, gas, err
	}
	escrow := contracts.NewEscrow(PiKVerifierName, 100)
	if gas.Escrow, err = c.Deploy(contracts.EscrowName, escrow, contracts.EscrowCodeSize); err != nil {
		return nil, gas, err
	}
	checker := contracts.NewBlockProofChecker()
	checker.AddVerifier(PiKVerifierName, verifier)
	checker.AddEscrow(contracts.EscrowName, escrow)
	c.SetBlockVerifier(checker)
	return &Marketplace{Sys: sys, Chain: c, Store: store, checker: checker}, gas, nil
}

// ProofChecker returns the deployment's block verifier, covering its
// proof-carrying transactions: direct π_k verifications, escrow
// settlements and — once EnableConfidential ran — confidential transfers.
// The chain already applies every block through it; a gossip layer screens
// payloads with its GossipCheck.
func (m *Marketplace) ProofChecker() *contracts.BlockProofChecker { return m.checker }

// Asset is an owner's handle to a minted data asset: the on-chain token,
// the storage URI, and the private material needed to transform or sell it.
type Asset struct {
	TokenID uint64
	URI     storage.URI

	// Public statement of the asset's π_e.
	Statement *EncryptionStatement
	// EncProof is the reusable proof of encryption π_e.
	EncProof *plonk.Proof

	// Private: plaintext, key and blinders (held by the owner only).
	Data        Dataset
	Key         fr.Element
	DataBlinder fr.Element
	KeyBlinder  fr.Element
}

// ErrNotAssetOwner reports a marketplace call by a non-owner.
var ErrNotAssetOwner = errors.New("core: caller does not own the asset")

func (m *Marketplace) submit(from chain.Address, contract, method string, value uint64, args []byte) (*chain.Receipt, error) {
	tx := chain.Transaction{
		From: from, Contract: contract, Method: method,
		Args: args, Value: value, Nonce: m.Chain.NonceOf(from),
	}
	submit := m.Chain.Submit
	if m.Submitter != nil {
		submit = m.Submitter
	}
	r, err := submit(tx)
	if err != nil {
		return nil, err
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return r, nil
}

// MintAsset runs §III-A end to end: encrypt the dataset, prove π_e, publish
// the ciphertext to storage (URI = digest), and mint the NFT whose
// commitment field binds (c_d ‖ c_k).
func (m *Marketplace) MintAsset(owner chain.Address, ownerLabel string, data Dataset, key fr.Element) (*Asset, error) {
	st, w, ct, proof, err := m.Sys.EncryptAndProve(data, key)
	if err != nil {
		return nil, err
	}
	uri, err := m.Store.Put(ownerLabel, ct.Bytes())
	if err != nil {
		return nil, err
	}
	cdB := st.DataCommitment.Bytes()
	ckB := st.KeyCommitment.Bytes()
	commitment := append(cdB[:], ckB[:]...)
	r, err := m.submit(owner, contracts.DataNFTName, "mint", 0, contracts.EncodeArgs(uri[:], commitment))
	if err != nil {
		return nil, err
	}
	id, err := contracts.DecU64(r.Return)
	if err != nil {
		return nil, err
	}
	return &Asset{
		TokenID:     id,
		URI:         uri,
		Statement:   st,
		EncProof:    proof,
		Data:        data.Clone(),
		Key:         key,
		DataBlinder: w.DataBlinder,
		KeyBlinder:  w.KeyBlinder,
	}, nil
}

// finishDerived encrypts a derived dataset under a fresh key, proves its
// π_e, stores the ciphertext and returns the pieces shared by all
// transformation endpoints.
func (m *Marketplace) finishDerived(ownerLabel string, derived Dataset) (*EncryptionStatement, *EncryptionWitness, *plonk.Proof, storage.URI, fr.Element, error) {
	key := fr.MustRandom()
	st, w, ct, proof, err := m.Sys.EncryptAndProve(derived, key)
	if err != nil {
		return nil, nil, nil, storage.URI{}, fr.Element{}, err
	}
	uri, err := m.Store.Put(ownerLabel, ct.Bytes())
	if err != nil {
		return nil, nil, nil, storage.URI{}, fr.Element{}, err
	}
	return st, w, proof, uri, key, nil
}

// TransformResult packages a transformation's outcome: the new asset(s)
// plus the π_t that links them to their sources.
type TransformResult struct {
	Assets []*Asset
	Proof  *TransformProof
}

// Duplicate mints a replica token (§IV-D1): new commitment, new key, new
// ciphertext, same plaintext, provably identical content.
func (m *Marketplace) Duplicate(owner chain.Address, ownerLabel string, src *Asset) (*TransformResult, error) {
	// π_t relates the source's data commitment to a fresh one. The fresh
	// derived commitment must be the one the new asset's π_e uses, so the
	// duplication proof is built against the new statement's commitment.
	st, w, encProof, uri, key, err := m.finishDerived(ownerLabel, src.Data)
	if err != nil {
		return nil, err
	}
	tp, err := m.Sys.proveDuplicationWith(src.Data, src.Statement.DataCommitment, src.DataBlinder, st.DataCommitment, w.DataBlinder)
	if err != nil {
		return nil, err
	}
	cdB := st.DataCommitment.Bytes()
	ckB := st.KeyCommitment.Bytes()
	r, err := m.submit(owner, contracts.DataNFTName, "duplicate", 0,
		contracts.EncodeArgs(contracts.U64(src.TokenID), uri[:], append(cdB[:], ckB[:]...)))
	if err != nil {
		return nil, err
	}
	id, err := contracts.DecU64(r.Return)
	if err != nil {
		return nil, err
	}
	asset := &Asset{
		TokenID: id, URI: uri, Statement: st, EncProof: encProof,
		Data: src.Data.Clone(), Key: key,
		DataBlinder: w.DataBlinder, KeyBlinder: w.KeyBlinder,
	}
	return &TransformResult{Assets: []*Asset{asset}, Proof: tp}, nil
}

// Aggregate merges assets into one (§IV-D2).
func (m *Marketplace) Aggregate(owner chain.Address, ownerLabel string, srcs []*Asset) (*TransformResult, error) {
	if len(srcs) < 2 {
		return nil, fmt.Errorf("%w: aggregation needs ≥2 sources", ErrBadShape)
	}
	datasets := make([]Dataset, len(srcs))
	csList := make([]fr.Element, len(srcs))
	osList := make([]fr.Element, len(srcs))
	prevIDs := make([]uint64, len(srcs))
	var derived Dataset
	for i, src := range srcs {
		datasets[i] = src.Data
		csList[i] = src.Statement.DataCommitment
		osList[i] = src.DataBlinder
		prevIDs[i] = src.TokenID
		derived = append(derived, src.Data...)
	}
	st, w, encProof, uri, key, err := m.finishDerived(ownerLabel, derived)
	if err != nil {
		return nil, err
	}
	tp, err := m.Sys.proveAggregationWith(datasets, csList, osList, st.DataCommitment, w.DataBlinder)
	if err != nil {
		return nil, err
	}
	cdB := st.DataCommitment.Bytes()
	ckB := st.KeyCommitment.Bytes()
	r, err := m.submit(owner, contracts.DataNFTName, "aggregate", 0,
		contracts.EncodeArgs(contracts.U64List(prevIDs), uri[:], append(cdB[:], ckB[:]...)))
	if err != nil {
		return nil, err
	}
	id, err := contracts.DecU64(r.Return)
	if err != nil {
		return nil, err
	}
	asset := &Asset{
		TokenID: id, URI: uri, Statement: st, EncProof: encProof,
		Data: derived, Key: key,
		DataBlinder: w.DataBlinder, KeyBlinder: w.KeyBlinder,
	}
	return &TransformResult{Assets: []*Asset{asset}, Proof: tp}, nil
}

// Partition splits an asset into consecutive pieces (§IV-D3).
func (m *Marketplace) Partition(owner chain.Address, ownerLabel string, src *Asset, sizes []int) (*TransformResult, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("%w: partition needs ≥2 pieces", ErrBadShape)
	}
	total := 0
	for _, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("%w: empty piece", ErrBadShape)
		}
		total += n
	}
	if total != len(src.Data) {
		return nil, fmt.Errorf("%w: pieces cover %d of %d", ErrBadShape, total, len(src.Data))
	}
	pieces := make([]Dataset, len(sizes))
	sts := make([]*EncryptionStatement, len(sizes))
	ws := make([]*EncryptionWitness, len(sizes))
	encProofs := make([]*plonk.Proof, len(sizes))
	uris := make([]storage.URI, len(sizes))
	keys := make([]fr.Element, len(sizes))
	cdList := make([]fr.Element, len(sizes))
	odList := make([]fr.Element, len(sizes))
	off := 0
	var err error
	for i, n := range sizes {
		pieces[i] = src.Data[off : off+n].Clone()
		sts[i], ws[i], encProofs[i], uris[i], keys[i], err = m.finishDerived(ownerLabel, pieces[i])
		if err != nil {
			return nil, err
		}
		cdList[i] = sts[i].DataCommitment
		odList[i] = ws[i].DataBlinder
		off += n
	}
	tp, err := m.Sys.provePartitionWith(src.Data, src.Statement.DataCommitment, src.DataBlinder, sizes, cdList, odList)
	if err != nil {
		return nil, err
	}
	args := [][]byte{contracts.U64(src.TokenID)}
	for i := range sizes {
		cdB := sts[i].DataCommitment.Bytes()
		ckB := sts[i].KeyCommitment.Bytes()
		args = append(args, uris[i][:], append(cdB[:], ckB[:]...))
	}
	r, err := m.submit(owner, contracts.DataNFTName, "partition", 0, contracts.EncodeArgs(args...))
	if err != nil {
		return nil, err
	}
	ids, err := contracts.DecU64List(r.Return)
	if err != nil {
		return nil, err
	}
	assets := make([]*Asset, len(sizes))
	for i := range sizes {
		assets[i] = &Asset{
			TokenID: ids[i], URI: uris[i], Statement: sts[i], EncProof: encProofs[i],
			Data: pieces[i], Key: keys[i],
			DataBlinder: ws[i].DataBlinder, KeyBlinder: ws[i].KeyBlinder,
		}
	}
	return &TransformResult{Assets: assets, Proof: tp}, nil
}

// Process applies a Processor and mints the result (§IV-D4/§IV-E: model
// training, computational delegation).
func (m *Marketplace) Process(owner chain.Address, ownerLabel string, src *Asset, proc Processor) (*TransformResult, error) {
	derived, err := proc.Apply(src.Data)
	if err != nil {
		return nil, err
	}
	st, w, encProof, uri, key, err := m.finishDerived(ownerLabel, derived)
	if err != nil {
		return nil, err
	}
	tp, err := m.Sys.proveProcessingWith(proc, src.Data, src.Statement.DataCommitment, src.DataBlinder, st.DataCommitment, w.DataBlinder)
	if err != nil {
		return nil, err
	}
	cdB := st.DataCommitment.Bytes()
	ckB := st.KeyCommitment.Bytes()
	r, err := m.submit(owner, contracts.DataNFTName, "process", 0,
		contracts.EncodeArgs(contracts.U64List([]uint64{src.TokenID}), uri[:], append(cdB[:], ckB[:]...)))
	if err != nil {
		return nil, err
	}
	id, err := contracts.DecU64(r.Return)
	if err != nil {
		return nil, err
	}
	asset := &Asset{
		TokenID: id, URI: uri, Statement: st, EncProof: encProof,
		Data: derived, Key: key,
		DataBlinder: w.DataBlinder, KeyBlinder: w.KeyBlinder,
	}
	return &TransformResult{Assets: []*Asset{asset}, Proof: tp}, nil
}

// SellViaEscrow runs the complete key-secure exchange (§IV-F) between a
// seller's asset and a buyer address, using the on-chain escrow as 𝒥.
// It returns the decrypted dataset as received by the buyer.
func (m *Marketplace) SellViaEscrow(exchangeID uint64, sellerAddr, buyerAddr chain.Address, asset *Asset, pred Predicate, price uint64) (Dataset, error) {
	seller, err := NewSeller(m.Sys, asset.Data, asset.Key, pred)
	if err != nil {
		return nil, err
	}
	listing := seller.Listing(price)

	// Phase 1 — data validation: seller proves π_p, buyer verifies.
	piP, err := seller.ProveData()
	if err != nil {
		return nil, err
	}
	buyer := NewBuyer(m.Sys, listing, pred)
	if err := buyer.VerifyData(piP); err != nil {
		return nil, err
	}

	// Buyer locks payment with h_v; k_v goes to the seller off-chain.
	kv, hv := buyer.Challenge()
	hvB := hv.Bytes()
	ckB := listing.KeyCommitment.Bytes()
	if _, err := m.submit(buyerAddr, contracts.EscrowName, "open", price,
		contracts.EncodeArgs(contracts.U64(exchangeID), sellerAddr[:], hvB[:], ckB[:])); err != nil {
		return nil, err
	}

	// Phase 2 — key negotiation: seller derives k_c and proves π_k;
	// the escrow verifies on-chain and releases the payment.
	st, piK, err := seller.NegotiateKey(kv, hv)
	if err != nil {
		return nil, err
	}
	kcB := st.KC.Bytes()
	if _, err := m.submit(sellerAddr, contracts.EscrowName, "settle", 0,
		contracts.EncodeArgs(contracts.U64(exchangeID), kcB[:],
			piK.Bytes(), kcB[:], ckB[:], hvB[:])); err != nil {
		return nil, err
	}

	// Buyer reads k_c from chain state and decrypts.
	kcPub, err := contracts.ReadSettledKc(m.Chain, contracts.EscrowName, exchangeID)
	if err != nil {
		return nil, err
	}
	kcEl, err := fr.FromBytesCanonical(kcPub)
	if err != nil {
		return nil, err
	}
	// Transfer the NFT to the buyer to record the ownership change.
	if _, err := m.submit(sellerAddr, contracts.DataNFTName, "transfer", 0,
		contracts.EncodeArgs(contracts.U64(asset.TokenID), buyerAddr[:])); err != nil {
		return nil, err
	}
	return buyer.Decrypt(kcEl)
}

// FetchCiphertext retrieves and decodes an asset's ciphertext from storage.
func (m *Marketplace) FetchCiphertext(uri storage.URI) (Ciphertext, error) {
	raw, err := m.Store.Get(uri)
	if err != nil {
		return Ciphertext{}, err
	}
	return CiphertextFromBytes(raw)
}

// AttachIndexer wires an event indexer configured for the deployed contract
// suite onto the chain's seal hook. Idempotent: a second call returns the
// already-attached indexer.
func (m *Marketplace) AttachIndexer() *indexer.Indexer {
	if m.ix == nil {
		m.ix = indexer.New(indexer.Config{
			NFTContract:    contracts.DataNFTName,
			EscrowContract: contracts.EscrowName,
			CTContract:     contracts.ConfidentialTokenName,
		})
		m.ix.Attach(m.Chain)
	}
	return m.ix
}

// Indexer returns the attached event indexer, or nil.
func (m *Marketplace) Indexer() *indexer.Indexer { return m.ix }

// Trace returns the provenance of a token (Figure 2's lineage walk) from
// contract storage, so it also serves tokens minted but not yet sealed into
// a block.
func (m *Marketplace) Trace(tokenID uint64) ([]*contracts.Token, error) {
	return contracts.Trace(m.Chain, tokenID)
}

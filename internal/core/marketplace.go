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
// content-addressed storage holding encrypted datasets, and the proof
// system. It is the component a data owner or demander actually talks to.
type Marketplace struct {
	Sys   *System
	Chain *chain.Chain
	// Store is the deployment's content-addressed storage: a fresh
	// storage.Store by default (NewMarketplace), or any storage.BlobStore —
	// a durable node's logged store, a p2p transport-backed store — when
	// deployed with NewMarketplaceWith.
	Store storage.BlobStore

	// Submitter, when set, routes marketplace transactions through an
	// external admission path — a cluster node's mempool + gossip — instead
	// of produceOne on the local chain. It must block until the
	// transaction is included and return its receipt. The transaction's
	// Nonce is advisory (taken from the local chain); cluster submitters
	// typically reassign it atomically at admission.
	Submitter func(tx chain.Transaction) (*chain.Receipt, error)

	// ix is the deployment's event indexer, attached at genesis; Trace reads
	// token records from it.
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

// NewMarketplace deploys the contract suite on a fresh chain over a fresh
// content-addressed blob store.
func NewMarketplace(sys *System) (*Marketplace, DeployGas, error) {
	return NewMarketplaceWith(sys, chain.New(), storage.NewStore())
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
	if err := checker.Add(PiKVerifierName, verifier); err != nil {
		return nil, gas, err
	}
	if err := checker.Add(contracts.EscrowName, escrow); err != nil {
		return nil, gas, err
	}
	c.SetBlockVerifier(checker)
	ix := indexer.New()
	ix.Attach(c)
	return &Marketplace{Sys: sys, Chain: c, Store: store, ix: ix, checker: checker}, gas, nil
}

// ProofChecker returns the deployment's block verifier, covering its
// proof-carrying transactions: direct π_k verifications, escrow
// settlements and — once EnableConfidential ran — confidential transfers
// and settlements. The chain applies every block through it and screens
// gossip with it (chain.Chain.CheckTxs).
// benchmark shim: item 1 deletes
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

func (m *Marketplace) submit(from chain.Address, contract, method string, value uint64, args []byte) (*chain.Receipt, error) {
	tx := chain.Transaction{
		From: from, Contract: contract, Method: method,
		Args: args, Value: value, Nonce: m.Chain.NonceOf(from),
	}
	submit := m.Submitter
	if submit == nil {
		submit = m.produceOne
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

// produceOne is the default submitter: the transaction is produced as a
// block of its own, synchronously — its proofs folded at width one, which
// costs what a lone verification does — so the indexer has folded it before
// the caller sees the receipt. A transaction the fold evicts returns the
// fold's error and leaves no trace.
func (m *Marketplace) produceOne(tx chain.Transaction) (*chain.Receipt, error) {
	o := m.Chain.ProduceBlock([]chain.Transaction{tx}).Outcomes[0]
	return o.Receipt, o.Err
}

// publish encrypts a dataset under key, proves its π_e and stores the
// ciphertext (URI = digest): an asset in everything but its token.
func (m *Marketplace) publish(ownerLabel string, data Dataset, key fr.Element) (*Asset, error) {
	st, w, ct, proof, err := m.Sys.EncryptAndProve(data, key)
	if err != nil {
		return nil, err
	}
	uri, err := m.Store.Put(ownerLabel, ct.Bytes())
	if err != nil {
		return nil, err
	}
	return &Asset{
		URI: uri, Statement: st, EncProof: proof,
		Data: data, Key: key,
		DataBlinder: w.DataBlinder, KeyBlinder: w.KeyBlinder,
	}, nil
}

// MintAsset runs §III-A end to end: encrypt the dataset, prove π_e, publish
// the ciphertext to storage, and mint the NFT.
func (m *Marketplace) MintAsset(owner chain.Address, ownerLabel string, data Dataset, key fr.Element) (*Asset, error) {
	asset, err := m.publish(ownerLabel, data.Clone(), key)
	if err != nil {
		return nil, err
	}
	r, err := m.submit(owner, contracts.DataNFTName, "mint", 0, contracts.EncodeArgs(asset.URI[:], asset.Statement.commitmentField()))
	if err != nil {
		return nil, err
	}
	if asset.TokenID, err = contracts.DecU64(r.Return); err != nil {
		return nil, err
	}
	return asset, nil
}

// TransformResult packages a transformation's outcome: the new asset(s)
// plus the π_t that links them to their sources.
type TransformResult struct {
	Assets []*Asset
	Proof  *TransformProof
}

// nftMethods names the DataNFT method that mints each kind's tokens. All four
// take (parents, then URI and commitment field per derived token) and return
// the new ids; where the ABI says one id rather than an id list, the one-id
// list is the same eight bytes.
var nftMethods = map[TransformKindName]string{
	TransformDuplication: "duplicate",
	TransformAggregation: "aggregate",
	TransformPartition:   "partition",
	TransformProcessing:  "process",
}

// transform runs the mint side of §IV-B for any transformation: derive the
// pieces, publish each as an asset under a fresh key, prove the one π_t that
// links the sources' commitments to the commitments the new π_e's use, and
// mint the derived tokens.
func (m *Marketplace) transform(owner chain.Address, ownerLabel string, kind TransformKindName, srcs []*Asset, sizes []int, proc Processor) (*TransformResult, error) {
	var w transformWitness
	parents := make([]uint64, len(srcs))
	for i, src := range srcs {
		w.srcs = append(w.srcs, src.Data)
		w.cs = append(w.cs, src.Statement.DataCommitment)
		w.os = append(w.os, src.DataBlinder)
		parents[i] = src.TokenID
	}
	sh, pieces, err := derive(kind, w.srcs, sizes, proc)
	if err != nil {
		return nil, err
	}
	args := [][]byte{contracts.U64List(parents)}
	assets := make([]*Asset, len(pieces))
	for k, piece := range pieces {
		if assets[k], err = m.publish(ownerLabel, piece, fr.MustRandom()); err != nil {
			return nil, err
		}
		w.cd = append(w.cd, assets[k].Statement.DataCommitment)
		w.od = append(w.od, assets[k].DataBlinder)
		args = append(args, assets[k].URI[:], assets[k].Statement.commitmentField())
	}
	tp, err := m.Sys.proveTransform(sh, w)
	if err != nil {
		return nil, err
	}
	r, err := m.submit(owner, contracts.DataNFTName, nftMethods[kind], 0, contracts.EncodeArgs(args...))
	if err != nil {
		return nil, err
	}
	ids, err := contracts.DecU64List(r.Return)
	if err != nil || len(ids) != len(assets) {
		return nil, fmt.Errorf("core: %s returned %d token ids for %d pieces: %w", nftMethods[kind], len(ids), len(assets), err)
	}
	for k := range assets {
		assets[k].TokenID = ids[k]
	}
	return &TransformResult{Assets: assets, Proof: tp}, nil
}

// Duplicate mints a replica token (§IV-D1): new commitment, new key, new
// ciphertext, same plaintext, provably identical content.
func (m *Marketplace) Duplicate(owner chain.Address, ownerLabel string, src *Asset) (*TransformResult, error) {
	return m.transform(owner, ownerLabel, TransformDuplication, []*Asset{src}, nil, nil)
}

// Aggregate merges assets into one (§IV-D2).
func (m *Marketplace) Aggregate(owner chain.Address, ownerLabel string, srcs []*Asset) (*TransformResult, error) {
	return m.transform(owner, ownerLabel, TransformAggregation, srcs, nil, nil)
}

// Partition splits an asset into consecutive pieces (§IV-D3).
func (m *Marketplace) Partition(owner chain.Address, ownerLabel string, src *Asset, sizes []int) (*TransformResult, error) {
	return m.transform(owner, ownerLabel, TransformPartition, []*Asset{src}, sizes, nil)
}

// Process applies a Processor and mints the result (§IV-D4/§IV-E: model
// training, computational delegation).
func (m *Marketplace) Process(owner chain.Address, ownerLabel string, src *Asset, proc Processor) (*TransformResult, error) {
	return m.transform(owner, ownerLabel, TransformProcessing, []*Asset{src}, nil, proc)
}

// ErrListingNotToken refuses a sale whose listing is not the token's: its
// c_d ‖ c_k and the content address of its ciphertext do not reproduce the
// record the token stores on-chain.
var ErrListingNotToken = errors.New("core: listing does not match the token's on-chain record")

// checkListing is the buyer's check that a listing offers token id: the
// token stores the digest of its kind, ciphertext URI, commitment field and
// parents, and the listing's c_d ‖ c_k and the URI of its ciphertext must
// reproduce it with the kind and parents the indexer recorded — which the
// digest binds as well, as in Trace.
func (m *Marketplace) checkListing(id uint64, l *Listing) error {
	tok, err := contracts.ReadToken(m.Chain, id)
	if err != nil {
		return err
	}
	lin, err := m.ix.Lineage(id)
	if err != nil {
		return err
	}
	for _, rec := range lin.Tokens {
		if rec.ID != id {
			continue
		}
		uri := storage.URIOf(l.Ciphertext.Bytes())
		cd, ck := l.Statement.DataCommitment.Bytes(), l.KeyCommitment.Bytes()
		if tok.Record == contracts.RecordDigest(rec.Kind, uri[:], append(cd[:], ck[:]...), rec.Parents) {
			return nil
		}
	}
	return fmt.Errorf("%w: token #%d", ErrListingNotToken, id)
}

// sell runs the complete key-secure exchange (§IV-F) between a seller's asset
// and a buyer address with the named contract — either one carrying the
// exchange machine — as the arbiter 𝒥: lock submits the buyer's locking call
// for (h_v, c_k). Before it locks anything the buyer checks that the listing
// is the token's (ErrListingNotToken otherwise), and the token's π_e with
// π_p (Buyer.VerifyData). It returns the decrypted dataset as received by
// the buyer.
func (m *Marketplace) sell(arbiter string, exchangeID uint64, sellerAddr, buyerAddr chain.Address, asset *Asset, pred Predicate, price uint64,
	lock func(hv, ck []byte) error) (Dataset, error) {
	seller, err := assetSeller(m.Sys, asset, pred)
	if err != nil {
		return nil, err
	}
	listing := seller.Listing(price)
	if err := m.checkListing(asset.TokenID, &listing); err != nil {
		return nil, err
	}

	// Phase 1 — data validation: seller proves π_p, buyer verifies it with
	// the listing's π_e.
	piP, err := seller.ProveData()
	if err != nil {
		return nil, err
	}
	buyer := NewBuyer(m.Sys, listing, pred)
	if err := buyer.VerifyData(piP); err != nil {
		return nil, err
	}

	// Buyer locks the payment with h_v; k_v goes to the seller off-chain.
	kv, hv := buyer.Challenge()
	hvB := hv.Bytes()
	ckB := listing.KeyCommitment.Bytes()
	if err := lock(hvB[:], ckB[:]); err != nil {
		return nil, err
	}

	// Phase 2 — key negotiation: seller derives k_c and proves π_k; the
	// arbiter verifies on-chain and releases the payment.
	st, piK, err := seller.NegotiateKey(kv, hv)
	if err != nil {
		return nil, err
	}
	kcB := st.KC.Bytes()
	if _, err := m.submit(sellerAddr, arbiter, "settle", 0,
		contracts.EncodeArgs(contracts.U64(exchangeID), kcB[:],
			piK.Bytes(), kcB[:], ckB[:], hvB[:])); err != nil {
		return nil, err
	}

	// Buyer reads k_c from chain state and decrypts.
	kcPub, err := contracts.ReadSettledKc(m.Chain, arbiter, exchangeID)
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

// SellViaEscrow sells an asset for native value, with the on-chain escrow as
// the exchange's arbiter.
func (m *Marketplace) SellViaEscrow(exchangeID uint64, sellerAddr, buyerAddr chain.Address, asset *Asset, pred Predicate, price uint64) (Dataset, error) {
	return m.sell(contracts.EscrowName, exchangeID, sellerAddr, buyerAddr, asset, pred, price,
		func(hv, ck []byte) error {
			_, err := m.submit(buyerAddr, contracts.EscrowName, "open", price,
				contracts.EncodeArgs(contracts.U64(exchangeID), sellerAddr[:], hv, ck))
			return err
		})
}

// FetchCiphertext retrieves and decodes an asset's ciphertext from storage.
func (m *Marketplace) FetchCiphertext(uri storage.URI) (Ciphertext, error) {
	raw, err := m.Store.Get(uri)
	if err != nil {
		return Ciphertext{}, err
	}
	return CiphertextFromBytes(raw)
}

// AttachIndexer returns the deployment's event indexer, attached to the
// chain's seal hook at genesis, before any recovery restores blocks.
func (m *Marketplace) AttachIndexer() *indexer.Indexer { return m.ix }

// Trace returns the provenance of a token (Figure 2's lineage walk): its
// record and every ancestor's from the indexer, each matched against the
// digest its token stores on-chain (contracts.ErrRecordMismatch otherwise).
func (m *Marketplace) Trace(tokenID uint64) ([]*indexer.TokenRecord, error) {
	lin, err := m.ix.Lineage(tokenID)
	if err != nil {
		return nil, err
	}
	for _, rec := range lin.Tokens {
		tok, err := contracts.ReadToken(m.Chain, rec.ID)
		if err != nil {
			return nil, err
		}
		if tok.Record != contracts.RecordDigest(rec.Kind, rec.URI, rec.Commitment, rec.Parents) {
			return nil, fmt.Errorf("%w: token #%d", contracts.ErrRecordMismatch, rec.ID)
		}
	}
	return lin.Tokens, nil
}

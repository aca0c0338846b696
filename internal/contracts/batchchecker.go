package contracts

import (
	"errors"
	"fmt"
	"sync"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/plonk"
)

// ErrForeignSRS is returned by BlockProofChecker.Add for a verifier whose
// key was set up over another SRS than the verifiers the checker already
// holds: a block's proofs fold into one pairing check, which needs one SRS.
var ErrForeignSRS = errors.New("contracts: verifier key is from another SRS than the checker's")

// BlockProofChecker batch-verifies the Plonk proofs carried by a block's
// transactions before they execute. It is the chain's block verifier
// (chain.BlockVerifier): applyBlock hands it every body it is about to
// apply — produced, imported or replayed — and it recognises the
// proof-carrying transactions (direct verifier calls, exchange settlements
// on the escrow or the confidential token, confidential-token transfers),
// folds their proofs into one pairing check, and returns the table of
// validated verify calls with the width of the fold; execution then charges
// those calls the amortised gas schedule and skips the pairing. Invalid
// proofs are reported by transaction index — a producer leaves them out, an
// importer refuses the block — and plonk.Batch.Check names the offenders,
// isolated in O(k·log n) pairing checks.
//
// A transaction can carry several proofs (a confidential transfer has one
// π_ct per ct.RangeSlots outputs). Every registered verifier's key is on
// one SRS (Add refuses any other), so π_k settlements and π_ct range proofs
// in the same block fold into one plonk.Batch and cost one pairing check.
//
// The check is a pure function of the registered contracts' configuration
// and the calldata: it reads no chain state and writes nothing, which lets
// the chain run it with its state lock released and every replica
// reproduce it.
type BlockProofChecker struct {
	mu        sync.RWMutex                  // registration (genesis, the devnet's ctEnable) vs checks
	base      *plonk.VerifyingKey           // the first registered verifier's key: the batch's; guarded by mu
	verifiers map[string]*Verifier          // guarded by mu
	exchanges map[string]*exchange          // guarded by mu
	cts       map[string]*ConfidentialToken // guarded by mu
}

var _ chain.BlockVerifier = (*BlockProofChecker)(nil)

// NewBlockProofChecker returns an empty checker; register the deployed
// contracts with Add.
func NewBlockProofChecker() *BlockProofChecker {
	return &BlockProofChecker{
		verifiers: make(map[string]*Verifier),
		exchanges: make(map[string]*exchange),
		cts:       make(map[string]*ConfidentialToken),
	}
}

// Add registers a deployed contract under its deployment name. The checker
// folds what it recognises and ignores any other contract:
//   - a Verifier's direct verify transactions;
//   - the settle transactions of every contract carrying the exchange
//     machine (the escrow, the confidential token): their π_k, which the
//     machine forwards to its verifier;
//   - a ConfidentialToken's mint/transfer transactions: a stateless sigma
//     pre-check (balance and auditor-ciphertext consistency, no chain state
//     needed), then their π_ct range proofs against its range verifier.
//
// A proof joins the fold only once the verifier it targets is registered
// too. A Verifier whose key's N is not a supported domain size is refused
// with an error wrapping plonk.ErrDomainSize: no proof verifies against
// it, and as the batch key it would fail every fold. The first Verifier
// fixes the checker's SRS; a later one whose key has other G2 points is
// refused with ErrForeignSRS.
func (bc *BlockProofChecker) Add(name string, c chain.Contract) error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	switch c := c.(type) {
	case *Verifier:
		if err := c.vk.CheckDomain(); err != nil {
			return fmt.Errorf("contracts: verifier %q: %w", name, err)
		}
		if bc.base == nil {
			bc.base = c.vk
		} else if !c.vk.SameSRS(bc.base) {
			return fmt.Errorf("%w: verifier %q", ErrForeignSRS, name)
		}
		bc.verifiers[name] = c
	case *Escrow:
		bc.exchanges[name] = &c.exchange
	case *ConfidentialToken:
		bc.exchanges[name] = &c.exchange
		bc.cts[name] = c
	}
	return nil
}

// proofItem is one Plonk proof riding in a transaction, targeted at a
// registered verifier contract.
type proofItem struct {
	tx   int    // index of the carrying transaction; set by CheckBlock
	name string // the verifier's deployment name
	v    *Verifier
	args []byte // verify calldata; chain.ProofKey(name, args) is its table key
}

// extractAll recognises a proof-carrying transaction and returns every
// Plonk proof it carries. A non-nil error means the transaction fails a
// stateless pre-check (malformed or forged confidential transfer) and
// should be dropped without wasting a pairing on it; a transaction that
// carries no recognisable proof yields nothing. caller holds bc.mu.
func (bc *BlockProofChecker) extractAll(tx *chain.Transaction) ([]proofItem, error) {
	if v, found := bc.verifiers[tx.Contract]; found && tx.Method == "verify" {
		return []proofItem{{name: tx.Contract, v: v, args: tx.Args}}, nil
	}
	if x, found := bc.exchanges[tx.Contract]; found && tx.Method == "settle" {
		parts, err := DecodeArgsVariadic(tx.Args)
		if err != nil || len(parts) < 3 {
			return nil, nil // malformed; let it revert on-chain
		}
		v, found := bc.verifiers[x.verifierName]
		if !found {
			return nil, nil
		}
		// settle(id, kc, verifyParts…): the machine forwards
		// EncodeArgs(verifyParts…) to its verifier, so that is the calldata
		// to fold and to enter in the table.
		return []proofItem{{name: x.verifierName, v: v, args: EncodeArgs(parts[2:]...)}}, nil
	}
	if tok, found := bc.cts[tx.Contract]; found && (tx.Method == "mint" || tx.Method == "transfer") {
		v, vfound := bc.verifiers[tok.rangeVerifierName]
		if !vfound {
			return nil, nil
		}
		d, err := DecodeCTTransfer(tx.Args)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCTProofRejected, err)
		}
		// The sigma layer is stateless — input commitments ride in the
		// calldata (execution cross-checks them against storage), so the
		// network boundary can reject forged balances and inconsistent
		// auditor ciphertexts without any chain state.
		ranges, err := d.Proof.RangeInstances(tok.params, &tok.auditor, d.Statement(tx.From, tx.Method == "mint"))
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCTProofRejected, err)
		}
		items := make([]proofItem, len(ranges))
		for g, ri := range ranges {
			items[g] = proofItem{name: tok.rangeVerifierName, v: v, args: VerifyArgs(ri.Proof, ri.Public)}
		}
		return items, nil
	}
	return nil, nil
}

// GossipCheck is CheckBlock's view for the network boundary: the number of
// transactions whose proofs all verified and the per-transaction errors.
// Gossip screens through chain.Chain.CheckTxs instead.
// benchmark shim: item 1 deletes
func (bc *BlockProofChecker) GossipCheck(txs []*chain.Transaction) (int, []error) {
	marks, errs := bc.CheckBlock(txs)
	return marks.Txs, errs
}

// CheckBlock implements chain.BlockVerifier: it folds the proofs carried
// by txs in one batch and returns the table of validated verify calls, each
// with the fold's width. errs[i] != nil means transaction i carries a proof
// that fails verification and does not belong in a block. Transactions
// that carry no recognisable proof are left alone (nil error, not counted).
func (bc *BlockProofChecker) CheckBlock(txs []*chain.Transaction) (chain.ProofMarks, []error) {
	errs := make([]error, len(txs))

	// Collect every proof item in transaction order.
	var items []proofItem
	carries := make([]bool, len(txs)) // transaction i carries a proof
	bc.mu.RLock()
	base := bc.base
	for i, tx := range txs {
		txItems, err := bc.extractAll(tx)
		if err != nil {
			errs[i] = err
			continue
		}
		carries[i] = len(txItems) > 0
		for _, it := range txItems {
			it.tx = i
			items = append(items, it)
		}
	}
	bc.mu.RUnlock()

	// Decode every item and add it in item order, so the batch, its ρ and
	// every error are those of one pass in that order and the same on every
	// replica; Check prepares the items on the worker pool and names the
	// offenders of a failed fold.
	batch := plonk.NewBatch(base)
	var folded []int // item indices, in batch position order
	for idx := range items {
		it := &items[idx]
		if errs[it.tx] != nil {
			continue // sibling item already failed this tx
		}
		proof, public, err := decodeVerifyArgs(it.args)
		if err == nil {
			err = batch.AddFor(it.v.vk, proof, public)
		}
		if err != nil {
			errs[it.tx] = fmt.Errorf("%w: %w", ErrProofRejected, err)
			continue
		}
		folded = append(folded, idx)
	}
	if err := batch.Check(); err != nil {
		var refused *plonk.BatchError
		if !errors.As(err, &refused) {
			// Enter nothing in the table; execution verifies each proof
			// alone.
			return chain.ProofMarks{}, errs
		}
		for _, pos := range refused.Offenders {
			errs[items[folded[pos]].tx] = fmt.Errorf("%w: seal-time batch check", ErrProofRejected)
		}
	}

	// Enter the surviving items in the table at the survivor count's width.
	// A transaction with a rejected sibling item gets nothing: it is not
	// going into the block. Every item of a transaction left without an
	// error survived, so the transaction counts as validated.
	kept := folded[:0]
	for _, idx := range folded {
		if errs[items[idx].tx] == nil {
			kept = append(kept, idx)
		}
	}
	marks := chain.ProofMarks{Width: make(map[chain.ProofID]int, len(kept)), Items: len(kept)}
	for _, idx := range kept {
		marks.Width[chain.ProofKey(items[idx].name, items[idx].args)] = len(kept)
	}
	for i, c := range carries {
		if c && errs[i] == nil {
			marks.Txs++
		}
	}
	return marks, errs
}

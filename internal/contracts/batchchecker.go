package contracts

import (
	"fmt"
	"sync"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/plonk"
)

// BlockProofChecker batch-verifies the Plonk proofs carried by a block's
// transactions before they execute. It is the chain's block verifier
// (chain.BlockVerifier): applyBlock hands it every body it is about to
// apply — produced, imported or replayed — and it recognises the
// proof-carrying transactions (direct verifier calls, exchange settlements
// on the escrow or the confidential token, confidential-token transfers),
// folds their proofs into as few pairing checks as possible, and returns
// the table of validated verify calls with the width of the fold each was
// part of; execution then charges those calls the amortised gas schedule
// and skips the pairing. Invalid proofs
// are reported by transaction index — a producer leaves them out, an
// importer refuses the block — and plonk.Batch's bisection isolates
// offenders in O(k·log n) pairing checks.
//
// A transaction can carry several proofs (a confidential transfer has one
// π_ct per ct.RangeSlots outputs); proofs under verifying keys that share
// an SRS (equal G2 tail) fold into a single pairing via
// plonk.Batch.AddFor, so π_k settlements and π_ct range proofs in the same
// block cost one pairing check total when their keys came from the same
// ceremony.
//
// The check is a pure function of the registered contracts' configuration
// and the calldata: it reads no chain state and writes nothing, which lets
// the chain run it with its state lock released and every replica
// reproduce it.
type BlockProofChecker struct {
	mu        sync.RWMutex                  // registration (genesis, the devnet's ctEnable) vs checks
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
// too.
func (bc *BlockProofChecker) Add(name string, c chain.Contract) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	switch c := c.(type) {
	case *Verifier:
		bc.verifiers[name] = c
	case *Escrow:
		bc.exchanges[name] = &c.exchange
	case *ConfidentialToken:
		bc.exchanges[name] = &c.exchange
		bc.cts[name] = c
	}
}

// proofItem is one Plonk proof riding in a transaction, targeted at a
// registered verifier contract.
type proofItem struct {
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
// transactions whose proofs all verified and the per-transaction errors. A
// gossip layer screens payloads with it before re-propagating them.
func (bc *BlockProofChecker) GossipCheck(txs []*chain.Transaction) (int, []error) {
	marks, errs := bc.CheckBlock(txs)
	return marks.Txs, errs
}

// CheckBlock implements chain.BlockVerifier: it folds the proofs carried
// by txs and returns the table of validated verify calls, each with its
// fold's width. errs[i] != nil means transaction i carries a proof that
// fails verification and does not belong in a block. Transactions that
// carry no recognisable proof are left alone (nil error, not counted).
func (bc *BlockProofChecker) CheckBlock(txs []*chain.Transaction) (chain.ProofMarks, []error) {
	errs := make([]error, len(txs))

	// Collect every proof item in transaction order.
	type taggedItem struct {
		txIndex int
		proofItem
	}
	var items []taggedItem
	proofTx := make([]int, len(txs)) // item count per transaction
	bc.mu.RLock()
	for i, tx := range txs {
		txItems, err := bc.extractAll(tx)
		if err != nil {
			errs[i] = err
			continue
		}
		proofTx[i] = len(txItems)
		for _, it := range txItems {
			items = append(items, taggedItem{txIndex: i, proofItem: it})
		}
	}
	bc.mu.RUnlock()

	// Fold items into batches grouped by SRS: verifying keys with an equal
	// G2 tail share one pairing check via AddFor, so π_k and π_ct proofs
	// from the same ceremony cost one fold. Groups form in item order, so
	// the construction is deterministic across replicas.
	type g2group struct {
		base    *Verifier
		batch   *plonk.Batch
		members []int // item indices, in batch position order
		failed  bool  // folding itself failed (not a proof problem)
	}
	var groups []*g2group
	sameSRS := func(a, b *plonk.VerifyingKey) bool {
		return a.G2[0].Equal(&b.G2[0]) && a.G2[1].Equal(&b.G2[1])
	}
	for idx := range items {
		it := &items[idx]
		if errs[it.txIndex] != nil {
			continue // sibling item already failed this tx
		}
		proof, public, err := decodeVerifyArgs(it.args)
		if err != nil {
			errs[it.txIndex] = fmt.Errorf("%w: %w", ErrProofRejected, err)
			continue
		}
		var g *g2group
		for _, cand := range groups {
			if sameSRS(cand.base.vk, it.v.vk) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &g2group{base: it.v, batch: plonk.NewBatch(it.v.vk)}
			groups = append(groups, g)
		}
		if it.v == g.base {
			err = g.batch.Add(proof, public)
		} else {
			err = g.batch.AddFor(it.v.vk, proof, public)
		}
		if err != nil {
			errs[it.txIndex] = fmt.Errorf("%w: %w", ErrProofRejected, err)
			continue
		}
		g.members = append(g.members, idx)
	}

	// Check each fold; bisect to isolate offenders on failure.
	for _, g := range groups {
		if g.batch.Len() == 0 {
			continue
		}
		if err := g.batch.Check(); err != nil {
			offenders, berr := g.batch.Bisect()
			if berr != nil {
				// Leave the group out of the table; execution verifies each
				// of its proofs alone.
				g.failed = true
				continue
			}
			for _, pos := range offenders {
				idx := g.members[pos]
				errs[items[idx].txIndex] = fmt.Errorf("%w: seal-time batch check", ErrProofRejected)
			}
		}
	}

	// Enter the surviving items in the table, each at the width of its own
	// fold's survivor count. A transaction with a rejected sibling item gets
	// nothing: it is not going into the block.
	marks := chain.ProofMarks{Width: make(map[chain.ProofID]int, len(items))}
	marked := make([]int, len(txs)) // items entered per transaction
	for _, g := range groups {
		if g.failed {
			continue
		}
		survivors := 0
		for _, idx := range g.members {
			if errs[items[idx].txIndex] == nil {
				survivors++
			}
		}
		for _, idx := range g.members {
			it := &items[idx]
			if errs[it.txIndex] == nil {
				marks.Width[chain.ProofKey(it.name, it.args)] = survivors
				marks.Items++
				marked[it.txIndex]++
			}
		}
	}
	for i, n := range proofTx {
		if n > 0 && errs[i] == nil && marked[i] == n {
			marks.Txs++
		}
	}
	return marks, errs
}

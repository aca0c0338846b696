package chain

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"time"
)

// Errors returned by the block import path.
var (
	ErrNotNextBlock  = errors.New("chain: block does not extend the head")
	ErrBadParent     = errors.New("chain: block parent hash mismatch")
	ErrBadBody       = errors.New("chain: block body does not match header")
	ErrImportFailed  = errors.New("chain: block transaction failed to replay")
	ErrStateMismatch = errors.New("chain: replayed block hash differs from imported header")
)

// Hash returns the block's header digest (number, parent, tx hashes, state
// root — the sealing time is deliberately excluded so honest replicas that
// replay the same transactions agree on the hash).
func (b *Block) Hash() Hash { return b.hash() }

// Head returns the current head block.
func (c *Chain) Head() Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blocks[len(c.blocks)-1]
}

// HeadHash returns the hash of the current head block.
//
//lint:ignore testonly the snapshot, contracts, p2p, core and cmd/zkdet-node tests compare head hashes across replicas and restarts
func (c *Chain) HeadHash() Hash {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blocks[len(c.blocks)-1].hash()
}

// HeadersRange returns up to count sealed headers starting at block number
// from, in ascending order — the headers-first half of chain sync.
func (c *Chain) HeadersRange(from uint64, count int) []Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	if count <= 0 || from >= uint64(len(c.blocks)) {
		return nil
	}
	hi := from + uint64(count)
	if hi > uint64(len(c.blocks)) {
		hi = uint64(len(c.blocks))
	}
	out := make([]Block, hi-from)
	copy(out, c.blocks[from:hi])
	return out
}

// BlockBody returns the ordered transactions of a sealed block — the bodies
// half of chain sync. Bodies are returned in their normalized (gas-default
// applied) form, so replaying them reproduces the header's tx hashes.
func (c *Chain) BlockBody(n uint64) ([]Transaction, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n >= uint64(len(c.blocks)) {
		return nil, false
	}
	b := c.blocks[n]
	out := make([]Transaction, len(b.TxHashes))
	for i, h := range b.TxHashes {
		tx, ok := c.txs[h]
		if !ok {
			return nil, false
		}
		out[i] = tx
	}
	return out, true
}

// BlockVerifier checks the proofs a block's transactions carry, once per
// block the chain applies (produced, imported or replayed alike) and with
// mu released: it reads deployment-time configuration and calldata, never
// chain state, and answers the same for the same body on every node.
// errs[i] != nil flags a transaction whose proof does not verify: a
// producer leaves it out, an importer refuses the block.
// contracts.BlockProofChecker implements it; core.NewMarketplaceWith
// installs it, so a chain that has only run genesis already has it.
type BlockVerifier interface {
	CheckBlock(txs []*Transaction) (marks ProofMarks, errs []error)
}

// ProofMarks is one block's proof table: Width maps the ProofKey of every
// validated verify call to the width of the fold that validated it (what
// the call is charged for), Items counts the validated proof items (the
// header records it as Fold) and Txs the transactions all of whose proofs
// were validated.
type ProofMarks struct {
	Width map[ProofID]int
	Items int
	Txs   int
}

// ProofID identifies one verify call in a block's proof table: the verifier
// contract's deployment name and a digest of the exact calldata it will see.
type ProofID struct {
	Verifier string
	Calldata Hash
}

// ProofKey is the ProofID of a verify call.
func ProofKey(verifier string, calldata []byte) ProofID {
	return ProofID{Verifier: verifier, Calldata: sha256.Sum256(calldata)}
}

// SetBlockVerifier installs the chain's block verifier — genesis wiring,
// like Deploy: every replica installs an equivalent one.
func (c *Chain) SetBlockVerifier(v BlockVerifier) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.verifier = v
}

// CheckTxs runs the installed block verifier over transactions that are
// not in a block yet — the screen a gossip layer applies before it pools or
// forwards them — and returns its per-transaction errors, all nil when no
// verifier is installed. What a transaction later pays is decided by the
// block it is sealed in, never by this screen.
func (c *Chain) CheckTxs(txs []*Transaction) []error {
	c.mu.Lock()
	v := c.verifier
	c.mu.Unlock()
	if v == nil {
		return make([]error, len(txs))
	}
	_, errs := v.CheckBlock(txs)
	return errs
}

// Produced reports what ProduceBlock did with its candidates: the sealed
// block (zero when candidates were given and none made it), one outcome per
// candidate — the receipt, or the error that kept it out, in which case it
// left no trace in state — how many transactions the block's fold
// validated and rejected, what the fold cost and whether every seal hook
// kept the block.
type Produced struct {
	Block          Block
	Outcomes       []TxOutcome
	ProofsVerified int
	ProofsEvicted  int
	// FoldTime is how long the block's proof check ran, summed over every
	// run (a producer re-runs it after evicting a candidate); zero without a
	// verifier. It is a measurement for metrics: nothing consensus reads.
	FoldTime time.Duration
	// SealErr is the first error an OnSeal hook returned for the sealed
	// block. The block is sealed and the receipts are in state, but a hook
	// — the durable store's — could not keep it, so it must not be
	// acknowledged.
	SealErr error
}

// ProduceBlock is the one way a transaction executes: the candidates'
// proofs are checked in one fold, the survivors execute on top of the head
// and exactly the executed ones are sealed into the next block, whose header
// records the fold. No candidates seal an empty block; candidates of which
// none can be included seal nothing. The OnSeal hooks are dispatched
// before it returns, and the first error one returns is reported in
// SealErr. A candidate that cannot be included is reported in its
// outcome, so producing a block as such never fails.
func (c *Chain) ProduceBlock(txs []Transaction) Produced {
	p, _ := c.applyBlock(nil, txs) // only a sealed header can be refused
	return p
}

// ImportBlock validates a sealed block against the local head and applies
// its body through the routine that produced it — the follower half of a
// replicated network, and what WAL replay feeds every logged block through
// — arriving at the identical receipts, state root and block hash. A header
// that does not extend the head or list the body, whose Fold is not what
// the body's proof check validates (ErrBadBody), a proof that does not
// verify or a transaction that does not execute (ErrImportFailed), or a
// final hash that differs from the header (ErrStateMismatch) each roll
// every mutation back; the caller can then treat the block, and the peer
// that served it, as invalid.
func (c *Chain) ImportBlock(b Block, txs []Transaction) ([]*Receipt, error) {
	p, err := c.applyBlock(&b, txs)
	if err != nil {
		return nil, err
	}
	receipts := make([]*Receipt, len(p.Outcomes))
	for i := range p.Outcomes {
		receipts[i] = p.Outcomes[i].Receipt
	}
	return receipts, nil
}

// applyBlock is the one routine that turns a body into the next block. hdr
// is nil for a producer (a candidate that cannot be included is left out
// and reported) and the sealed header for an importer (it fails the block).
// The rest is shared: the proof check runs over the body with mu released,
// the body executes in order against that check's table (c.marks), and what
// executed is sealed. A producer that leaves a candidate out re-runs the
// check without it, so the table is the check of exactly the sealed body —
// what an importer recomputes and compares with the header's Fold.
func (c *Chain) applyBlock(hdr *Block, txs []Transaction) (Produced, error) {
	c.sealMu.Lock()
	defer c.sealMu.Unlock()

	c.mu.Lock()
	head := c.blocks[len(c.blocks)-1]
	verifier := c.verifier
	c.mu.Unlock()
	if hdr != nil {
		if err := checkHeader(hdr, txs, head); err != nil {
			return Produced{}, err
		}
	}

	p := Produced{Outcomes: make([]TxOutcome, len(txs))}
	body, at := txs, make([]int, len(txs)) // candidates still in the running,
	for i := range at {                    // and where each sits in txs
		at[i] = i
	}
	// drop takes the members errOf flags out of the body (into a fresh
	// slice: txs is the caller's); for an importer the first one fails the
	// block.
	drop := func(errOf func(k int) error) (dropped int, err error) {
		for k := range body {
			e := errOf(k)
			if e == nil {
				continue
			}
			if hdr != nil {
				return 0, fmt.Errorf("%w: tx %d: %w", ErrImportFailed, at[k], e)
			}
			p.Outcomes[at[k]].Err = e
			dropped++
		}
		if dropped == 0 {
			return 0, nil
		}
		keptTx, keptAt := make([]Transaction, 0, len(body)-dropped), make([]int, 0, len(body)-dropped)
		for k := range body {
			if errOf(k) == nil {
				keptTx, keptAt = append(keptTx, body[k]), append(keptAt, at[k])
			}
		}
		body, at = keptTx, keptAt
		return dropped, nil
	}

	// An importer applies its body whatever it holds; a producer seals while
	// candidates are left, and an empty block when it was given none.
	for hdr != nil || len(body) > 0 || len(txs) == 0 {
		var marks ProofMarks
		if verifier != nil {
			ptrs := make([]*Transaction, len(body))
			for k := range body {
				ptrs[k] = &body[k]
			}
			var errs []error
			//lint:ignore detreplay the start of a duration kept only for metrics (Produced.FoldTime); it reaches no state, receipt or header
			start := time.Now()
			marks, errs = verifier.CheckBlock(ptrs)
			p.FoldTime += time.Since(start)
			evicted, err := drop(func(k int) error { return errs[k] })
			if err != nil {
				return Produced{}, err
			}
			p.ProofsEvicted += evicted
			if evicted > 0 {
				continue
			}
		}
		if hdr != nil && uint32(marks.Items) != hdr.Fold {
			return Produced{}, fmt.Errorf("%w: header records a fold of %d, the body's proof check validates %d",
				ErrBadBody, hdr.Fold, marks.Items)
		}
		b, receipts, outcomes, err := c.executeAndSeal(hdr, head, body, marks)
		if err != nil {
			return Produced{}, err
		}
		if _, err := drop(func(k int) error { return outcomes[k].Err }); err != nil {
			return Produced{}, err
		}
		if b.Number == 0 {
			continue // taken back: the table covered a candidate that is now out
		}
		for k, i := range at {
			p.Outcomes[i].Receipt = receipts[k]
		}
		p.Block, p.ProofsVerified = b, marks.Txs
		for _, fn := range c.sealHooks {
			if err := fn(b, receipts); err != nil && p.SealErr == nil {
				p.SealErr = err
			}
		}
		break
	}
	return p, nil
}

// executeAndSeal is applyBlock's step under the state lock: execute the
// body against the proof table, under one undo scope for the block, and seal
// what executed. A transaction that fails at the Go level reverts to its own
// mark and leaves no trace, so a producer with no table just seals the rest.
// An importer's body must execute in full, a producer's table must be the
// check of exactly the sealed body, and a body whose every transaction
// failed seals nothing: there a failure takes the block back — the zero
// Block is returned, and the outcomes say which transactions failed.
func (c *Chain) executeAndSeal(hdr *Block, head Block, body []Transaction, marks ProofMarks) (Block, []*Receipt, []TxOutcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Sized for the usual few slot writes per transaction, so the common
	// block journals without regrowing.
	c.jrnl = &journal{accounts: c.accounts, slots: make([]slotEntry, 0, 4*len(body))}
	c.marks = marks.Width
	outcomes := make([]TxOutcome, len(body))
	receipts := make([]*Receipt, 0, len(body))
	var sealed []Hash
	failed := false
	for i := range body {
		res := execTx(&liveTx{Chain: c, start: c.jrnl.mark()}, body[i])
		if res.goErr != nil {
			outcomes[i].Err, failed = res.goErr, true
			continue
		}
		c.commitTx(res.tx, res.hash, res.receipt)
		outcomes[i].Receipt = res.receipt
		sealed, receipts = append(sealed, res.hash), append(receipts, res.receipt)
	}
	c.marks = nil
	if failed && (hdr != nil || marks.Items > 0 || len(sealed) == 0) {
		c.abortBlockLocked(sealed)
		return Block{}, nil, outcomes, nil
	}
	b := Block{
		Number:    head.Number + 1,
		Parent:    head.hash(),
		TxHashes:  sealed,
		StateRoot: c.stateRootLocked(),
		Fold:      uint32(marks.Items),
	}
	if hdr != nil {
		b.Time = hdr.Time
	} else {
		b.Time = c.now()
	}
	if hdr != nil && b.hash() != hdr.hash() {
		c.abortBlockLocked(sealed)
		return Block{}, nil, nil, fmt.Errorf("%w: block %d", ErrStateMismatch, hdr.Number)
	}
	c.jrnl = nil
	c.blocks = append(c.blocks, b)
	return b, receipts, outcomes, nil
}

// checkHeader is an importer's admission check: a sealed header must extend
// the head and list exactly the body's transactions.
func checkHeader(hdr *Block, txs []Transaction, head Block) error {
	if hdr.Number != head.Number+1 {
		return fmt.Errorf("%w: block %d on head %d", ErrNotNextBlock, hdr.Number, head.Number)
	}
	if hdr.Parent != head.hash() {
		return fmt.Errorf("%w: block %d", ErrBadParent, hdr.Number)
	}
	if len(txs) != len(hdr.TxHashes) {
		return fmt.Errorf("%w: %d transactions, header lists %d", ErrBadBody, len(txs), len(hdr.TxHashes))
	}
	for i := range txs {
		if txs[i].hash() != hdr.TxHashes[i] {
			return fmt.Errorf("%w: transaction %d hash mismatch", ErrBadBody, i)
		}
	}
	return nil
}

// abortBlockLocked takes back a block executeAndSeal could not finish and
// closes its undo scope: the journal restores every slot and account the
// execution touched (dropping accounts it first created), and the
// transactions it committed — sealed — leave the receipt table and the body
// table. Cost is proportional to the block, not to the state. caller holds
// c.mu.
func (c *Chain) abortBlockLocked(sealed []Hash) {
	c.jrnl.revertTo(journalMark{})
	c.jrnl = nil
	for _, h := range sealed {
		delete(c.receipts, h)
		delete(c.txs, h)
	}
}

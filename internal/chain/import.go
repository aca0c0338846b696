package chain

import (
	"errors"
	"fmt"
)

// Errors returned by the block import path.
var (
	ErrNotNextBlock  = errors.New("chain: block does not extend the head")
	ErrBadParent     = errors.New("chain: block parent hash mismatch")
	ErrBadBody       = errors.New("chain: block body does not match header")
	ErrPendingTxs    = errors.New("chain: cannot import with locally executed unsealed transactions")
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

// abortImportLocked rolls a failed import back and closes its undo scope:
// the block's journal restores every slot and account the replay touched
// (dropping accounts it first created), and the transactions it committed — tracked in c.pending,
// which ImportBlock asserted empty beforehand — are taken out of the event
// index, the receipt table and the body table. Cost is proportional to the
// block, not to the state. caller holds c.mu.
func (c *Chain) abortImportLocked() {
	c.jrnl.revertTo(journalMark{})
	c.jrnl = nil
	for _, h := range c.pending {
		for _, ev := range c.receipts[h].Logs {
			k := eventKey(ev.Contract, ev.Name)
			if evs := c.eventIdx[k]; len(evs) > 1 {
				c.eventIdx[k] = evs[:len(evs)-1]
			} else {
				delete(c.eventIdx, k)
			}
		}
		delete(c.receipts, h)
		delete(c.txs, h)
	}
	c.pending = nil
}

// ImportBlock validates a remotely sealed block against the local head,
// replays its transactions through the same execution path Submit uses, and
// appends it — the follower half of a replicated network: the sealer runs
// SealBlock, every other node runs ImportBlock and arrives at the identical
// state root and block hash.
//
// The header is checked structurally first (extends the head, parent hash
// links, body matches the header's tx hashes). Replay failures — a
// transaction that does not execute (bad nonce, unknown contract) or a
// final block hash that differs from the header — roll every mutation back
// and return an error; the caller can then treat the block (and the peer
// that served it) as invalid. Like SealBlock, the OnSeal hooks are
// dispatched in height order before returning.
//
// Importing is refused while locally executed unsealed transactions are
// pending: a node acting as block producer must seal its own work first.
func (c *Chain) ImportBlock(b Block, txs []Transaction) ([]*Receipt, error) {
	c.sealMu.Lock()
	defer c.sealMu.Unlock()

	c.mu.Lock()
	head := c.blocks[len(c.blocks)-1]
	if b.Number != head.Number+1 {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: block %d on head %d", ErrNotNextBlock, b.Number, head.Number)
	}
	if b.Parent != head.hash() {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: block %d", ErrBadParent, b.Number)
	}
	if len(txs) != len(b.TxHashes) {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %d transactions, header lists %d", ErrBadBody, len(txs), len(b.TxHashes))
	}
	for i := range txs {
		if txs[i].hash() != b.TxHashes[i] {
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: transaction %d hash mismatch", ErrBadBody, i)
		}
	}
	if n := len(c.pending); n != 0 {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %d pending", ErrPendingTxs, n)
	}

	// Replay through the batch engine (serial when execWorkers is 1) —
	// identical outcomes to the Submit path by the engine's bit-identity
	// contract — under a block-scoped undo journal fed by both the serial
	// path and the overlay commit. A failed transaction aborts the import;
	// transactions the batch executed after it are rolled back with
	// everything else.
	c.jrnl = &journal{accounts: c.accounts}
	sealed, receipts, err := c.replayLocked(b, txs)
	if err != nil {
		c.abortImportLocked()
		c.mu.Unlock()
		return nil, err
	}
	c.jrnl = nil
	c.pending = nil
	c.blocks = append(c.blocks, sealed)
	hooks := c.sealHooks
	c.mu.Unlock()

	for _, fn := range hooks {
		fn(sealed, receipts)
	}
	return receipts, nil
}

// replayLocked executes an imported block's transactions on top of the head
// and checks the outcome against the header; on error the caller rolls the
// replay back. caller holds c.mu.
func (c *Chain) replayLocked(b Block, txs []Transaction) (Block, []*Receipt, error) {
	outcomes := c.submitBatchLocked(txs, c.execWorkers)
	receipts := make([]*Receipt, len(txs))
	for i := range outcomes {
		if err := outcomes[i].Err; err != nil {
			return Block{}, nil, fmt.Errorf("%w: tx %d: %v", ErrImportFailed, i, err)
		}
		receipts[i] = outcomes[i].Receipt
	}
	sealed := Block{
		Number:    b.Number,
		Parent:    b.Parent,
		Time:      b.Time,
		TxHashes:  c.pending,
		StateRoot: c.stateRootLocked(),
	}
	if sealed.hash() != b.hash() {
		return Block{}, nil, fmt.Errorf("%w: block %d", ErrStateMismatch, b.Number)
	}
	return sealed, receipts, nil
}

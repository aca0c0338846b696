package chain

// State export/restore — the chain half of the durable state engine. The
// snapshot layer (internal/snapshot) serializes a StateExport to disk with
// a checkpoint of the head block's state root; RestoreState re-verifies
// that root against freshly recomputed storage digests, so a snapshot that
// was corrupted, truncated, or tampered with can never be loaded as state.
//
// Contracts themselves are NOT exported: genesis deployment is
// deterministic (same contract suite, same verifying keys, same order), so
// a restoring node first re-runs its genesis function and then restores
// the exported state on top. That keeps Go contract objects out of the
// serialization surface entirely.

import (
	"errors"
	"fmt"
	"sort"
)

// Errors returned by the persistence API.
var (
	ErrStatePending  = errors.New("chain: cannot export state with unsealed pending transactions")
	ErrRestoreTarget = errors.New("chain: restore target must be a freshly deployed genesis chain")
	ErrStateRoot     = errors.New("chain: restored state root does not match the checkpointed header")
	ErrBadExport     = errors.New("chain: state export is internally inconsistent")
)

// AccountState is one account's exported balance and nonce.
type AccountState struct {
	Balance uint64
	Nonce   uint64
}

// BlockData pairs a sealed block's body with its receipts, aligned by
// transaction index.
type BlockData struct {
	Txs      []Transaction
	Receipts []*Receipt
}

// StateExport is a self-contained copy of everything a chain needs to come
// back after a restart: every header, the bodies and receipts of retained
// blocks (full-role nodes prune old ones), and the materialized state.
type StateExport struct {
	Blocks   []Block              // all headers, genesis through head
	Bodies   map[uint64]BlockData // block number → body + receipts (may be partial on pruned nodes)
	Accounts map[Address]AccountState
	Storages map[string]map[string][]byte // contract name → slots
}

// Height returns the exported head height.
func (e *StateExport) Height() uint64 { return e.Blocks[len(e.Blocks)-1].Number }

// StateRoot returns the exported head's checkpointed state root.
func (e *StateExport) StateRoot() Hash { return e.Blocks[len(e.Blocks)-1].StateRoot }

// ExportState deep-copies the chain's durable state at the current head.
// It refuses while executed-but-unsealed transactions are pending: their
// effects are in the state but not under any header's state root, so a
// snapshot taken now would not be self-verifying. The checkpoint scheduler
// calls this from an OnSeal hook, where the pending set has just been
// drained.
func (c *Chain) ExportState() (*StateExport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) != 0 {
		return nil, fmt.Errorf("%w: %d", ErrStatePending, len(c.pending))
	}
	exp := &StateExport{
		Blocks:   make([]Block, len(c.blocks)),
		Bodies:   make(map[uint64]BlockData, len(c.blocks)),
		Accounts: make(map[Address]AccountState, len(c.accounts)),
		Storages: make(map[string]map[string][]byte, len(c.storages)),
	}
	copy(exp.Blocks, c.blocks) // headers are immutable once sealed
	for _, b := range c.blocks {
		if len(b.TxHashes) == 0 {
			continue
		}
		bd := BlockData{
			Txs:      make([]Transaction, len(b.TxHashes)),
			Receipts: make([]*Receipt, len(b.TxHashes)),
		}
		complete := true
		for i, h := range b.TxHashes {
			tx, ok := c.txs[h]
			if !ok {
				complete = false // pruned body; snapshot omits the block
				break
			}
			bd.Txs[i] = tx
			bd.Receipts[i] = c.receipts[h] // receipts are immutable post-commit
		}
		if complete {
			exp.Bodies[b.Number] = bd
		}
	}
	for a, acc := range c.accounts {
		exp.Accounts[a] = AccountState{Balance: acc.balance, Nonce: acc.nonce}
	}
	for name, st := range c.storages {
		exp.Storages[name] = cloneSlots(st.data)
	}
	return exp, nil
}

// cloneSlots deep-copies a contract's slot map.
func cloneSlots(data map[string][]byte) map[string][]byte {
	cp := make(map[string][]byte, len(data))
	for k, v := range data {
		vc := make([]byte, len(v))
		copy(vc, v)
		cp[k] = vc
	}
	return cp
}

// RestoreState installs an exported state onto a freshly deployed genesis
// chain (contracts deployed, no blocks sealed, no transactions processed).
// The restore is self-verifying and atomic: headers must hash-link, bodies
// must match their headers' transaction hashes, and the state root
// recomputed over storages built aside must equal the export's
// checkpointed head root — all checked before anything is installed, so a
// failure leaves the chain at its pre-restore genesis and corrupt state is
// never half-loaded.
//
// Like SealBlock, every restored block is dispatched to the OnSeal hooks
// in height order (with its receipts where retained), so indexers attached
// before the restore rebuild their indexes consistently.
func (c *Chain) RestoreState(exp *StateExport) error {
	if err := validateExport(exp); err != nil {
		return err
	}
	c.sealMu.Lock()
	defer c.sealMu.Unlock()

	c.mu.Lock()
	if len(c.blocks) != 1 || len(c.pending) != 0 || len(c.txs) != 0 {
		height, pending, txs := len(c.blocks)-1, len(c.pending), len(c.txs)
		c.mu.Unlock()
		return fmt.Errorf("%w: height %d, %d pending, %d txs",
			ErrRestoreTarget, height, pending, txs)
	}
	// Iterate sorted so the reported offender is deterministic (detreplay:
	// an error that depends on map order diverges across replays).
	names := make([]string, 0, len(exp.Storages))
	for name := range exp.Storages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := c.storages[name]; !ok {
			c.mu.Unlock()
			return fmt.Errorf("%w: storage for undeployed contract %q", ErrBadExport, name)
		}
	}

	// Build the candidate storages aside — each commitment from scratch —
	// and verify their root before anything is installed, so a rejected
	// export leaves the chain untouched.
	cand := make(map[string]*Storage, len(c.storages))
	for name := range c.storages {
		cand[name] = newStorageFrom(cloneSlots(exp.Storages[name]))
	}
	if got, want := stateRootOf(cand), exp.StateRoot(); got != want {
		c.mu.Unlock()
		return fmt.Errorf("%w: recomputed %s, checkpoint %s", ErrStateRoot, got, want)
	}
	c.storages = cand
	for a := range c.accounts {
		delete(c.accounts, a)
	}
	for a, st := range exp.Accounts {
		c.accounts[a] = &account{balance: st.Balance, nonce: st.Nonce}
	}

	// Root verified: commit headers, bodies and receipts.
	c.blocks = make([]Block, len(exp.Blocks))
	copy(c.blocks, exp.Blocks)
	type dispatch struct {
		b        Block
		receipts []*Receipt
	}
	dispatches := make([]dispatch, 0, len(exp.Blocks)-1)
	for _, b := range exp.Blocks[1:] {
		bd, ok := exp.Bodies[b.Number]
		if !ok {
			dispatches = append(dispatches, dispatch{b: b}) // pruned body
			continue
		}
		for i, h := range b.TxHashes {
			c.txs[h] = bd.Txs[i]
			if r := bd.Receipts[i]; r != nil {
				c.receipts[h] = r
			}
		}
		dispatches = append(dispatches, dispatch{b: b, receipts: bd.Receipts})
	}
	hooks := c.sealHooks
	c.mu.Unlock()

	for _, d := range dispatches {
		for _, fn := range hooks {
			fn(d.b, d.receipts)
		}
	}
	return nil
}

// validateExport checks the export's internal structure without touching
// the chain: header links and body/header transaction-hash agreement.
func validateExport(exp *StateExport) error {
	if exp == nil || len(exp.Blocks) == 0 {
		return fmt.Errorf("%w: no blocks", ErrBadExport)
	}
	if exp.Blocks[0].Number != 0 {
		return fmt.Errorf("%w: first block is %d, not genesis", ErrBadExport, exp.Blocks[0].Number)
	}
	for i := 1; i < len(exp.Blocks); i++ {
		b := exp.Blocks[i]
		if b.Number != uint64(i) {
			return fmt.Errorf("%w: block %d carries number %d", ErrBadExport, i, b.Number)
		}
		if b.Parent != exp.Blocks[i-1].hash() {
			return fmt.Errorf("%w: block %d parent hash mismatch", ErrBadExport, i)
		}
	}
	// Validate bodies in ascending block order so the first error reported
	// is deterministic (detreplay: map-order-dependent errors diverge
	// across replays).
	nums := make([]uint64, 0, len(exp.Bodies))
	for n := range exp.Bodies {
		nums = append(nums, n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	for _, n := range nums {
		bd := exp.Bodies[n]
		if n == 0 || n >= uint64(len(exp.Blocks)) {
			return fmt.Errorf("%w: body for unknown block %d", ErrBadExport, n)
		}
		b := exp.Blocks[n]
		if len(bd.Txs) != len(b.TxHashes) || len(bd.Receipts) != len(b.TxHashes) {
			return fmt.Errorf("%w: block %d body/receipt count mismatch", ErrBadExport, n)
		}
		for i := range bd.Txs {
			if bd.Txs[i].hash() != b.TxHashes[i] {
				return fmt.Errorf("%w: block %d tx %d hash mismatch", ErrBadExport, n, i)
			}
			if bd.Receipts[i] != nil && bd.Receipts[i].TxHash != b.TxHashes[i] {
				return fmt.Errorf("%w: block %d receipt %d tx-hash mismatch", ErrBadExport, n, i)
			}
		}
	}
	return nil
}

// PruneBodies drops the bodies and receipts of every block strictly below
// the given height — the full-role storage policy: once a checkpoint
// covers a prefix of the chain, its bodies and receipts are redundant for
// recovery and are only kept by archive nodes. Headers are always
// retained (they are the hash-link spine sync and integrity checks walk).
// Returns the number of transactions whose bodies were dropped.
func (c *Chain) PruneBodies(below uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if below > uint64(len(c.blocks)) {
		below = uint64(len(c.blocks))
	}
	dropped := 0
	for _, b := range c.blocks[:below] {
		for _, h := range b.TxHashes {
			if _, ok := c.txs[h]; ok {
				delete(c.txs, h)
				delete(c.receipts, h)
				dropped++
			}
		}
	}
	return dropped
}

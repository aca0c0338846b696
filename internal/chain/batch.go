package chain

import (
	"github.com/zkdet/zkdet/internal/chain/exec"
	"github.com/zkdet/zkdet/internal/parallel"
)

// This file is the engine half of the parallel batch executor (see
// execview.go for the state views). Execution is two-phase:
//
//   - Phase 1 (speculation): transactions are partitioned into groups by
//     their statically declared read/write sets (exec.Schedule); each
//     group runs on one worker, its members in batch order against the
//     committed pre-batch state plus the group's own overlay. Phase 1
//     never mutates chain state.
//
//   - Phase 2 (commit): a single goroutine walks the batch in order. A
//     speculation whose captured reads match exactly what has committed
//     (exec.CommitLog) is applied as-is; anything else — an undeclared
//     cross-group conflict, a serial-only transaction, a dependent of a
//     re-executed transaction — is re-executed against live state, which
//     is always correct because it IS serial execution at that point.
//
// The commit order equals the batch order regardless of scheduling, so the
// resulting receipts, gas, event order, and state root are bit-identical
// to the retained serial path; the property tests in batch_test.go pin
// this over randomized workloads.

// TxOutcome is the result of one batch member: the receipt of a processed
// transaction, or the Go-level error of a malformed one (same contract as
// Submit — an Err outcome touched nothing).
type TxOutcome struct {
	Receipt *Receipt
	Err     error
}

// minParallelBatch is the batch size below which scheduling overhead
// cannot pay for itself and the serial path runs instead.
const minParallelBatch = 4

// SubmitBatch executes a batch of transactions as if submitted one by one
// through Submit, using up to workers goroutines for speculative
// execution. It returns one outcome per transaction, in order.
func (c *Chain) SubmitBatch(txs []Transaction, workers int) []TxOutcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.submitBatchLocked(txs, workers)
}

// submitBatchLocked is SubmitBatch's body; caller holds c.mu. With one
// worker (or a tiny batch) it is exactly the serial Submit loop — that
// path is the reference the property tests diff the parallel path against.
func (c *Chain) submitBatchLocked(txs []Transaction, workers int) []TxOutcome {
	out := make([]TxOutcome, len(txs))
	if workers <= 0 {
		workers = c.execWorkers
	}
	if workers <= 1 || len(txs) < minParallelBatch {
		for i := range txs {
			r, err := c.submitLocked(txs[i])
			out[i] = TxOutcome{Receipt: r, Err: err}
		}
		return out
	}

	sets := make([]*exec.RWSet, len(txs))
	for i := range txs {
		sets[i] = c.staticRWSetLocked(&txs[i])
	}
	groups := exec.Schedule(sets)
	blockNum := uint64(len(c.blocks))

	// Phase 1: speculate groups on the worker pool. effs is written at
	// disjoint indices and only read after the pool joins.
	effs := make([]*txEffects, len(txs))
	parallel.ExecuteWorkers(len(groups), workers, func(start, end int) {
		for g := start; g < end; g++ {
			c.speculateGroupLocked(groups[g], txs, sets, effs, blockNum)
		}
	})

	// Phase 2: validate and commit in batch order.
	clog := exec.NewCommitLog()
	for i := range txs {
		eff := effs[i]
		if eff != nil && clog.Valid(eff.reads) {
			c.execStats.AddCommitted()
		} else {
			if eff != nil {
				c.execStats.AddConflict()
			}
			clog.MarkReexecuted(i)
			eff = c.newTxView(nil, blockNum).run(txs[i])
			c.execStats.AddSerial()
		}
		c.applyEffectsLocked(eff)
		clog.Record(i, eff.writes)
		out[i] = TxOutcome{Receipt: eff.receipt, Err: eff.goErr}
	}
	return out
}

// speculateGroupLocked executes one scheduled group's members in batch
// order against the group overlay. Speculation stops at the first
// serial-only member: everything after it in the group would observe a
// hole where its effects belong and fail validation anyway. caller holds
// c.mu (the engine holds it across both phases; phase 1 only reads
// committed state, so concurrent group workers are safe).
func (c *Chain) speculateGroupLocked(members []int, txs []Transaction, sets []*exec.RWSet, effs []*txEffects, blockNum uint64) {
	grp := newGroupState()
	for _, i := range members {
		if sets[i] == nil || !sets[i].Speculate {
			return
		}
		eff := c.newTxView(grp, blockNum).run(txs[i])
		effs[i] = eff
		grp.merge(i, eff)
		c.execStats.AddSpeculated(1)
	}
}

// SetExecWorkers sets the worker count batch execution (SubmitBatch with
// workers <= 0, and block replay in ImportBlock) uses. The default of one
// keeps the serial path; the node wires its ExecWorkers config here.
func (c *Chain) SetExecWorkers(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 1 {
		n = 1
	}
	c.execWorkers = n
}

// ExecStats returns cumulative parallel-engine counters: transactions
// executed speculatively, speculations committed as-is, speculations
// discarded at validation, and commit-time serial executions.
func (c *Chain) ExecStats() (speculated, committed, conflicts, serial uint64) {
	return c.execStats.Snapshot()
}

package chain

// TxOutcome is the result of one batch member: the receipt of a processed
// transaction, or the Go-level error of a malformed one (same contract as
// Submit — an Err outcome touched nothing).
type TxOutcome struct {
	Receipt *Receipt
	Err     error
}

// SubmitBatch executes a batch of transactions as if submitted one by one
// through Submit, under one hold of the state lock, and returns one outcome
// per transaction, in order. The second parameter was the speculative
// engine's width; it is ignored, and retained only because benchmark/
// (probes.go) still passes it.
func (c *Chain) SubmitBatch(txs []Transaction, _ int) []TxOutcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.submitAllLocked(txs)
}

// submitAllLocked runs txs through submitLocked in order; caller holds c.mu.
func (c *Chain) submitAllLocked(txs []Transaction) []TxOutcome {
	out := make([]TxOutcome, len(txs))
	for i := range txs {
		out[i].Receipt, out[i].Err = c.submitLocked(txs[i])
	}
	return out
}

// ExecStats reports the removed speculative engine's counters — all zero,
// as they always were at width 1. Retained only because benchmark/
// (layers.go) still reads them.
func (c *Chain) ExecStats() (speculated, committed, conflicts, serial uint64) {
	return 0, 0, 0, 0
}

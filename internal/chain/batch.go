package chain

// TxOutcome is the result of one candidate of ProduceBlock: the receipt of
// a processed transaction, or the error that kept it out of the block (an
// Err outcome touched nothing).
type TxOutcome struct {
	Receipt *Receipt
	Err     error
}

// Submit executes one transaction as a block of its own.
// benchmark shim: item 1 deletes
func (c *Chain) Submit(tx Transaction) (*Receipt, error) {
	o := c.ProduceBlock([]Transaction{tx}).Outcomes[0]
	return o.Receipt, o.Err
}

// SubmitBatch executes txs as one block; the width is ignored.
// benchmark shim: item 1 deletes
func (c *Chain) SubmitBatch(txs []Transaction, _ int) []TxOutcome {
	return c.ProduceBlock(txs).Outcomes
}

// SealBlock seals an empty block.
// benchmark shim: item 1 deletes
func (c *Chain) SealBlock() Block { return c.ProduceBlock(nil).Block }

// ExecStats reports the removed speculative engine's counters, all zero.
// benchmark shim: item 1 deletes
func (c *Chain) ExecStats() (speculated, committed, conflicts, serial uint64) {
	return 0, 0, 0, 0
}

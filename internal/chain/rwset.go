package chain

import "github.com/zkdet/zkdet/internal/chain/exec"

// RWDecl is a contract's statically declared storage footprint for one
// call: the slot keys (of this contract's own storage) it may read and
// write. Declarations are scheduling hints, not promises — the engine
// validates every actual access at commit time — but a declaration that
// covers the real footprint lets independent calls speculate in parallel,
// while an undeclared access merely costs a serial re-execution.
type RWDecl struct {
	Reads  []string
	Writes []string
}

// RWDeclarer is optionally implemented by contracts that can predict a
// call's storage footprint from the call data alone. Returning ok == false
// (or not implementing the interface) makes the call serial-only: it
// executes exactly once, at commit time, in block order. Methods whose
// footprint is only known at run time (dynamic value transfers) return
// ok == false; so must any method with a side effect outside chain state,
// because a discarded speculation must not leave a trace. (Reading the
// block's proof table through CallContext.ProofFold is not one: the table
// is fixed before the batch starts.)
type RWDeclarer interface {
	DeclareRW(sender Address, method string, args []byte, value uint64) (RWDecl, bool)
}

// staticRWSetLocked computes a transaction's scheduling footprint; caller
// holds c.mu. Every transaction touches its sender's nonce; value moves
// touch the payer's balance absolutely and the payee's as a commutative
// delta; contract calls add the contract's declared slots, or disable
// speculation entirely when no declaration is available.
func (c *Chain) staticRWSetLocked(tx *Transaction) *exec.RWSet {
	s := &exec.RWSet{Speculate: true}
	nres := resNonce(tx.From)
	s.Reads = append(s.Reads, nres)
	s.Writes = append(s.Writes, nres)

	if tx.Contract == "" {
		bres := resBal(tx.From)
		s.Reads = append(s.Reads, bres)
		s.Writes = append(s.Writes, bres)
		s.Deltas = append(s.Deltas, resBal(tx.To))
		return s
	}

	ct, ok := c.contracts[tx.Contract]
	if !ok {
		// Unknown contract: a Go-level error, only the sender nonce is read.
		return s
	}
	if tx.Value > 0 {
		bres := resBal(tx.From)
		s.Reads = append(s.Reads, bres)
		s.Writes = append(s.Writes, bres)
		s.Deltas = append(s.Deltas, resBal(contractAddress(tx.Contract)))
	}
	d, ok := ct.(RWDeclarer)
	if !ok {
		s.Speculate = false
		return s
	}
	decl, ok := d.DeclareRW(tx.From, tx.Method, tx.Args, tx.Value)
	if !ok {
		s.Speculate = false
		return s
	}
	for _, k := range decl.Reads {
		s.Reads = append(s.Reads, resStore(tx.Contract, k))
	}
	for _, k := range decl.Writes {
		s.Writes = append(s.Writes, resStore(tx.Contract, k))
	}
	return s
}

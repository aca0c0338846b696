package contracts

import (
	"github.com/zkdet/zkdet/internal/chain"
)

// This file declares the static read/write footprints the parallel batch
// executor (chain.SubmitBatch) schedules on. Declarations are hints: an
// under-declared access is caught by commit-time validation and merely
// costs a serial re-execution, so each DeclareRW lists the slots the
// common path touches and keeps the parsing as forgiving as the method
// itself — a call that will revert before reaching storage may declare
// nothing.
//
// Methods whose value-transfer targets are only known at run time (escrow
// refund, auction bid) return ok == false (serial-only). So does
// everything that reaches a verifier — escrow settle here; Verifier and
// ConfidentialToken declare nothing at all, which means the same — by
// choice rather than need: what a verify call pays comes from the block's
// immutable proof table (CallContext.ProofFold), so a discarded
// speculation leaves no trace and a re-execution is charged exactly what
// the serial backend charges (TestProofFoldSurvivesReexecution). But a
// speculated verification that is not in the table is milliseconds of
// pairing work a conflict would throw away, and widening what speculates
// wants a measurement of its own.

// balanceKey mirrors DataNFT.adjustBalance's slot naming.
func balanceKey(a chain.Address) string { return "balance/" + string(a[:]) }

func declAddr(raw []byte) (chain.Address, bool) {
	var a chain.Address
	if len(raw) != len(a) {
		return a, false
	}
	copy(a[:], raw)
	return a, true
}

var _ chain.RWDeclarer = (*DataNFT)(nil)

// DeclareRW implements chain.RWDeclarer. Token ids parse straight out of
// the calldata; the one undeclarable footprint is the token/<id>/* slots
// of a mint, whose id comes from the nextId counter — but every minting
// method declares nextId read+write, so concurrent mints schedule into one
// group and their dynamic slots stay ordered anyway.
func (d *DataNFT) DeclareRW(sender chain.Address, method string, args []byte, value uint64) (chain.RWDecl, bool) {
	var decl chain.RWDecl
	rw := func(keys ...string) {
		decl.Reads = append(decl.Reads, keys...)
		decl.Writes = append(decl.Writes, keys...)
	}
	switch method {
	case "mint":
		rw("nextId", balanceKey(sender))
	case "transfer":
		p, err := DecodeArgs(args, 2)
		if err != nil {
			return chain.RWDecl{}, true
		}
		id, err := DecU64(p[0])
		if err != nil {
			return chain.RWDecl{}, true
		}
		rw(tokenKey(id, "owner"), balanceKey(sender))
		if to, ok := declAddr(p[1]); ok {
			rw(balanceKey(to))
		}
	case "transferFrom":
		p, err := DecodeArgs(args, 3)
		if err != nil {
			return chain.RWDecl{}, true
		}
		id, err := DecU64(p[0])
		if err != nil {
			return chain.RWDecl{}, true
		}
		rw(tokenKey(id, "operator"), tokenKey(id, "owner"))
		if from, ok := declAddr(p[1]); ok {
			rw(balanceKey(from))
		}
		if to, ok := declAddr(p[2]); ok {
			rw(balanceKey(to))
		}
	case "approve":
		p, err := DecodeArgs(args, 2)
		if err != nil {
			return chain.RWDecl{}, true
		}
		id, err := DecU64(p[0])
		if err != nil {
			return chain.RWDecl{}, true
		}
		decl.Reads = append(decl.Reads, tokenKey(id, "owner"))
		decl.Writes = append(decl.Writes, tokenKey(id, "operator"))
	case "burn":
		p, err := DecodeArgs(args, 1)
		if err != nil {
			return chain.RWDecl{}, true
		}
		id, err := DecU64(p[0])
		if err != nil {
			return chain.RWDecl{}, true
		}
		rw(tokenKey(id, "owner"), balanceKey(sender))
		decl.Writes = append(decl.Writes, tokenKey(id, "commit"))
	case "aggregate", "process":
		p, err := DecodeArgs(args, 3)
		if err != nil {
			return chain.RWDecl{}, true
		}
		prev, err := DecU64List(p[0])
		if err != nil {
			return chain.RWDecl{}, true
		}
		for _, pid := range prev {
			decl.Reads = append(decl.Reads, tokenKey(pid, "owner"))
		}
		rw("nextId", balanceKey(sender))
	case "duplicate":
		p, err := DecodeArgs(args, 3)
		if err != nil {
			return chain.RWDecl{}, true
		}
		prev, err := DecU64(p[0])
		if err != nil {
			return chain.RWDecl{}, true
		}
		decl.Reads = append(decl.Reads, tokenKey(prev, "owner"))
		rw("nextId", balanceKey(sender))
	case "partition":
		p, err := DecodeArgsVariadic(args)
		if err != nil || len(p) < 1 {
			return chain.RWDecl{}, true
		}
		prev, err := DecU64(p[0])
		if err != nil {
			return chain.RWDecl{}, true
		}
		decl.Reads = append(decl.Reads, tokenKey(prev, "owner"))
		rw("nextId", balanceKey(sender))
	case "ownerOf":
		p, err := DecodeArgs(args, 1)
		if err != nil {
			return chain.RWDecl{}, true
		}
		id, err := DecU64(p[0])
		if err != nil {
			return chain.RWDecl{}, true
		}
		decl.Reads = append(decl.Reads, tokenKey(id, "owner"))
	}
	return decl, true
}

var _ chain.RWDeclarer = (*Escrow)(nil)

// DeclareRW implements chain.RWDeclarer. open is fully declarable; settle
// reaches the verifier (kept serial-only, see the file comment) and refund
// transfers to a stored buyer address, so both are serial-only.
func (e *Escrow) DeclareRW(sender chain.Address, method string, args []byte, value uint64) (chain.RWDecl, bool) {
	switch method {
	case "open":
		p, err := DecodeArgs(args, 4)
		if err != nil {
			return chain.RWDecl{}, true
		}
		id, err := DecU64(p[0])
		if err != nil {
			return chain.RWDecl{}, true
		}
		return chain.RWDecl{
			Reads: []string{exKey(id, "status")},
			Writes: []string{
				exKey(id, "status"), exKey(id, "buyer"), exKey(id, "seller"),
				exKey(id, "hv"), exKey(id, "c"), exKey(id, "amount"), exKey(id, "deadline"),
			},
		}, true
	default: // settle, refund, unknown
		return chain.RWDecl{}, false
	}
}

var _ chain.RWDeclarer = (*ClockAuction)(nil)

// DeclareRW implements chain.RWDeclarer. create, cancel and price touch
// only the listing's own slots; bid moves the token and pays out through
// run-time-resolved transfers, so it is serial-only.
func (a *ClockAuction) DeclareRW(sender chain.Address, method string, args []byte, value uint64) (chain.RWDecl, bool) {
	listingSlots := func() (chain.RWDecl, bool) {
		p, err := DecodeArgsVariadic(args)
		if err != nil || len(p) < 1 {
			return chain.RWDecl{}, true
		}
		id, err := DecU64(p[0])
		if err != nil {
			return chain.RWDecl{}, true
		}
		return chain.RWDecl{
			Reads:  []string{listKey(id, "seller"), listKey(id, "terms")},
			Writes: []string{listKey(id, "seller"), listKey(id, "terms")},
		}, true
	}
	switch method {
	case "create", "cancel":
		return listingSlots()
	case "price":
		d, ok := listingSlots()
		d.Writes = nil
		return d, ok
	default: // bid, unknown
		return chain.RWDecl{}, false
	}
}

package contracts

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/chain"
)

// EscrowName is the canonical deployment name of the arbiter contract.
const EscrowName = "zkdet-escrow"

// EscrowCodeSize approximates the contract's code size for deployment gas.
const EscrowCodeSize = 2200

// Escrow is the arbiter 𝒥 of the key-secure exchange protocol (§IV-F) with
// native value as the payment: the exchange machine (exchange) over a
// locked msg.value, forwarded to the seller if and only if π_k verifies.
//
// Methods:
//
//	open(exchangeId, seller, hv, c)      (buyer; locks msg.value)
//	settle(exchangeId, kc, verifyArgs…)  (seller; pays out on valid π_k)
//	refund(exchangeId)                   (buyer; after the deadline)
type Escrow struct {
	exchange
}

var _ chain.Contract = (*Escrow)(nil)

// NewEscrow creates the arbiter bound to a verifier deployment.
func NewEscrow(verifierName string, timeoutBlocks uint64) *Escrow {
	return &Escrow{exchange{space: escrowSpace, verifierName: verifierName, timeoutBlocks: timeoutBlocks, pay: nativeValue{}}}
}

// Call dispatches a method invocation.
func (e *Escrow) Call(ctx *chain.CallContext, method string, args []byte) ([]byte, error) {
	switch method {
	case "open":
		p, err := DecodeArgs(args, 4)
		if err != nil {
			return nil, err
		}
		id, err := DecU64(p[0])
		if err != nil {
			return nil, err
		}
		return nil, e.open(ctx, id, p[1], p[2], p[3], lockTerms{})
	case "settle":
		return nil, e.settle(ctx, args)
	case "refund":
		return nil, e.refund(ctx, args)
	default:
		return nil, fmt.Errorf("contracts: escrow has no method %q", method)
	}
}

// nativeValue is the escrow's payment: the opening call's value, held by
// the contract and moved with ctx.Transfer.
type nativeValue struct{}

func (nativeValue) lock(ctx *chain.CallContext, x *exchange, id uint64, _ lockTerms) ([][]byte, error) {
	if err := ctx.Store.Set(x.key(id, "amount"), U64(ctx.Value)); err != nil {
		return nil, err
	}
	return [][]byte{U64(ctx.Value)}, nil
}

func (nativeValue) settle(ctx *chain.CallContext, x *exchange, id uint64, seller chain.Address) ([][]byte, error) {
	amount, err := x.getU64(ctx, id, "amount")
	if err != nil {
		return nil, err
	}
	return nil, ctx.Transfer(seller, amount)
}

func (nativeValue) refund(ctx *chain.CallContext, x *exchange, id uint64, buyer chain.Address) ([][]byte, error) {
	amount, err := x.getU64(ctx, id, "amount")
	if err != nil {
		return nil, err
	}
	if err := ctx.Transfer(buyer, amount); err != nil {
		return nil, err
	}
	return [][]byte{U64(amount)}, nil
}

package contracts

import (
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/chain"
)

// Exchange errors, shared by every contract that carries the exchange
// machine.
var (
	ErrExchangeExists     = errors.New("contracts: exchange id already open")
	ErrUnknownExchange    = errors.New("contracts: unknown exchange")
	ErrExchangeSettled    = errors.New("contracts: exchange already settled")
	ErrExchangeNotSettled = errors.New("contracts: exchange not settled")
	ErrNotBuyer           = errors.New("contracts: caller is not the buyer")
	ErrNotSeller          = errors.New("contracts: caller is not the seller")
	ErrDeadlineNotReached = errors.New("contracts: refund before deadline")
	ErrDeadlinePassed     = errors.New("contracts: exchange expired")
)

// exchange status values.
const (
	statusOpen     byte = 1
	statusSettled  byte = 2
	statusRefunded byte = 3
)

// The storage namespaces of the two contracts that carry the machine: an
// exchange's slots live under <space>/<id>/<field>.
const (
	escrowSpace = "ex"
	ctSpace     = "ctex"
)

func exchangeKey(space string, id uint64, field string) string {
	return fmt.Sprintf("%s/%d/%s", space, id, field)
}

// exchange is the arbiter 𝒥 of the key-secure exchange protocol (§IV-F),
// written once for every contract that carries it. The buyer opens an
// exchange against (h_v, c_k) with a locked payment; in the key negotiation
// phase the seller settles it with π_k — the statement
//
//	Open(k, c, o) = 1 ∧ h_v = H(k_v) ∧ k_c = k + k_v
//
// verified on-chain through the verifier contract — and the payment is
// released if and only if the proof holds; after the deadline an unsettled
// exchange refunds the buyer. The key k itself never reaches the chain: only
// the blinded k_c = k + k_v is published, which is useless without the
// buyer's secret k_v (this is the paper's fix to ZKCP's key-disclosure flaw).
//
// The payment is the only part that differs between contracts (payment).
// Storage keys and revert texts are each contract's own; the events are the
// machine's, one layout for both payments:
//
//	Opened   (id, seller, h_v, c, payment part…)
//	Settled  (id, k_c, payment part…)
//	Refunded (id, payment part…)
type exchange struct {
	space         string // storage namespace (escrowSpace, ctSpace)
	verifierName  string // the deployed π_k verifier
	timeoutBlocks uint64 // the refund deadline, in blocks after the open
	pay           payment
}

// payment is what an exchange locks and releases: native value moved with
// ctx.Transfer (nativeValue), or a confidential note locked and re-owned
// (lockedNote). Each hook returns its payment's part of the event the
// machine emits for its step.
type payment interface {
	// lock takes the buyer's payment into custody. It runs after the open
	// checks and before the machine writes anything, so a refused payment
	// reverts where it always has.
	lock(ctx *chain.CallContext, x *exchange, id uint64, terms lockTerms) ([][]byte, error)
	// settle releases the payment to the seller.
	settle(ctx *chain.CallContext, x *exchange, id uint64, seller chain.Address) ([][]byte, error)
	// refund returns the payment to the buyer.
	refund(ctx *chain.CallContext, x *exchange, id uint64, buyer chain.Address) ([][]byte, error)
}

// emitExchange logs one of the machine's events: the exchange id, as the
// topic and the first field, then the fields.
func emitExchange(ctx *chain.CallContext, name string, id uint64, fields ...[]byte) error {
	return ctx.EmitIndexed(name, U64(id), EncodeArgs(append([][]byte{U64(id)}, fields...)...))
}

// lockTerms are the payment arguments of an opening call beyond its value:
// the note a confidential buyer locks and the data token it pays for.
type lockTerms struct {
	note, token uint64
}

func (x *exchange) key(id uint64, field string) string { return exchangeKey(x.space, id, field) }

func (x *exchange) getU64(ctx *chain.CallContext, id uint64, field string) (uint64, error) {
	raw, err := ctx.Store.Get(x.key(id, field))
	if err != nil {
		return 0, err
	}
	v, _ := DecU64(raw)
	return v, nil
}

// open records a new exchange with the caller as buyer.
func (x *exchange) open(ctx *chain.CallContext, id uint64, seller, hv, c []byte, terms lockTerms) error {
	if exists, err := ctx.Store.Has(x.key(id, "status")); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("%w: %d", ErrExchangeExists, id)
	}
	if len(seller) != 20 {
		return fmt.Errorf("%w: bad seller address", ErrBadArgs)
	}
	part, err := x.pay.lock(ctx, x, id, terms)
	if err != nil {
		return err
	}
	for _, slot := range []struct {
		field string
		value []byte
	}{
		{"status", []byte{statusOpen}},
		{"buyer", ctx.Sender[:]},
		{"seller", seller},
		{"hv", hv},
		{"c", c},
		{"deadline", U64(ctx.BlockNumber() + x.timeoutBlocks)},
	} {
		if err := ctx.Store.Set(x.key(id, slot.field), slot.value); err != nil {
			return err
		}
	}
	return emitExchange(ctx, "Opened", id, append([][]byte{seller, hv, c}, part...)...)
}

// pending loads an open exchange for a step only the stored party (seller
// or buyer) may take, refusing any other caller with errNotParty, and
// reports whether the exchange's deadline has passed.
func (x *exchange) pending(ctx *chain.CallContext, id uint64, party string, errNotParty error) (expired bool, err error) {
	status, err := ctx.Store.Get(x.key(id, "status"))
	if err != nil {
		return false, err
	}
	if len(status) == 0 {
		return false, fmt.Errorf("%w: %d", ErrUnknownExchange, id)
	}
	if status[0] != statusOpen {
		return false, fmt.Errorf("%w: %d", ErrExchangeSettled, id)
	}
	stored, err := ctx.Store.Get(x.key(id, party))
	if err != nil {
		return false, err
	}
	if ctx.Sender != chain.Address([20]byte(stored)) {
		return false, fmt.Errorf("%w: %d", errNotParty, id)
	}
	deadline, err := x.getU64(ctx, id, "deadline")
	if err != nil {
		return false, err
	}
	return ctx.BlockNumber() > deadline, nil
}

// settle(id, kc, verifyParts…) completes an exchange: the seller's π_k is
// verified against the stored (c, h_v) and the payment is released.
func (x *exchange) settle(ctx *chain.CallContext, args []byte) error {
	p, err := DecodeArgsVariadic(args)
	if err != nil {
		return err
	}
	if len(p) < 3 {
		return fmt.Errorf("%w: settle wants id, kc, proof…", ErrBadArgs)
	}
	id, err := DecU64(p[0])
	if err != nil {
		return err
	}
	kc, verifyParts := p[1], p[2:]
	expired, err := x.pending(ctx, id, "seller", ErrNotSeller)
	if err != nil {
		return err
	}
	if expired {
		return fmt.Errorf("%w: %d", ErrDeadlinePassed, id)
	}

	// The π_k statement binds (k_c, c, h_v): recheck that the public inputs
	// the seller supplied are the stored ones — on Ethereum the contract
	// would assemble calldata itself; here we compare.
	hv, err := ctx.Store.Get(x.key(id, "hv"))
	if err != nil {
		return err
	}
	c, err := ctx.Store.Get(x.key(id, "c"))
	if err != nil {
		return err
	}
	if len(verifyParts) != 4 { // proof, kc, c, hv as public inputs
		return fmt.Errorf("%w: settle proof wants (proof, kc, c, hv)", ErrBadArgs)
	}
	if string(verifyParts[1]) != string(kc) ||
		string(verifyParts[2]) != string(c) ||
		string(verifyParts[3]) != string(hv) {
		return fmt.Errorf("%w: public inputs do not match exchange state", ErrBadArgs)
	}
	if _, err := ctx.CallContract(x.verifierName, "verify", EncodeArgs(verifyParts...)); err != nil {
		return fmt.Errorf("contracts: π_k verification: %w", err)
	}

	if err := ctx.Store.Set(x.key(id, "status"), []byte{statusSettled}); err != nil {
		return err
	}
	if err := ctx.Store.Set(x.key(id, "kc"), kc); err != nil {
		return err
	}
	// The buyer reads k_c from this event (or ReadSettledKc) and derives
	// k = k_c - k_v.
	part, err := x.pay.settle(ctx, x, id, ctx.Sender)
	if err != nil {
		return err
	}
	return emitExchange(ctx, "Settled", id, append([][]byte{kc}, part...)...)
}

// refund(id) returns the payment of an exchange still open after its
// deadline to the buyer.
func (x *exchange) refund(ctx *chain.CallContext, args []byte) error {
	p, err := DecodeArgs(args, 1)
	if err != nil {
		return err
	}
	id, err := DecU64(p[0])
	if err != nil {
		return err
	}
	expired, err := x.pending(ctx, id, "buyer", ErrNotBuyer)
	if err != nil {
		return err
	}
	if !expired {
		return fmt.Errorf("%w: %d", ErrDeadlineNotReached, id)
	}
	if err := ctx.Store.Set(x.key(id, "status"), []byte{statusRefunded}); err != nil {
		return err
	}
	part, err := x.pay.refund(ctx, x, id, ctx.Sender)
	if err != nil {
		return err
	}
	return emitExchange(ctx, "Refunded", id, part...)
}

// ReadSettledKc returns the blinded key k_c published by a settled exchange
// on either contract that carries the exchange machine (off-chain view used
// by the buyer). Each contract keeps its exchanges in its own storage
// namespace, so the one that holds exchange id is the one to read.
func ReadSettledKc(c *chain.Chain, contractName string, id uint64) ([]byte, error) {
	for _, space := range []string{escrowSpace, ctSpace} {
		status := c.ReadStorage(contractName, exchangeKey(space, id, "status"))
		if len(status) == 0 {
			continue
		}
		if status[0] != statusSettled {
			return nil, fmt.Errorf("%w: %d", ErrExchangeNotSettled, id)
		}
		return c.ReadStorage(contractName, exchangeKey(space, id, "kc")), nil
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownExchange, id)
}

package chain

import (
	"errors"
	"testing"
)

func TestPlainValueTransfer(t *testing.T) {
	c, alice := newTestChain(t)
	bob := AddressFromString("bob")

	r, err := produce(c, Transaction{From: alice, To: bob, Value: 250, Nonce: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := c.BalanceOf(bob); got != 250 {
		t.Fatalf("bob balance %d, want 250", got)
	}
	if got := c.BalanceOf(alice); got != 1_000_000-250 {
		t.Fatalf("alice balance %d", got)
	}
	if got := c.NonceOf(alice); got != 1 {
		t.Fatalf("alice nonce %d, want 1", got)
	}
}

func TestPlainValueTransferRejectsZeroRecipient(t *testing.T) {
	c, alice := newTestChain(t)
	_, err := produce(c, Transaction{From: alice, Value: 10, Nonce: 0})
	if !errors.Is(err, ErrNoRecipient) {
		t.Fatalf("got %v, want ErrNoRecipient", err)
	}
	// A rejected transfer must not consume the nonce or move funds.
	if got := c.NonceOf(alice); got != 0 {
		t.Fatalf("nonce advanced to %d on rejected transfer", got)
	}
	if got := c.BalanceOf(alice); got != 1_000_000 {
		t.Fatalf("alice balance %d", got)
	}
}

func TestPlainValueTransferInsufficientFunds(t *testing.T) {
	c, alice := newTestChain(t)
	bob := AddressFromString("bob")
	_, err := produce(c, Transaction{From: alice, To: bob, Value: 2_000_000, Nonce: 0})
	if !errors.Is(err, ErrInsufficientFund) {
		t.Fatalf("got %v, want ErrInsufficientFund", err)
	}
	if got := c.NonceOf(alice); got != 0 {
		t.Fatalf("nonce advanced to %d on failed transfer", got)
	}
}

func TestTransactionHashBindsRecipient(t *testing.T) {
	alice, bob := AddressFromString("alice"), AddressFromString("bob")
	a := Transaction{From: alice, To: bob, Value: 1, Nonce: 0}
	b := Transaction{From: alice, To: alice, Value: 1, Nonce: 0}
	if a.Hash() == b.Hash() {
		t.Fatal("transaction hash ignores the recipient")
	}
}

func TestSealHooksDeliverBlocksInOrder(t *testing.T) {
	c, alice := newTestChain(t)
	deployCounter(t, c, alice)

	var gotBlocks []uint64
	var gotReceipts int
	c.OnSeal(func(b Block, rs []*Receipt) error {
		gotBlocks = append(gotBlocks, b.Number)
		gotReceipts += len(rs)
		for _, r := range rs {
			if r == nil {
				t.Error("nil receipt in seal hook")
			}
		}
		return nil
	})

	inc := func(n uint64) Transaction {
		return Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: n}
	}
	for _, body := range [][]Transaction{{inc(0), inc(1)}, {inc(2), inc(3)}, {inc(4)}} {
		mustProduce(t, c, body...)
	}

	if len(gotBlocks) != 3 {
		t.Fatalf("hook saw %d blocks, want 3", len(gotBlocks))
	}
	for i, n := range gotBlocks {
		if n != uint64(i+1) {
			t.Fatalf("hook block order %v", gotBlocks)
		}
	}
	if gotReceipts != 5 {
		t.Fatalf("hook saw %d receipts, want 5", gotReceipts)
	}
}

// emitter logs one indexed event per call, with the topic taken from args.
type emitter struct{}

func (emitter) Call(ctx *CallContext, method string, args []byte) ([]byte, error) {
	return nil, ctx.EmitIndexed("Ping", args, []byte("payload"))
}

func TestEmitIndexedTopicAndGas(t *testing.T) {
	c, alice := newTestChain(t)
	if _, err := c.Deploy("emitter", emitter{}, 100); err != nil {
		t.Fatal(err)
	}
	r, err := produce(c, Transaction{From: alice, Contract: "emitter", Method: "e", Args: []byte{0xAB}, Nonce: 0})
	if err != nil || r.Err != nil {
		t.Fatal(err, r.Err)
	}
	evs := r.Logs
	if len(evs) != 1 || len(evs[0].Topic) != 1 || evs[0].Topic[0] != 0xAB {
		t.Fatalf("indexed topic not recorded: %+v", evs)
	}
	// An indexed emit charges one extra topic over a plain emit.
	r2, err := produce(c, Transaction{From: alice, Contract: "emitter", Method: "e", Args: nil, Nonce: 1})
	if err != nil || r2.Err != nil {
		t.Fatal(err, r2.Err)
	}
	if diff := r.GasUsed - r2.GasUsed; diff != GasLogTopic+GasCalldataByte {
		t.Fatalf("indexed-topic gas delta %d, want %d", diff, GasLogTopic+GasCalldataByte)
	}
}

// eventsByName returns every event with the given name a contract emitted,
// read from the receipts of every sealed block, in commit order.
func (c *Chain) eventsByName(contract, name string) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, b := range c.blocks {
		for _, h := range b.TxHashes {
			r, ok := c.receipts[h]
			if !ok {
				continue
			}
			for _, ev := range r.Logs {
				if ev.Contract == contract && ev.Name == name {
					out = append(out, ev)
				}
			}
		}
	}
	return out
}

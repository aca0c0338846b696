package chain

import (
	"errors"
	"fmt"
	"testing"
)

func TestPlainValueTransfer(t *testing.T) {
	c, alice := newTestChain(t)
	bob := AddressFromString("bob")

	r, err := c.Submit(Transaction{From: alice, To: bob, Value: 250, Nonce: 0})
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
	_, err := c.Submit(Transaction{From: alice, Value: 10, Nonce: 0})
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
	_, err := c.Submit(Transaction{From: alice, To: bob, Value: 2_000_000, Nonce: 0})
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
	c.OnSeal(func(b Block, rs []*Receipt) {
		gotBlocks = append(gotBlocks, b.Number)
		gotReceipts += len(rs)
		for _, r := range rs {
			if r == nil {
				t.Error("nil receipt in seal hook")
			}
		}
	})

	for i := 0; i < 5; i++ {
		if _, err := c.Submit(Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			c.SealBlock()
		}
	}
	c.SealBlock()

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

func TestEventsByNameIndexMatchesScan(t *testing.T) {
	c, alice := newTestChain(t)
	deployCounter(t, c, alice)
	for i := 0; i < 20; i++ {
		if _, err := c.Submit(Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if i%7 == 6 {
			c.SealBlock()
		}
	}
	idx := c.EventsByName("counter", "Incremented")
	scan := c.eventsByNameScan("counter", "Incremented")
	if len(idx) != len(scan) {
		t.Fatalf("index has %d events, scan %d", len(idx), len(scan))
	}
	for i := range idx {
		if string(idx[i].Data) != string(scan[i].Data) || idx[i].Name != scan[i].Name {
			t.Fatalf("event %d differs between index and scan", i)
		}
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
	r, err := c.Submit(Transaction{From: alice, Contract: "emitter", Method: "e", Args: []byte{0xAB}, Nonce: 0})
	if err != nil || r.Err != nil {
		t.Fatal(err, r.Err)
	}
	evs := c.EventsByName("emitter", "Ping")
	if len(evs) != 1 || len(evs[0].Topic) != 1 || evs[0].Topic[0] != 0xAB {
		t.Fatalf("indexed topic not recorded: %+v", evs)
	}
	// An indexed emit charges one extra topic over a plain emit.
	r2, err := c.Submit(Transaction{From: alice, Contract: "emitter", Method: "e", Args: nil, Nonce: 1})
	if err != nil || r2.Err != nil {
		t.Fatal(err, r2.Err)
	}
	if diff := r.GasUsed - r2.GasUsed; diff != GasLogTopic+GasCalldataByte {
		t.Fatalf("indexed-topic gas delta %d, want %d", diff, GasLogTopic+GasCalldataByte)
	}
}

// benchChain builds a chain with n executed counter transactions (sealed in
// blocks of 100) so scan cost is proportional to total receipts.
func benchChain(b *testing.B, n int) *Chain {
	b.Helper()
	c := New()
	alice := AddressFromString("alice")
	c.Faucet(alice, 1<<40)
	if _, err := c.Deploy("counter", &counter{beneficiary: alice}, 1000); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Deploy("quiet", &counter{beneficiary: alice}, 1000); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// 1 in 100 transactions emits on the contract being queried; the
		// rest are noise the scan still has to walk.
		contract := "quiet"
		if i%100 == 0 {
			contract = "counter"
		}
		if _, err := c.Submit(Transaction{From: alice, Contract: contract, Method: "inc", Nonce: uint64(i)}); err != nil {
			b.Fatal(err)
		}
		if i%100 == 99 {
			c.SealBlock()
		}
	}
	c.SealBlock()
	return c
}

// BenchmarkEventsByName compares the legacy O(total-receipts) scan against
// the incremental inverted index at 10k+ transactions; see EXPERIMENTS.md.
func BenchmarkEventsByName(b *testing.B) {
	for _, n := range []int{10_000, 50_000} {
		c := benchChain(b, n)
		want := len(c.eventsByNameScan("counter", "Incremented"))
		b.Run(fmt.Sprintf("scan/txs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := c.eventsByNameScan("counter", "Incremented"); len(got) != want {
					b.Fatalf("scan found %d events, want %d", len(got), want)
				}
			}
		})
		b.Run(fmt.Sprintf("indexed/txs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := c.EventsByName("counter", "Incremented"); len(got) != want {
					b.Fatalf("index found %d events, want %d", len(got), want)
				}
			}
		})
	}
}

// eventsByNameScan is the pre-index implementation of EventsByName — an
// O(total receipts) walk over every block, then the pending set — kept
// here as the oracle the index is pinned against.
func (c *Chain) eventsByNameScan(contract, name string) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	appendFrom := func(h Hash) {
		r, ok := c.receipts[h]
		if !ok {
			return
		}
		for _, ev := range r.Logs {
			if ev.Contract == contract && ev.Name == name {
				out = append(out, ev)
			}
		}
	}
	for _, b := range c.blocks {
		for _, h := range b.TxHashes {
			appendFrom(h)
		}
	}
	for _, h := range c.pending {
		appendFrom(h)
	}
	return out
}

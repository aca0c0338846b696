package node

import (
	"errors"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
)

// sealerAndFollower builds a sealing chain and a follower node, not
// started, over identical genesis funding.
func sealerAndFollower(t *testing.T) (*chain.Chain, *Node, chain.Address, chain.Address) {
	t.Helper()
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	mk := func() *chain.Chain {
		c := chain.New()
		c.Faucet(alice, 1_000_000)
		c.Faucet(bob, 1_000_000)
		return c
	}
	return mk(), New(mk(), Config{}), alice, bob
}

// sealOne seals txs on the sealer and returns the block with its body.
func sealOne(t *testing.T, sealer *chain.Chain, txs ...chain.Transaction) (chain.Block, []chain.Transaction) {
	t.Helper()
	blk := sealer.ProduceBlock(txs).Block
	if blk.Number == 0 {
		t.Fatal("sealer had nothing to seal")
	}
	body, _ := sealer.BlockBody(blk.Number)
	return blk, body
}

func TestImportPurgesIncludedFromPool(t *testing.T) {
	sealer, follower, alice, bob := sealerAndFollower(t)

	// The same transaction is pooled on both nodes (as gossip would do),
	// with a waiter on the follower.
	tx := chain.Transaction{From: alice, To: bob, Value: 5, Nonce: 0}
	pooled, done, err := follower.SubmitForResult(tx, false)
	if err != nil {
		t.Fatal(err)
	}
	blk, txs := sealOne(t, sealer, pooled)
	if _, err := follower.ImportBlock(blk, txs); err != nil {
		t.Fatalf("import: %v", err)
	}

	// The follower's waiter got the remote inclusion, and the pool is
	// empty — the tx must not be sealed a second time.
	select {
	case res := <-done:
		if res.Err != nil || res.BlockNumber != blk.Number {
			t.Fatalf("waiter result: %+v", res)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not released by import")
	}
	if got := follower.Metrics()["node.poolSize"]; got != 0 {
		t.Fatalf("pool size after import: %v", got)
	}
	follower.Start()
	follower.Stop() // drains the pool into a final block, if anything is left
	if h := follower.Chain().Height(); h != blk.Number {
		t.Fatalf("follower at height %d after Stop, want %d: the imported transaction was re-sealed", h, blk.Number)
	}
	if got := follower.Metrics()["node.blocksImported"]; got != 1 {
		t.Fatalf("node.blocksImported = %v", got)
	}
}

func TestImportEvictsReplacedNonces(t *testing.T) {
	sealer, follower, alice, bob := sealerAndFollower(t)

	// The follower pools alice's nonce 0, but the sealer includes a
	// *different* nonce-0 transaction — the pooled one can never execute.
	stale := chain.Transaction{From: alice, To: bob, Value: 1, Nonce: 0}
	_, done, err := follower.SubmitForResult(stale, false)
	if err != nil {
		t.Fatal(err)
	}
	blk, txs := sealOne(t, sealer, chain.Transaction{From: alice, To: bob, Value: 99, Nonce: 0, GasLimit: chain.DefaultGasLimit})
	if _, err := follower.ImportBlock(blk, txs); err != nil {
		t.Fatalf("import: %v", err)
	}
	select {
	case res := <-done:
		if !errors.Is(res.Err, ErrReplaced) {
			t.Fatalf("stale tx result: %v, want ErrReplaced", res.Err)
		}
	case <-time.After(time.Second):
		t.Fatal("stale tx waiter not released")
	}
	if got := follower.Metrics()["node.poolSize"]; got != 0 {
		t.Fatalf("pool size after eviction: %v", got)
	}
}

func TestPendingSample(t *testing.T) {
	c := chain.New()
	alice := fund(c, "alice", 1000)
	n := New(c, Config{})
	for i := 0; i < 5; i++ {
		if _, err := n.Submit(chain.Transaction{From: alice, Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := n.PendingSample(3)
	if len(got) != 3 {
		t.Fatalf("sample size %d, want 3", len(got))
	}
	for i, tx := range got {
		if tx.Nonce != uint64(i) {
			t.Fatalf("sample[%d] nonce %d — not the executable run", i, tx.Nonce)
		}
		if tx.GasLimit == 0 {
			t.Fatal("sample returned un-normalized transaction")
		}
	}
	if got := n.PendingSample(100); len(got) != 5 {
		t.Fatalf("full sample size %d, want 5", len(got))
	}
}

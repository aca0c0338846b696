package node

import (
	"errors"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/chain"
)

// sealerAndFollower builds two externally driven nodes over identically
// funded chains.
func sealerAndFollower(t *testing.T) (*Node, *Node, chain.Address, chain.Address) {
	t.Helper()
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	mk := func() *Node {
		c := chain.New()
		c.Faucet(alice, 1_000_000)
		c.Faucet(bob, 1_000_000)
		return New(c, Config{})
	}
	return mk(), mk(), alice, bob
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
	if _, err := sealer.Submit(pooled); err != nil {
		t.Fatal(err)
	}

	blk, ok := sealer.SealNow()
	if !ok {
		t.Fatal("sealer had nothing to seal")
	}
	txs, _ := sealer.Chain().BlockBody(blk.Number)
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
	if _, ok := follower.SealNow(); ok {
		t.Fatal("imported transaction re-sealed")
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
	if _, err := sealer.Submit(chain.Transaction{From: alice, To: bob, Value: 99, Nonce: 0}); err != nil {
		t.Fatal(err)
	}
	blk, _ := sealer.SealNow()
	txs, _ := sealer.Chain().BlockBody(blk.Number)
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

package chain

import (
	"errors"
	"reflect"
	"testing"
)

// twoChains returns a sealer and a follower with identical genesis funding.
func twoChains(t *testing.T) (*Chain, *Chain, Address, Address) {
	t.Helper()
	alice := AddressFromString("alice")
	bob := AddressFromString("bob")
	a, b := New(), New()
	for _, c := range []*Chain{a, b} {
		c.Faucet(alice, 1_000_000)
		c.Faucet(bob, 1_000_000)
	}
	return a, b, alice, bob
}

// sealTransfers executes n transfers on the sealer and seals them.
func sealTransfers(t *testing.T, c *Chain, from, to Address, n int) (Block, []Transaction) {
	t.Helper()
	base := c.NonceOf(from)
	for i := 0; i < n; i++ {
		if _, err := c.Submit(Transaction{From: from, To: to, Value: 1, Nonce: base + uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	blk := c.SealBlock()
	txs, ok := c.BlockBody(blk.Number)
	if !ok {
		t.Fatal("sealed block has no body")
	}
	return blk, txs
}

func TestImportBlockReplay(t *testing.T) {
	a, b, alice, bob := twoChains(t)
	blk, txs := sealTransfers(t, a, alice, bob, 3)

	receipts, err := b.ImportBlock(blk, txs)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if len(receipts) != 3 {
		t.Fatalf("receipts: %d, want 3", len(receipts))
	}
	if b.HeadHash() != a.HeadHash() {
		t.Fatal("head hash diverged after import")
	}
	if b.Head().StateRoot != a.Head().StateRoot {
		t.Fatal("state root diverged after import")
	}
	if got := b.BalanceOf(bob); got != a.BalanceOf(bob) {
		t.Fatalf("balance diverged: %d vs %d", got, a.BalanceOf(bob))
	}
	// The follower can serve the imported body onward (sync relay).
	relay, ok := b.BlockBody(blk.Number)
	if !ok || len(relay) != len(txs) {
		t.Fatal("imported body not retrievable")
	}
}

func TestImportBlockStructuralChecks(t *testing.T) {
	a, b, alice, bob := twoChains(t)
	blk, txs := sealTransfers(t, a, alice, bob, 2)

	skip := blk
	skip.Number += 5
	if _, err := b.ImportBlock(skip, txs); !errors.Is(err, ErrNotNextBlock) {
		t.Fatalf("gap: %v, want ErrNotNextBlock", err)
	}

	badParent := blk
	badParent.Parent[0] ^= 0xff
	if _, err := b.ImportBlock(badParent, txs); !errors.Is(err, ErrBadParent) {
		t.Fatalf("parent: %v, want ErrBadParent", err)
	}

	if _, err := b.ImportBlock(blk, txs[:1]); !errors.Is(err, ErrBadBody) {
		t.Fatalf("short body: %v, want ErrBadBody", err)
	}

	swapped := append([]Transaction(nil), txs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := b.ImportBlock(blk, swapped); !errors.Is(err, ErrBadBody) {
		t.Fatalf("reordered body: %v, want ErrBadBody", err)
	}
}

func TestImportBlockRollsBackOnStateMismatch(t *testing.T) {
	a, b, alice, bob := twoChains(t)
	for _, c := range []*Chain{a, b} {
		if _, err := c.Deploy("pa", &ptest{}, 500); err != nil {
			t.Fatal(err)
		}
	}
	// Block 1 gives the follower receipts and slots to preserve;
	// block 2 — the one it will reject — overwrites a slot, adds events,
	// and pays carol, an account the follower has never seen.
	carol := AddressFromString("carol")
	seal := func(txs ...Transaction) (Block, []Transaction) {
		t.Helper()
		for _, tx := range txs {
			if _, err := a.Submit(tx); err != nil {
				t.Fatal(err)
			}
		}
		blk := a.SealBlock()
		body, _ := a.BlockBody(blk.Number)
		return blk, body
	}
	blk1, txs1 := seal(Transaction{From: alice, Contract: "pa", Method: "bump", Nonce: 0})
	if _, err := b.ImportBlock(blk1, txs1); err != nil {
		t.Fatal(err)
	}
	blk, txs := seal(
		Transaction{From: alice, Contract: "pa", Method: "bump", Nonce: 1},
		Transaction{From: alice, To: carol, Value: 7, Nonce: 2},
		Transaction{From: bob, Contract: "pa", Method: "bump", Nonce: 0},
		Transaction{From: bob, To: alice, Value: 1, Nonce: 1},
	)

	forged := blk
	forged.StateRoot[0] ^= 0xff
	before := imageOf(b)
	if _, err := b.ImportBlock(forged, txs); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("forged root: %v, want ErrStateMismatch", err)
	}
	after := imageOf(b)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("failed import leaked state:\nbefore %+v\nafter  %+v", before, after)
	}
	if _, seen := after.Accounts[carol]; seen {
		t.Fatal("account created by the rejected block survived the rollback")
	}
	// The rollback left the follower able to import the honest block.
	if _, err := b.ImportBlock(blk, txs); err != nil {
		t.Fatalf("honest import after rollback: %v", err)
	}
	if b.HeadHash() != a.HeadHash() {
		t.Fatal("heads diverged after recovery")
	}
	if b.BalanceOf(carol) != 7 {
		t.Fatal("honest import did not pay carol")
	}
}

func TestImportBlockRefusedWithPending(t *testing.T) {
	a, b, alice, bob := twoChains(t)
	blk, txs := sealTransfers(t, a, alice, bob, 1)

	// The follower has its own executed-but-unsealed transaction.
	if _, err := b.Submit(Transaction{From: bob, To: alice, Value: 1, Nonce: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ImportBlock(blk, txs); !errors.Is(err, ErrPendingTxs) {
		t.Fatalf("pending guard: %v, want ErrPendingTxs", err)
	}
	b.SealBlock()
	// Now the follower's chain forked (it sealed its own block 1); the
	// remote block 1 no longer links.
	if _, err := b.ImportBlock(blk, txs); !errors.Is(err, ErrNotNextBlock) && !errors.Is(err, ErrBadParent) {
		t.Fatalf("fork import: %v", err)
	}
}

func TestImportBlockDispatchesSealHooks(t *testing.T) {
	a, b, alice, bob := twoChains(t)
	blk, txs := sealTransfers(t, a, alice, bob, 2)

	var hooked []Block
	b.OnSeal(func(blk Block, _ []*Receipt) { hooked = append(hooked, blk) })
	if _, err := b.ImportBlock(blk, txs); err != nil {
		t.Fatal(err)
	}
	if len(hooked) != 1 || hooked[0].Hash() != blk.Hash() {
		t.Fatalf("seal hooks saw %d blocks", len(hooked))
	}
}

func TestHeadersRangeAndBodies(t *testing.T) {
	a, _, alice, bob := twoChains(t)
	for i := 0; i < 4; i++ {
		sealTransfers(t, a, alice, bob, 1)
	}
	hs := a.HeadersRange(1, 10)
	if len(hs) != 4 {
		t.Fatalf("headers: %d, want 4", len(hs))
	}
	for i, h := range hs {
		if h.Number != uint64(i+1) {
			t.Fatalf("header %d has number %d", i, h.Number)
		}
		if i > 0 && h.Parent != hs[i-1].Hash() {
			t.Fatalf("header %d does not link", i)
		}
	}
	if hs := a.HeadersRange(99, 5); hs != nil {
		t.Fatal("out-of-range request returned headers")
	}
	if _, ok := a.BlockBody(99); ok {
		t.Fatal("out-of-range body request succeeded")
	}
}

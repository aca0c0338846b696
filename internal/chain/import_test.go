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

// sealTransfers produces a block of n transfers on the sealer.
func sealTransfers(t *testing.T, c *Chain, from, to Address, n int) (Block, []Transaction) {
	t.Helper()
	base := c.NonceOf(from)
	body := make([]Transaction, n)
	for i := range body {
		body[i] = Transaction{From: from, To: to, Value: 1, Nonce: base + uint64(i)}
	}
	blk := mustProduce(t, c, body...)
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
		blk := mustProduce(t, a, txs...)
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

func TestImportBlockDispatchesSealHooks(t *testing.T) {
	a, b, alice, bob := twoChains(t)
	blk, txs := sealTransfers(t, a, alice, bob, 2)

	var hooked []Block
	b.OnSeal(func(blk Block, _ []*Receipt) error {
		hooked = append(hooked, blk)
		return nil
	})
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

// forgeAll is a block verifier that finds every candidate's proof forged.
type forgeAll struct{}

var errForged = errors.New("forged proof")

func (forgeAll) CheckBlock(txs []*Transaction) (ProofMarks, []error) {
	errs := make([]error, len(txs))
	for i := range errs {
		errs[i] = errForged
	}
	return ProofMarks{}, errs
}

// TestProduceBlockEmpty pins the empty cases of ProduceBlock: no candidates
// seal an empty block and fire the hooks (how a test advances height),
// while candidates that all fail to execute, or that the fold evicts to the
// last, seal nothing and leave no trace.
func TestProduceBlockEmpty(t *testing.T) {
	c, alice := newTestChain(t)
	var hooked []uint64
	c.OnSeal(func(b Block, _ []*Receipt) error {
		hooked = append(hooked, b.Number)
		return nil
	})

	p := c.ProduceBlock(nil)
	if p.Block.Number != 1 || len(p.Block.TxHashes) != 0 || len(p.Outcomes) != 0 {
		t.Fatalf("no candidates produced %+v", p)
	}
	if len(hooked) != 1 || hooked[0] != 1 || c.Height() != 1 {
		t.Fatalf("hooks saw %v at height %d", hooked, c.Height())
	}

	p = c.ProduceBlock([]Transaction{{From: alice, To: AddressFromString("bob"), Value: 1, Nonce: 7}})
	if p.Block.Number != 0 || !errors.Is(p.Outcomes[0].Err, ErrBadNonce) || len(hooked) != 1 || c.Height() != 1 {
		t.Fatalf("a refused candidate produced %+v, hooks %v, height %d", p, hooked, c.Height())
	}

	c.SetBlockVerifier(forgeAll{})
	p = c.ProduceBlock([]Transaction{{From: alice, To: AddressFromString("bob"), Value: 1, Nonce: 0}})
	if p.Block.Number != 0 || p.ProofsEvicted != 1 || !errors.Is(p.Outcomes[0].Err, errForged) {
		t.Fatalf("evicted candidates produced %+v", p)
	}
	if len(hooked) != 1 || c.Height() != 1 || c.NonceOf(alice) != 0 {
		t.Fatalf("an all-evicted block left a trace: hooks %v, height %d, nonce %d", hooked, c.Height(), c.NonceOf(alice))
	}
}

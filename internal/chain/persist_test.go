package chain

import (
	"errors"
	"reflect"
	"testing"
)

// buildPersistChain seals a few blocks of counter traffic (including a
// reverted tx) and returns the chain, the sender, and the sealed tx hashes.
func buildPersistChain(t *testing.T) (*Chain, Address, []Hash) {
	t.Helper()
	c, alice := newTestChain(t)
	deployCounter(t, c, AddressFromString("beneficiary"))
	var hashes []Hash
	nonce := uint64(0)
	submit := func(method string) {
		t.Helper()
		r, err := c.Submit(Transaction{From: alice, Contract: "counter", Method: method, Nonce: nonce})
		if err != nil {
			t.Fatalf("submit %s: %v", method, err)
		}
		nonce++
		hashes = append(hashes, r.TxHash)
	}
	for blk := 0; blk < 3; blk++ {
		submit("inc")
		submit("inc")
		if blk == 1 {
			submit("fail") // revert-carrying receipt must survive restore
		}
		c.SealBlock()
	}
	return c, alice, hashes
}

// freshGenesis returns a chain with the identical genesis deployment.
func freshGenesis(t *testing.T) *Chain {
	t.Helper()
	c := New()
	alice := AddressFromString("alice")
	c.Faucet(alice, 1_000_000)
	deployCounter(t, c, AddressFromString("beneficiary"))
	return c
}

func TestExportRestoreRoundTrip(t *testing.T) {
	src, alice, hashes := buildPersistChain(t)
	exp, err := src.ExportState()
	if err != nil {
		t.Fatalf("ExportState: %v", err)
	}

	dst := freshGenesis(t)
	var hookBlocks []uint64
	dst.OnSeal(func(b Block, _ []*Receipt) { hookBlocks = append(hookBlocks, b.Number) })
	if err := dst.RestoreState(exp); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}

	if got, want := dst.HeadHash(), src.HeadHash(); got != want {
		t.Fatalf("head hash %s != %s", got, want)
	}
	if got, want := dst.Head().StateRoot, src.Head().StateRoot; got != want {
		t.Fatalf("state root %s != %s", got, want)
	}
	if err := dst.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after restore: %v", err)
	}
	if got, want := dst.BalanceOf(alice), src.BalanceOf(alice); got != want {
		t.Fatalf("balance %d != %d", got, want)
	}
	if got, want := dst.NonceOf(alice), src.NonceOf(alice); got != want {
		t.Fatalf("nonce %d != %d", got, want)
	}
	for i, h := range hashes {
		rs, ok1 := src.Receipt(h)
		rd, ok2 := dst.Receipt(h)
		if !ok1 || !ok2 {
			t.Fatalf("receipt %d missing: src=%v dst=%v", i, ok1, ok2)
		}
		if rs.GasUsed != rd.GasUsed || !reflect.DeepEqual(rs.Logs, rd.Logs) || (rs.Err == nil) != (rd.Err == nil) {
			t.Fatalf("receipt %d differs after restore", i)
		}
	}
	// Hooks saw every restored block in height order.
	if len(hookBlocks) != 3 {
		t.Fatalf("hooks dispatched for %d blocks, want 3", len(hookBlocks))
	}
	for i, n := range hookBlocks {
		if n != uint64(i+1) {
			t.Fatalf("hook order: %v", hookBlocks)
		}
	}
	// The restored chain keeps working: same next nonce, can seal.
	if _, err := dst.Submit(Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: dst.NonceOf(alice)}); err != nil {
		t.Fatalf("submit after restore: %v", err)
	}
	b := dst.SealBlock()
	if b.Number != src.Height()+1 {
		t.Fatalf("sealed block %d, want %d", b.Number, src.Height()+1)
	}
}

func TestExportRefusesPending(t *testing.T) {
	c, alice := newTestChain(t)
	deployCounter(t, c, Address{})
	if _, err := c.Submit(Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExportState(); !errors.Is(err, ErrStatePending) {
		t.Fatalf("ExportState with pending = %v, want ErrStatePending", err)
	}
	c.SealBlock()
	if _, err := c.ExportState(); err != nil {
		t.Fatalf("ExportState after seal: %v", err)
	}
}

func TestRestoreRefusesNonGenesisTarget(t *testing.T) {
	src, _, _ := buildPersistChain(t)
	exp, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	dst := freshGenesis(t)
	dst.SealBlock() // no longer fresh
	if err := dst.RestoreState(exp); !errors.Is(err, ErrRestoreTarget) {
		t.Fatalf("RestoreState onto sealed chain = %v, want ErrRestoreTarget", err)
	}
}

func TestRestoreRejectsTamperedStateAtomically(t *testing.T) {
	src, alice, _ := buildPersistChain(t)
	exp, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with a storage slot: the recomputed root cannot match the
	// checkpointed header.
	for _, slots := range exp.Storages {
		for k, v := range slots {
			if len(v) > 0 {
				v[0] ^= 0xff
				slots[k] = v
				break
			}
		}
		break
	}
	dst := freshGenesis(t)
	before := imageOf(dst)
	if err := dst.RestoreState(exp); !errors.Is(err, ErrStateRoot) {
		t.Fatalf("RestoreState on tampered storage = %v, want ErrStateRoot", err)
	}
	// Atomicity: the candidate state was built aside, so the failed restore
	// touched no slot, account or index entry and left a working genesis
	// chain behind.
	if after := imageOf(dst); !reflect.DeepEqual(before, after) {
		t.Fatalf("failed restore leaked state:\nbefore %+v\nafter  %+v", before, after)
	}
	if h := dst.Height(); h != 0 {
		t.Fatalf("height after failed restore = %d, want 0", h)
	}
	if _, err := dst.Submit(Transaction{From: alice, Contract: "counter", Method: "inc", Nonce: 0}); err != nil {
		t.Fatalf("submit after failed restore: %v", err)
	}
	b := dst.SealBlock()
	if b.Number != 1 {
		t.Fatalf("sealed block %d after failed restore", b.Number)
	}
}

func TestRestoreRejectsBrokenHeaderChain(t *testing.T) {
	src, _, _ := buildPersistChain(t)
	exp, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	exp.Blocks[2].Parent[0] ^= 0xff
	if err := freshGenesis(t).RestoreState(exp); !errors.Is(err, ErrBadExport) {
		t.Fatalf("RestoreState on broken links = %v, want ErrBadExport", err)
	}
}

func TestPruneBodiesDropsOnlyOldBodies(t *testing.T) {
	c, _, hashes := buildPersistChain(t)
	height := c.Height()
	dropped := c.PruneBodies(height) // keep only the head block's body
	if dropped == 0 {
		t.Fatal("nothing pruned")
	}
	// Old bodies and receipts are gone, headers and the head body remain.
	if _, ok := c.BlockBody(1); ok {
		t.Fatal("block 1 body survived pruning")
	}
	if _, ok := c.BlockBody(height); !ok {
		t.Fatal("head body pruned")
	}
	if _, ok := c.BlockByNumber(1); !ok {
		t.Fatal("header 1 pruned")
	}
	if err := c.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after pruning: %v", err)
	}
	if _, ok := c.Receipt(hashes[0]); ok {
		t.Fatal("old receipt survived pruning")
	}

	// A pruned chain still exports (partial bodies) and restores.
	exp, err := c.ExportState()
	if err != nil {
		t.Fatalf("export after prune: %v", err)
	}
	if _, ok := exp.Bodies[1]; ok {
		t.Fatal("export carries pruned body")
	}
	dst := freshGenesis(t)
	if err := dst.RestoreState(exp); err != nil {
		t.Fatalf("restore of pruned export: %v", err)
	}
	if got, want := dst.HeadHash(), c.HeadHash(); got != want {
		t.Fatalf("pruned restore head %s != %s", got, want)
	}
	if _, ok := dst.BlockBody(height); !ok {
		t.Fatal("retained body missing after pruned restore")
	}
}

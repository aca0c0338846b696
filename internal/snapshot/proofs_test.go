package snapshot

import (
	"fmt"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/storage"
)

// settlement runs the off-chain half of one key-secure exchange (seller
// lists, buyer challenges, seller proves π_k) and returns the two escrow
// transactions that carry it on chain.
func settlement(t *testing.T, sys *core.System, id uint64, seller, buyer chain.Address) (open, settle chain.Transaction) {
	t.Helper()
	s, err := core.NewSeller(sys, core.Dataset{fr.NewElement(7 + id), fr.NewElement(11)}, fr.NewElement(0xC0FFEE+id), core.TruePredicate{})
	if err != nil {
		t.Fatal(err)
	}
	listing := s.Listing(5000)
	kv, hv := core.NewBuyer(sys, listing, core.TruePredicate{}).Challenge()
	st, piK, err := s.NegotiateKey(kv, hv)
	if err != nil {
		t.Fatal(err)
	}
	hvB, ckB, kcB := hv.Bytes(), listing.KeyCommitment.Bytes(), st.KC.Bytes()
	open = chain.Transaction{From: buyer, Contract: contracts.EscrowName, Method: "open", Value: listing.Price,
		Args: contracts.EncodeArgs(contracts.U64(id), seller[:], hvB[:], ckB[:])}
	settle = chain.Transaction{From: seller, Contract: contracts.EscrowName, Method: "settle",
		Args: contracts.EncodeArgs(contracts.U64(id), kcB[:], piK.Bytes(), kcB[:], ckB[:], hvB[:])}
	return open, settle
}

// TestRecoverReplaysFoldedBlocksFromWALTail: a marketplace-genesis chain
// whose blocks came out of the producer path — proofs folded at seal, the
// fold recorded in the header — is killed before any checkpoint, and
// Recover replays the WAL tail through the same fold: every replayed
// receipt equals the logged one (receiptsMatch), where replay used to
// re-verify each proof alone, charge the standalone schedule and abort
// with ErrReplayDrift. A checkpoint then carries the folded headers
// through the snapshot codec as well.
func TestRecoverReplaysFoldedBlocksFromWALTail(t *testing.T) {
	sys, err := core.NewTestSystem(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	buyer := chain.AddressFromString("buyer")
	boot := func() (*chain.Chain, *DurableStore, *RecoveryReport) {
		t.Helper()
		opts := Options{Dir: dir, CheckpointEvery: 1 << 20}
		d, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		c := chain.New()
		c.Faucet(buyer, 1_000_000)
		// The genesis function: the contract suite, and with it the chain's
		// block verifier — Recover sees a chain that has only run this.
		if _, _, err := core.NewMarketplaceWith(sys, c, d.Blobs(storage.NewStore())); err != nil {
			t.Fatal(err)
		}
		rep, err := d.Recover(c)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if err := d.Attach(c); err != nil {
			t.Fatal(err)
		}
		return c, d, rep
	}

	c, d, _ := boot()
	var opens, settles []chain.Transaction
	for id := uint64(1); id <= 2; id++ {
		o, s := settlement(t, sys, id, chain.AddressFromString(fmt.Sprintf("seller-%d", id)), buyer)
		o.Nonce = id - 1
		opens, settles = append(opens, o), append(settles, s)
	}
	logged := make(map[uint64][]*chain.Receipt)
	for _, body := range [][]chain.Transaction{opens, settles} {
		res := c.ProduceBlock(body)
		if len(res.Block.TxHashes) != len(body) {
			t.Fatalf("produce: included %d of %d", len(res.Block.TxHashes), len(body))
		}
		for i, o := range res.Outcomes {
			if o.Receipt.Err != nil {
				t.Fatalf("block %d tx %d reverted: %v", res.Block.Number, i, o.Receipt.Err)
			}
			logged[res.Block.Number] = append(logged[res.Block.Number], o.Receipt)
		}
	}
	head := c.Head()
	if head.Fold != 2 {
		t.Fatalf("settlement block sealed with fold %d, want 2", head.Fold)
	}
	folded := logged[head.Number][0].GasUsed
	d.Crash()

	check := func(stage string, c *chain.Chain) {
		t.Helper()
		if got := c.Head(); got.Hash() != head.Hash() || got.Fold != 2 {
			t.Fatalf("%s: head %s fold %d, want %s fold 2", stage, got.Hash(), got.Fold, head.Hash())
		}
		for n, want := range logged {
			b, _ := c.BlockByNumber(n)
			got := make([]*chain.Receipt, len(b.TxHashes))
			for i, h := range b.TxHashes {
				got[i], _ = c.Receipt(h)
			}
			if err := receiptsMatch(want, got); err != nil {
				t.Fatalf("%s: block %d: %v", stage, n, err)
			}
		}
	}
	c2, d2, rep := boot()
	if rep.SnapshotPath != "" || rep.BlocksReplayed != 2 {
		t.Fatalf("recovery %+v, want 2 blocks replayed from the WAL alone", rep)
	}
	check("WAL replay", c2)

	// What replay charged is the folded schedule, not a coincidence: the
	// same settlement alone in its block, a fold of one, costs
	// standalone-for-amortised more.
	o, s := settlement(t, sys, 3, chain.AddressFromString("seller-3"), buyer)
	o.Nonce = c2.NonceOf(buyer)
	for _, tx := range []chain.Transaction{o, s} {
		out := c2.ProduceBlock([]chain.Transaction{tx}).Outcomes[0]
		r := out.Receipt
		if out.Err != nil || r.Err != nil {
			t.Fatalf("alone %s: %v %v", tx.Method, out.Err, r)
		}
		if tx.Method == "settle" {
			if want := r.GasUsed - contracts.VerificationGas(3) + contracts.BatchVerifiedGas(2, 3); folded != want {
				t.Fatalf("folded settle gas %d, want alone %d − standalone + amortised(2) = %d", folded, r.GasUsed, want)
			}
		}
	}
	head = c2.Head()
	if err := d2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	c3, d3, rep := boot()
	defer d3.Close()
	if rep.SnapshotHeight != head.Number || rep.BlocksReplayed != 0 {
		t.Fatalf("recovery %+v, want the snapshot at %d and nothing replayed", rep, head.Number)
	}
	if got := c3.Head(); got.Hash() != head.Hash() {
		t.Fatalf("snapshot restore: head %s, want %s", got.Hash(), head.Hash())
	}
	if b, _ := c3.BlockByNumber(2); b.Fold != 2 {
		t.Fatalf("snapshot restore lost the fold: %d", b.Fold)
	}
}

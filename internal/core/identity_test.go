package core

import (
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/storage"
)

// newIdentityMarketplace builds a marketplace over a caller-supplied fresh
// chain with deterministic funding, optionally enabling the confidential
// subsystem with a fixed auditor key.
func newIdentityMarketplace(t *testing.T, confidential bool) *Marketplace {
	t.Helper()
	m, _, err := NewMarketplaceWith(testSys(), chain.New(), storage.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	for _, who := range []string{"issuer", "alice", "bob"} {
		m.Chain.Faucet(chain.AddressFromString(who), 100_000_000)
	}
	if confidential {
		ak := ct.AuditorKeyFromSecret(fr.NewElement(0x1de27))
		pub := ak.PublicKey()
		if _, err := m.EnableConfidential(chain.AddressFromString("issuer"), pub); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestPublicPathIdenticalWithConfidentialEnabled asserts the opt-in
// property: enabling the confidential subsystem must not change the
// public token path at all — same receipts, same gas, same storage
// records for an identical workload.
func TestPublicPathIdenticalWithConfidentialEnabled(t *testing.T) {
	plain := newIdentityMarketplace(t, false)
	withCT := newIdentityMarketplace(t, true)
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")

	run := func(m *Marketplace) []*chain.Receipt {
		var rs []*chain.Receipt
		sub := func(from chain.Address, contract, method string, args []byte) {
			r, err := m.produceOne(chain.Transaction{
				From: from, Contract: contract, Method: method,
				Args: args, Nonce: m.Chain.NonceOf(from),
			})
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, r)
		}
		uri := make([]byte, 32)
		commit := make([]byte, 32)
		sub(alice, contracts.DataNFTName, "mint", contracts.EncodeArgs(uri, commit))
		sub(alice, contracts.DataNFTName, "transfer", contracts.EncodeArgs(contracts.U64(1), bob[:]))
		sub(bob, contracts.DataNFTName, "duplicate", contracts.EncodeArgs(contracts.U64(1), uri, commit))
		sub(bob, contracts.DataNFTName, "burn", contracts.EncodeArgs(contracts.U64(2)))
		return rs
	}

	rsPlain := run(plain)
	rsCT := run(withCT)
	for i := range rsPlain {
		if rsPlain[i].GasUsed != rsCT[i].GasUsed {
			t.Fatalf("tx %d gas diverged: %d (plain) vs %d (confidential-enabled)",
				i, rsPlain[i].GasUsed, rsCT[i].GasUsed)
		}
		if (rsPlain[i].Err == nil) != (rsCT[i].Err == nil) {
			t.Fatalf("tx %d outcome diverged: %v vs %v", i, rsPlain[i].Err, rsCT[i].Err)
		}
	}
	// Public token records are byte-identical.
	for _, id := range []uint64{1, 2} {
		a, errA := contracts.ReadToken(plain.Chain, id)
		b, errB := contracts.ReadToken(withCT.Chain, id)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("token %d readability diverged: %v vs %v", id, errA, errB)
		}
		if errA == nil && *a != *b {
			t.Fatalf("token %d record diverged: %+v vs %+v", id, a, b)
		}
	}
}

// TestConfidentialReplayImportBitIdentity seals blocks of confidential
// activity — mint, split transfer, escrow lock + settle — on one replica and
// replays them on a second via ImportBlock: head hash and
// state root must match bit-for-bit. This is the cluster-correctness
// property for the new transaction family: proof verification inside the
// contract is deterministic, so replicas converge.
func TestConfidentialReplayImportBitIdentity(t *testing.T) {
	a := newIdentityMarketplace(t, true)
	b := newIdentityMarketplace(t, true)
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")

	// Confidential activity on replica A.
	notes, err := a.ConfidentialMint([]ConfPayment{{Value: 900, To: bob}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ConfidentialTransfer(bob, notes,
		[]ConfPayment{{Value: 650, To: bob}, {Value: 250, To: alice}}); err != nil {
		t.Fatal(err)
	}
	// A full confidential sale (NFT + key-secure settle).
	asset, err := a.MintAsset(alice, "alice", smallData(3), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	payNotes, err := a.ConfidentialMint([]ConfPayment{{Value: 4200, To: bob}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SellConfidential(1, alice, bob, asset, RangePredicate{Bits: 16}, payNotes[0]); err != nil {
		t.Fatal(err)
	}

	// The in-memory marketplace sealed each transaction into a block of its
	// own; B imports them all.
	for n := uint64(1); n <= a.Chain.Height(); n++ {
		blk, _ := a.Chain.BlockByNumber(n)
		txs, ok := a.Chain.BlockBody(n)
		if !ok {
			t.Fatalf("sealed block %d has no body", n)
		}
		if _, err := b.Chain.ImportBlock(blk, txs); err != nil {
			t.Fatalf("replay import of block %d: %v", n, err)
		}
	}
	if b.Chain.HeadHash() != a.Chain.HeadHash() {
		t.Fatal("head hash diverged after confidential replay")
	}
	if b.Chain.Head().StateRoot != a.Chain.Head().StateRoot {
		t.Fatal("state root diverged after confidential replay")
	}
	// The replica sees the same notes without ever holding an opening.
	recA, err := contracts.ReadCTNote(a.Chain, contracts.ConfidentialTokenName, notes[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	recB, err := contracts.ReadCTNote(b.Chain, contracts.ConfidentialTokenName, notes[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !recA.Comm.Equal(recB.Comm) || recA.Status != recB.Status {
		t.Fatal("replicated note record diverged")
	}
}

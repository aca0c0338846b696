package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/indexer"
)

// newConfidentialMarketplace enables the confidential subsystem on a fresh
// marketplace with a deterministic auditor key.
func newConfidentialMarketplace(t *testing.T) (*Marketplace, *ct.AuditorKey, chain.Address) {
	t.Helper()
	m, _ := newTestMarketplace(t)
	issuer := chain.AddressFromString("issuer")
	for _, who := range []string{"issuer", "alice", "bob"} {
		m.Chain.Faucet(chain.AddressFromString(who), 100_000_000)
	}
	ak := ct.AuditorKeyFromSecret(fr.NewElement(0xa0d1703))
	pub := ak.PublicKey()
	if _, err := m.EnableConfidential(issuer, pub); err != nil {
		t.Fatal(err)
	}
	return m, ak, issuer
}

func TestConfidentialDisabledByDefault(t *testing.T) {
	m, _ := newTestMarketplace(t)
	if m.Confidential() != nil {
		t.Fatal("confidential deployment present without EnableConfidential")
	}
	if _, err := m.ConfidentialMint(nil); !errors.Is(err, ErrConfidentialDisabled) {
		t.Fatalf("mint on disabled marketplace: %v", err)
	}
	alice := chain.AddressFromString("alice")
	if _, err := m.ConfidentialTransfer(alice, nil, nil); !errors.Is(err, ErrConfidentialDisabled) {
		t.Fatalf("transfer on disabled marketplace: %v", err)
	}
}

func TestEnableConfidentialIdempotent(t *testing.T) {
	m, ak, issuer := newConfidentialMarketplace(t)
	pub := ak.PublicKey()
	d1 := m.Confidential()
	d2, err := m.EnableConfidential(issuer, pub)
	if err != nil || d1 != d2 {
		t.Fatalf("second EnableConfidential: %p vs %p, %v", d1, d2, err)
	}
}

func TestConfidentialMintTransferThroughMarketplace(t *testing.T) {
	m, ak, _ := newConfidentialMarketplace(t)
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")

	notes, err := m.ConfidentialMint([]ConfPayment{{Value: 1000, To: alice}})
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 1 || notes[0].Owner != alice || notes[0].Opening.V != 1000 {
		t.Fatalf("mint notes %+v", notes)
	}

	out, err := m.ConfidentialTransfer(alice, notes,
		[]ConfPayment{{Value: 600, To: bob}, {Value: 400, To: alice}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Owner != bob || out[1].Owner != alice {
		t.Fatalf("transfer notes %+v", out)
	}

	// On-chain, only commitments are visible; the auditor opens them.
	for i, want := range []uint64{600, 400} {
		rec, err := contracts.ReadCTNote(m.Chain, contracts.ConfidentialTokenName, out[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		op, err := ak.Open(m.Confidential().params, rec.Comm, &rec.Audit)
		if err != nil || op.V != want {
			t.Fatalf("auditor open note %d: v=%d err=%v", out[i].ID, op.V, err)
		}
	}

	// Unbalanced transfers are refused by the prover before they ever hit
	// the chain.
	if _, err := m.ConfidentialTransfer(bob, out[:1],
		[]ConfPayment{{Value: 700, To: bob}}); !errors.Is(err, ct.ErrUnbalanced) {
		t.Fatalf("unbalanced transfer: %v", err)
	}
}

func TestSellConfidentialAndAuditorLineage(t *testing.T) {
	m, ak, _ := newConfidentialMarketplace(t)
	alice := chain.AddressFromString("alice") // seller
	bob := chain.AddressFromString("bob")     // buyer
	reg := NewProofRegistry()

	data := smallData(4)
	asset, err := m.MintAsset(alice, "alice", data, fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	reg.PublishAsset(asset)

	// Bob pays with a confidential note worth 5000 — the amount never
	// appears on-chain.
	notes, err := m.ConfidentialMint([]ConfPayment{{Value: 5000, To: bob}})
	if err != nil {
		t.Fatal(err)
	}

	got, err := m.SellConfidential(1, alice, bob, asset, RangePredicate{Bits: 16}, notes[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !got[i].Equal(&data[i]) {
			t.Fatal("buyer received wrong data")
		}
	}
	// The payment note now belongs to the seller.
	rec, err := contracts.ReadCTNote(m.Chain, contracts.ConfidentialTokenName, notes[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Owner != alice {
		t.Fatal("payment note did not move to the seller")
	}
	// Ownership of the NFT moved to the buyer.
	tok, err := contracts.ReadToken(m.Chain, asset.TokenID)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Owner != bob {
		t.Fatal("NFT did not move to the buyer")
	}

	// A plain audit sees no amounts; auditor mode without the key is a
	// typed error; with the key the hidden payment is opened and matches
	// ground truth.
	report, err := m.AuditLineage(reg, asset.TokenID)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.ConfidentialPayments) != 0 {
		t.Fatal("non-auditor audit exposed payments")
	}
	if _, err := m.AuditLineage(reg, asset.TokenID, WithAuditorKey(nil)); !errors.Is(err, ErrAuditorKeyRequired) {
		t.Fatalf("auditor mode without key: %v", err)
	}
	report, err = m.AuditLineage(reg, asset.TokenID, WithAuditorKey(ak))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.ConfidentialPayments) != 1 {
		t.Fatalf("auditor saw %d payments, want 1", len(report.ConfidentialPayments))
	}
	p := report.ConfidentialPayments[0]
	if p.Value != 5000 || p.TokenID != asset.TokenID || p.ExchangeID != 1 || p.NoteID != notes[0].ID {
		t.Fatalf("opened payment %+v", p)
	}
}

// TestIndexerConfidentialFold pins §17.4 on the raw logs: a confidential
// mint, a 1→2 transfer and a confidential sale leave only public data in
// the confidential token's events — CTNote is id ‖ 20-byte recipient ‖
// 32-byte commitment digest; the exchange machine's Opened is (id, seller,
// h_v, c_k, token, note, 64-byte note commitment) and its Settled (id, k_c,
// note), the escrow's layout with a note for the value; and no payload holds
// an amount's U64 bytes or a blinder's 32 bytes — and the indexer's posting
// lists hold exactly those events, so zkdet_events serves them, and fold
// the sale into one exchange record.
func TestIndexerConfidentialFold(t *testing.T) {
	m, _, _ := newConfidentialMarketplace(t)
	ix := m.AttachIndexer()
	alice := chain.AddressFromString("alice") // seller
	bob := chain.AddressFromString("bob")     // buyer

	asset, err := m.MintAsset(alice, "alice", smallData(3), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	minted, err := m.ConfidentialMint([]ConfPayment{{Value: 1000, To: alice}, {Value: 5000, To: bob}})
	if err != nil {
		t.Fatal(err)
	}
	split, err := m.ConfidentialTransfer(alice, minted[:1], []ConfPayment{{Value: 600, To: bob}, {Value: 400, To: alice}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SellConfidential(1, alice, bob, asset, RangePredicate{Bits: 16}, minted[1]); err != nil {
		t.Fatal(err)
	}

	var secrets [][]byte
	for _, n := range append(minted, split...) {
		r := n.Opening.R.Bytes()
		secrets = append(secrets, contracts.U64(n.Opening.V), r[:])
	}
	counts := map[string]int{}
	for h := uint64(1); h <= m.Chain.Height(); h++ {
		b, _ := m.Chain.BlockByNumber(h)
		for _, txh := range b.TxHashes {
			r, _ := m.Chain.Receipt(txh)
			for _, ev := range r.Logs {
				if ev.Contract != contracts.ConfidentialTokenName {
					continue
				}
				counts[ev.Name]++
				parts, err := contracts.DecodeArgsVariadic(ev.Data)
				if err != nil {
					t.Fatalf("%s: %v", ev.Name, err)
				}
				switch ev.Name {
				case "CTNote":
					if len(parts) != 3 || len(parts[0]) != 8 || len(parts[1]) != 20 || len(parts[2]) != 32 {
						t.Fatalf("CTNote layout %x", ev.Data)
					}
				case "Opened":
					if len(parts) != 7 || len(parts[1]) != 20 || len(parts[2]) != 32 || len(parts[3]) != 32 ||
						len(parts[4]) != 8 || len(parts[5]) != 8 || len(parts[6]) != 64 {
						t.Fatalf("Opened layout %x", ev.Data)
					}
				case "Settled":
					if len(parts) != 3 || len(parts[1]) != 32 || len(parts[2]) != 8 {
						t.Fatalf("Settled layout %x", ev.Data)
					}
				}
				for _, sec := range secrets {
					if bytes.Contains(ev.Data, sec) || bytes.Contains(ev.Topic, sec) {
						t.Fatalf("%s payload carries an opening: %x", ev.Name, sec)
					}
				}
			}
		}
	}
	want := map[string]int{"CTNote": 4, "CTMint": 1, "CTTransfer": 1, "Opened": 1, "Settled": 1}
	for name, n := range want {
		if counts[name] != n {
			t.Fatalf("%d %s events, want %d (all: %v)", counts[name], name, n, counts)
		}
		if _, total, err := ix.Query(indexer.Filter{Contract: contracts.ConfidentialTokenName, Name: name}); err != nil || total != n {
			t.Fatalf("indexer holds %d %s events, want %d (%v)", total, name, n, err)
		}
	}
	recs := ix.Exchanges(contracts.ConfidentialTokenName)
	if len(recs) != 1 || recs[0].ID != 1 || recs[0].Status != indexer.ExchangeSettled ||
		recs[0].Seller != alice || recs[0].Token != asset.TokenID || recs[0].Note != minted[1].ID {
		t.Fatalf("confidential exchange records %+v", recs)
	}
}

// TestConfidentialProofCheckerIntegration confirms ProofChecker covers the
// confidential family once enabled: a forged transfer is rejected at the
// gossip screen while a valid one passes.
func TestConfidentialProofCheckerIntegration(t *testing.T) {
	m, _, issuer := newConfidentialMarketplace(t)
	alice := chain.AddressFromString("alice")
	d := m.Confidential()

	// Build a valid mint transaction by hand (not submitted).
	secrets := []ct.OutputSecret{{V: 77, R: fr.MustRandom(), Rho: fr.MustRandom()}}
	outs := []ct.Output{d.params.NewOutput(&d.AuditorPub, 77, &secrets[0].R, &secrets[0].Rho)}
	recipients := []chain.Address{alice}
	st := &ct.Statement{Mint: true, Outputs: outs, Context: contracts.CTContext(issuer, nil, recipients)}
	proof, err := ct.Prove(d.params, d.prover, &d.AuditorPub, st, nil, secrets, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := &chain.Transaction{From: issuer, Contract: contracts.ConfidentialTokenName,
		Method: "mint", Args: contracts.CTTransferArgs(nil, nil, outs, recipients, proof)}

	var one fr.Element
	one.SetOne()
	proof.Outputs[0].ZRho.Add(&proof.Outputs[0].ZRho, &one)
	forged := &chain.Transaction{From: issuer, Contract: contracts.ConfidentialTokenName,
		Method: "mint", Args: contracts.CTTransferArgs(nil, nil, outs, recipients, proof)}

	bc := m.ProofChecker()
	n, errs := bc.GossipCheck([]*chain.Transaction{good, forged})
	if n != 1 || errs[0] != nil || errs[1] == nil {
		t.Fatalf("gossip: n=%d errs=%v", n, errs)
	}
	if !errors.Is(errs[1], contracts.ErrCTProofRejected) {
		t.Fatalf("forged error %v", errs[1])
	}
}

// TestSaleOpensWithTheTokensKeyCommitment: a sale lists the token it
// sells, not a fresh encryption of its data. The arbiter is opened with
// the c_k half of the token's on-chain commitment field, on the escrow and
// on the confidential token alike: each exchange's indexer record carries
// it.
func TestSaleOpensWithTheTokensKeyCommitment(t *testing.T) {
	m, _, _ := newConfidentialMarketplace(t)
	ix := m.AttachIndexer()
	alice := chain.AddressFromString("alice") // seller
	bob := chain.AddressFromString("bob")     // buyer
	mint := func() (*Asset, []byte) {
		a, err := m.MintAsset(alice, "alice", smallData(3), fr.MustRandom())
		if err != nil {
			t.Fatal(err)
		}
		lin, err := m.Trace(a.TokenID)
		if err != nil {
			t.Fatal(err)
		}
		return a, lin[0].Commitment[32:]
	}

	asset, ck := mint()
	if _, err := m.SellViaEscrow(1, alice, bob, asset, RangePredicate{Bits: 16}, 5000); err != nil {
		t.Fatal(err)
	}
	rec, err := ix.Exchange(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.C, ck) {
		t.Fatalf("escrow opened with c_k %x, the token commits to %x", rec.C, ck)
	}

	asset, ck = mint()
	notes, err := m.ConfidentialMint([]ConfPayment{{Value: 5000, To: bob}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SellConfidential(2, alice, bob, asset, RangePredicate{Bits: 16}, notes[0]); err != nil {
		t.Fatal(err)
	}
	recs := ix.Exchanges(contracts.ConfidentialTokenName)
	if len(recs) != 1 || recs[0].ID != 2 || recs[0].Token != asset.TokenID {
		t.Fatalf("confidential exchange records %+v, want exchange 2 selling token #%d", recs, asset.TokenID)
	}
	if !bytes.Equal(recs[0].C, ck) {
		t.Fatalf("confidential exchange opened with c_k %x, the token commits to %x", recs[0].C, ck)
	}
}

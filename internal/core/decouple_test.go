package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
)

// wantRefusedAs fails unless err is a refusal wrapping want whose text names
// the proof it refused.
func wantRefusedAs(t *testing.T, err, want error, label string) {
	t.Helper()
	if !errors.Is(err, want) || !strings.Contains(err.Error(), label) {
		t.Fatalf("got %v, want %v naming %s", err, want, label)
	}
}

// TestVerifyDataRefusesForeignProofs: π_p states only φ and the opening of
// c_d, and π_e ties c_d to the listed ciphertext and c_k, so the buyer checks
// them together. A π_p over another seller's c_d is refused, and so is a
// listing that carries another listing's π_e or none.
func TestVerifyDataRefusesForeignProofs(t *testing.T) {
	sys := testSys()
	pred := RangePredicate{Bits: 16}
	sellers := make([]*Seller, 2)
	proofs := make([]*plonk.Proof, 2)
	for i := range sellers {
		s, err := NewSeller(sys, smallData(4), fr.NewElement(uint64(11+i)), pred)
		if err != nil {
			t.Fatal(err)
		}
		if proofs[i], err = s.ProveData(); err != nil {
			t.Fatal(err)
		}
		sellers[i] = s
	}
	listing := sellers[0].Listing(1)
	if err := NewBuyer(sys, listing, pred).VerifyData(proofs[0]); err != nil {
		t.Fatalf("honest listing: %v", err)
	}
	wantRefusedAs(t, NewBuyer(sys, listing, pred).VerifyData(proofs[1]), plonk.ErrProofInvalid, "π_p")

	foreign := listing
	foreign.EncryptionProof = sellers[1].Listing(1).EncryptionProof
	wantRefusedAs(t, NewBuyer(sys, foreign, pred).VerifyData(proofs[0]), plonk.ErrProofInvalid, "π_e")

	foreign.EncryptionProof = nil
	if err := NewBuyer(sys, foreign, pred).VerifyData(proofs[0]); !errors.Is(err, ErrListingUnproven) {
		t.Fatalf("listing without π_e: %v, want ErrListingUnproven", err)
	}
}

// TestDuplicationRefusesSplitDigestAndSwap: a duplication π_t proves one
// digest under two blinders. A prover cannot make one whose two commitments
// hold different digests, VerifyTransform refuses a proof whose derived
// commitment is moved to another dataset's or whose (c_s, c_d) are swapped,
// and AuditLineage refuses both on a minted duplicate: the first by the
// proof, the second by the token's own commitment.
func TestDuplicationRefusesSplitDigestAndSwap(t *testing.T) {
	m, _ := newTestMarketplace(t)
	sys := m.Sys
	alice := chain.AddressFromString("alice")
	data, other := smallData(4), smallData(5)
	cs, os := data.Commit()
	co, oo := other.Commit()

	dup := transformShape{kind: TransformDuplication, sources: []int{4}, derived: []int{4}}
	if _, err := sys.proveTransform(dup, transformWitness{srcs: []Dataset{data}, cs: []fr.Element{cs}, os: []fr.Element{os}, cd: []fr.Element{co}, od: []fr.Element{oo}}); err == nil {
		t.Fatal("a duplication π_t was proved from one digest into another's commitment")
	}

	tp, _, err := sys.ProveDuplication(data, cs, os)
	if err != nil {
		t.Fatal(err)
	}
	split := *tp
	split.Derived = []fr.Element{co}
	wantRefusedAs(t, sys.VerifyTransform(&split, nil), plonk.ErrProofInvalid, "π_t (duplication)")
	swapped := *tp
	swapped.Sources, swapped.Derived = tp.Derived, tp.Sources
	wantRefusedAs(t, sys.VerifyTransform(&swapped, nil), plonk.ErrProofInvalid, "π_t (duplication)")

	// On chain: root's duplicate minted over another dataset, under root's
	// π_t relabelled to name it.
	root, err := m.MintAsset(alice, "alice", data, fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	fake, err := m.publish("alice", other, fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.submit(alice, contracts.DataNFTName, "duplicate", 0,
		contracts.EncodeArgs(contracts.U64(root.TokenID), fake.URI[:], fake.Statement.commitmentField()))
	if err != nil {
		t.Fatal(err)
	}
	if fake.TokenID, err = contracts.DecU64(r.Return); err != nil {
		t.Fatal(err)
	}
	honest, _, err := sys.ProveDuplication(data, root.Statement.DataCommitment, root.DataBlinder)
	if err != nil {
		t.Fatal(err)
	}
	relabelled := *honest
	relabelled.Derived = []fr.Element{fake.Statement.DataCommitment}
	reg := NewProofRegistry()
	reg.PublishAsset(root)
	reg.PublishTransform(&TransformResult{Assets: []*Asset{fake}, Proof: &relabelled}, nil)
	_, err = m.AuditLineage(reg, fake.TokenID)
	wantRefusedAs(t, err, plonk.ErrProofInvalid, "π_t (duplication)")

	// An honest duplicate whose π_t is published with its commitments
	// swapped no longer derives the token's own c_d.
	res, err := m.Duplicate(alice, "alice", root)
	if err != nil {
		t.Fatal(err)
	}
	swappedRes := *res
	swappedProof := *res.Proof
	swappedProof.Sources, swappedProof.Derived = res.Proof.Derived, res.Proof.Sources
	swappedRes.Proof = &swappedProof
	reg.PublishTransform(&swappedRes, nil)
	if _, err := m.AuditLineage(reg, res.Assets[0].TokenID); !errors.Is(err, ErrAuditMismatch) {
		t.Fatalf("swapped duplication π_t: %v, want ErrAuditMismatch", err)
	}
	reg.PublishTransform(res, nil)
	if _, err := m.AuditLineage(reg, res.Assets[0].TokenID); err != nil {
		t.Fatalf("the honest duplicate: %v", err)
	}
}

// splitKeyAsset mints a token whose c_k commits to a key k' other than the
// key k that encrypts its ciphertext, and returns the seller's handle on it:
// the data, k and c_d's blinder for π_p, and k' for π_k. No π_e can be
// proved for its record, so encProof is whatever the seller lists instead.
func splitKeyAsset(t *testing.T, m *Marketplace, owner chain.Address, data Dataset, encProof *plonk.Proof) (asset *Asset, kPrime fr.Element) {
	t.Helper()
	k, kPrime := fr.MustRandom(), fr.MustRandom()
	ct := data.Encrypt(k)
	cd, od := data.Commit()
	ck, ok := KeyCommit(kPrime)
	st := &EncryptionStatement{Nonce: ct.Nonce, DataCommitment: cd, KeyCommitment: ck, Ciphertext: ct.Blocks}
	uri, err := m.Store.Put("seller", ct.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.submit(owner, contracts.DataNFTName, "mint", 0, contracts.EncodeArgs(uri[:], st.commitmentField()))
	if err != nil {
		t.Fatal(err)
	}
	id, err := contracts.DecU64(r.Return)
	if err != nil {
		t.Fatal(err)
	}
	return &Asset{
		TokenID: id, URI: uri, Statement: st, EncProof: encProof,
		Data: data.Clone(), Key: k, DataBlinder: od, KeyBlinder: ok,
	}, kPrime
}

// TestSaleRefusesKeyCommitmentOfAnotherKey is the fair-exchange check that
// π_e closes. A seller whose token's c_k commits to a key k' other than the
// key k of its ciphertext can prove π_p with k, which nothing ties to c_k,
// and π_k with k', which the arbiter settles against: it is paid, and the
// buyer's k' decrypts nothing (ErrKeyMismatch). The buyer now checks the
// token's π_e beside π_p, so the listing is refused before anything is
// locked — by the protocol's buyer, and by SellViaEscrow and SellConfidential
// whether the listing carries another token's π_e or none. The buyer's
// balance and note, the arbiters' storage (no block is produced at all) and
// the token's owner are unchanged.
func TestSaleRefusesKeyCommitmentOfAnotherKey(t *testing.T) {
	m, _, _ := newConfidentialMarketplace(t)
	ix := m.AttachIndexer()
	seller, buyer := chain.AddressFromString("alice"), chain.AddressFromString("bob")
	pred := RangePredicate{Bits: 16}
	data := smallData(4)
	honest, err := m.MintAsset(seller, "alice", smallData(4), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}

	// The protocol: the seller proves π_p with k and lists another token's
	// π_e, the only one it has.
	asset, kPrime := splitKeyAsset(t, m, seller, data, honest.EncProof)
	s, err := assetSeller(m.Sys, asset, pred)
	if err != nil {
		t.Fatal(err)
	}
	piP, err := s.ProveData()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuyer(m.Sys, s.Listing(5000), pred)
	if err := b.VerifyData(piP); err == nil {
		// Without π_e the buyer locks, the seller settles with a π_k over k'
		// and is paid, and the buyer's key decrypts garbage.
		kv, hv := b.Challenge()
		if err := openEscrow(m, buyer, seller, 1, 5000, hv, asset.Statement.KeyCommitment); err != nil {
			t.Fatal(err)
		}
		s.key = kPrime
		st, piK, err := s.NegotiateKey(kv, hv)
		if err != nil {
			t.Fatal(err)
		}
		paid := settleEscrow(m, seller, 1, st, piK)
		_, derr := b.Decrypt(st.KC)
		t.Fatalf("buyer accepted π_p for a c_k of another key: settle %v, then Decrypt: %v", paid, derr)
	} else {
		wantRefusedAs(t, err, plonk.ErrProofInvalid, "π_e")
	}

	notes, err := m.ConfidentialMint([]ConfPayment{{Value: 5000, To: buyer}})
	if err != nil {
		t.Fatal(err)
	}
	note := notes[0]
	unspent, err := contracts.ReadCTNote(m.Chain, contracts.ConfidentialTokenName, note.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		encProof *plonk.Proof
		want     error
	}{
		{"another token's π_e", honest.EncProof, plonk.ErrProofInvalid},
		{"no π_e", nil, ErrListingUnproven},
	} {
		asset, _ := splitKeyAsset(t, m, seller, data, tc.encProof)
		height, balance := m.Chain.Height(), m.Chain.BalanceOf(buyer)
		if _, err := m.SellViaEscrow(1, seller, buyer, asset, pred, 5000); !errors.Is(err, tc.want) {
			t.Fatalf("%s: SellViaEscrow: %v, want %v", tc.name, err, tc.want)
		}
		if _, err := m.SellConfidential(2, seller, buyer, asset, pred, note); !errors.Is(err, tc.want) {
			t.Fatalf("%s: SellConfidential: %v, want %v", tc.name, err, tc.want)
		}
		if got := m.Chain.Height(); got != height {
			t.Fatalf("%s: the refused sales produced %d blocks", tc.name, got-height)
		}
		if got := m.Chain.BalanceOf(buyer); got != balance {
			t.Fatalf("%s: buyer balance %d after the refused sale, was %d", tc.name, got, balance)
		}
		if n, err := contracts.ReadCTNote(m.Chain, contracts.ConfidentialTokenName, note.ID); err != nil || n.Owner != buyer || n.Status != unspent.Status {
			t.Fatalf("%s: buyer's note after the refused sale: %+v, %v", tc.name, n, err)
		}
		if _, err := ix.Exchange(1); err == nil || len(ix.Exchanges(contracts.ConfidentialTokenName)) != 0 {
			t.Fatalf("%s: an exchange was opened for a refused sale", tc.name)
		}
		if tok, err := contracts.ReadToken(m.Chain, asset.TokenID); err != nil || tok.Owner != seller {
			t.Fatalf("%s: token #%d after the refused sale: %+v, %v", tc.name, asset.TokenID, tok, err)
		}
	}
}

package core

import (
	"errors"
	"testing"

	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/fr"
)

func newTestMarketplace(t *testing.T) (*Marketplace, DeployGas) {
	t.Helper()
	m, gas, err := NewMarketplace(testSys())
	if err != nil {
		t.Fatal(err)
	}
	return m, gas
}

func TestMarketplaceDeployGas(t *testing.T) {
	_, gas := newTestMarketplace(t)
	// Table II magnitudes: contract ~1.02M, verifier ~1.64M.
	if gas.DataNFT < 900_000 || gas.DataNFT > 1_150_000 {
		t.Fatalf("nft deploy gas %d", gas.DataNFT)
	}
	if gas.Verifier < 1_500_000 || gas.Verifier > 1_800_000 {
		t.Fatalf("verifier deploy gas %d", gas.Verifier)
	}
}

func TestMarketplaceMintAndFetch(t *testing.T) {
	m, _ := newTestMarketplace(t)
	alice := chain.AddressFromString("alice")
	data := smallData(4)
	key := fr.MustRandom()

	asset, err := m.MintAsset(alice, "alice", data, key)
	if err != nil {
		t.Fatal(err)
	}
	if asset.TokenID == 0 {
		t.Fatal("no token id")
	}
	// π_e verifies.
	if err := m.Sys.VerifyEncryption(asset.Statement, asset.EncProof); err != nil {
		t.Fatalf("minted asset's π_e rejected: %v", err)
	}
	// The on-chain token binds the URI and commitments.
	tok, err := contracts.ReadToken(m.Chain, asset.TokenID)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Owner != alice {
		t.Fatal("wrong owner")
	}
	if tok.Record != contracts.RecordDigest(contracts.KindMint, asset.URI[:], asset.Statement.commitmentField(), nil) {
		t.Fatal("record digest does not bind the URI and commitments")
	}
	// Anyone can fetch the ciphertext by URI, and the owner's key decrypts.
	ct, err := m.FetchCiphertext(asset.URI)
	if err != nil {
		t.Fatal(err)
	}
	back := ct.Decrypt(key)
	if !back[0].Equal(&data[0]) {
		t.Fatal("fetched ciphertext does not decrypt")
	}
}

func TestMarketplaceTransformationsAndTrace(t *testing.T) {
	m, _ := newTestMarketplace(t)
	alice := chain.AddressFromString("alice")

	a1, err := m.MintAsset(alice, "alice", smallData(2), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.MintAsset(alice, "alice", smallData(3), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}

	// Aggregate, then partition the aggregate, then duplicate a piece,
	// then process the other — Figure 2's lifecycle.
	agg, err := m.Aggregate(alice, "alice", []*Asset{a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Sys.VerifyTransform(agg.Proof, nil); err != nil {
		t.Fatalf("aggregation proof: %v", err)
	}
	part, err := m.Partition(alice, "alice", agg.Assets[0], []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Sys.VerifyTransform(part.Proof, nil); err != nil {
		t.Fatalf("partition proof: %v", err)
	}
	dup, err := m.Duplicate(alice, "alice", part.Assets[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Sys.VerifyTransform(dup.Proof, nil); err != nil {
		t.Fatalf("duplication proof: %v", err)
	}
	proc, err := m.Process(alice, "alice", part.Assets[1], doubler{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Sys.VerifyTransform(proc.Proof, doubler{}); err != nil {
		t.Fatalf("processing proof: %v", err)
	}

	// Provenance: the processed token traces back to both mints.
	lineage, err := m.Trace(proc.Assets[0].TokenID)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[contracts.TransformKind]int{}
	for _, tok := range lineage {
		kinds[tok.Kind]++
	}
	if kinds[contracts.KindMint] != 2 || kinds[contracts.KindAggregation] != 1 ||
		kinds[contracts.KindPartition] != 1 || kinds[contracts.KindProcessing] != 1 {
		t.Fatalf("lineage kinds: %v", kinds)
	}

	// π_e / π_t commitments line up: the transformation's derived
	// commitment is exactly the derived asset's encryption commitment
	// (the commit-and-prove composition).
	if !proc.Proof.Derived[0].Equal(&proc.Assets[0].Statement.DataCommitment) {
		t.Fatal("π_t and π_e do not share the derived commitment")
	}

	// The chain's hash links stay intact through all of it.
	if err := m.Chain.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestMarketplaceSellViaEscrow(t *testing.T) {
	m, _ := newTestMarketplace(t)
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	m.Chain.Faucet(alice, 1_000_000)
	m.Chain.Faucet(bob, 1_000_000)

	data := smallData(4)
	asset, err := m.MintAsset(alice, "alice", data, fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	aliceBefore := m.Chain.BalanceOf(alice)
	bobBefore := m.Chain.BalanceOf(bob)

	got, err := m.SellViaEscrow(1, alice, bob, asset, RangePredicate{Bits: 16}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !got[i].Equal(&data[i]) {
			t.Fatal("buyer received wrong data")
		}
	}
	// Payment moved buyer → seller.
	if m.Chain.BalanceOf(alice)-aliceBefore != 5000 {
		t.Fatalf("seller earned %d", m.Chain.BalanceOf(alice)-aliceBefore)
	}
	if bobBefore-m.Chain.BalanceOf(bob) != 5000 {
		t.Fatalf("buyer paid %d", bobBefore-m.Chain.BalanceOf(bob))
	}
	// Ownership moved on-chain.
	tok, err := contracts.ReadToken(m.Chain, asset.TokenID)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Owner != bob {
		t.Fatal("NFT did not move to the buyer")
	}
	// The raw key never hit the chain: the settled kc is not the key.
	kcB, err := contracts.ReadSettledKc(m.Chain, contracts.EscrowName, 1)
	if err != nil {
		t.Fatal(err)
	}
	keyB := asset.Key.Bytes()
	if string(kcB) == string(keyB[:]) {
		t.Fatal("raw key published on-chain")
	}
}

// TestSaleRefusesAnotherAssetsListing: a seller who lists another asset's
// ciphertext and commitments under a token — here both alice's, the listing
// of the second under the first's id — is refused by the buyer with
// ErrListingNotToken before anything is locked: no exchange is opened, the
// buyer's balance and the token's owner are unchanged. The token's own
// listing then sells.
func TestSaleRefusesAnotherAssetsListing(t *testing.T) {
	m, _ := newTestMarketplace(t)
	ix := m.AttachIndexer()
	alice, bob := chain.AddressFromString("alice"), chain.AddressFromString("bob")
	m.Chain.Faucet(bob, 1_000_000)
	sold, err := m.MintAsset(alice, "alice", smallData(3), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	other, err := m.MintAsset(alice, "alice", smallData(3), fr.MustRandom())
	if err != nil {
		t.Fatal(err)
	}
	forged := *other
	forged.TokenID = sold.TokenID
	before := m.Chain.BalanceOf(bob)
	if _, err := m.SellViaEscrow(1, alice, bob, &forged, RangePredicate{Bits: 16}, 5000); !errors.Is(err, ErrListingNotToken) {
		t.Fatalf("sale of token #%d under another asset's listing: %v, want ErrListingNotToken", sold.TokenID, err)
	}
	if _, err := ix.Exchange(1); err == nil {
		t.Fatal("an exchange was opened for the refused sale")
	}
	if got := m.Chain.BalanceOf(bob); got != before {
		t.Fatalf("buyer balance %d after the refused sale, was %d", got, before)
	}
	if tok, err := contracts.ReadToken(m.Chain, sold.TokenID); err != nil || tok.Owner != alice {
		t.Fatalf("token #%d after the refused sale: %+v, %v; want alice's", sold.TokenID, tok, err)
	}
	if _, err := m.SellViaEscrow(1, alice, bob, sold, RangePredicate{Bits: 16}, 5000); err != nil {
		t.Fatalf("the token's own listing: %v", err)
	}
}

// Command marketplace runs the paper's full data-exchange story (§IV-F):
// a seller lists an encrypted dataset with the token's proof of encryption
// and a predicate proof, a buyer validates both with zero knowledge in one
// pairing, payment is locked in the on-chain escrow, and the key-secure
// two-phase protocol settles the trade without ever publishing the
// encryption key.
package main

import (
	"fmt"
	"log"

	"github.com/zkdet/zkdet"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/fr"
)

func main() {
	log.SetFlags(0)

	sys, err := zkdet.NewSystem(1 << 13)
	if err != nil {
		log.Fatalf("setup: %v", err)
	}
	m, _, err := zkdet.NewMarketplace(sys)
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}

	alice := zkdet.AddressFromString("alice") // seller
	bob := zkdet.AddressFromString("bob")     // buyer
	m.Chain.Faucet(alice, 10_000)
	m.Chain.Faucet(bob, 100_000)

	// Alice mints a dataset of sensor readings, all 16-bit values — the
	// predicate she will prove to buyers.
	readings := zkdet.Dataset{
		fr.NewElement(4211), fr.NewElement(4370),
		fr.NewElement(4190), fr.NewElement(4405),
	}
	asset, err := m.MintAsset(alice, "alice", readings, zkdet.RandomKey())
	if err != nil {
		log.Fatalf("mint: %v", err)
	}
	fmt.Printf("• alice minted token #%d (4 readings, encrypted, in public storage)\n", asset.TokenID)

	fmt.Printf("  balances: alice=%d bob=%d\n", m.Chain.BalanceOf(alice), m.Chain.BalanceOf(bob))

	// The whole §IV-F protocol: validation of the token's π_e beside π_p
	// (π_e ties the ciphertext and the key c_k commits to to c_d, π_p proves
	// the predicate of c_d's data), escrow lock with h_v, π_k settlement,
	// buyer-side decryption.
	pred := zkdet.RangePredicate{Bits: 16}
	fmt.Println("• running the key-secure exchange (π_e + π_p validation → escrow lock → π_k settlement)…")
	got, err := m.SellViaEscrow(1, alice, bob, asset, pred, 25_000)
	if err != nil {
		log.Fatalf("exchange: %v", err)
	}
	fmt.Printf("• bob received %d plaintext entries; first reading = %s\n", len(got), got[0].String())
	fmt.Printf("  balances: alice=%d bob=%d\n", m.Chain.BalanceOf(alice), m.Chain.BalanceOf(bob))

	// Ownership moved on-chain.
	tok, err := contracts.ReadToken(m.Chain, asset.TokenID)
	if err != nil {
		log.Fatalf("read token: %v", err)
	}
	fmt.Printf("• token #%d owner is now bob: %v\n", tok.ID, tok.Owner == bob)

	// Key secrecy: the only key-related value on chain is k_c = k + k_v.
	kc, err := contracts.ReadSettledKc(m.Chain, contracts.EscrowName, 1)
	if err != nil {
		log.Fatalf("read kc: %v", err)
	}
	kcEl, err := fr.FromBytesCanonical(kc)
	if err != nil {
		log.Fatalf("decode kc: %v", err)
	}
	ct, err := m.FetchCiphertext(asset.URI)
	if err != nil {
		log.Fatalf("fetch: %v", err)
	}
	eavesdropped := ct.Decrypt(kcEl)
	fmt.Printf("• an eavesdropper decrypting with on-chain k_c gets garbage: %v\n",
		!eavesdropped[0].Equal(&readings[0]))

	// Contrast with the ZKCP baseline, where Open publishes k itself and
	// the same eavesdropper wins (§III-C / Figure 7 motivation).
	fmt.Println("• ZKCP baseline comparison: after its Open phase the key is public —")
	fmt.Println("  see internal/core's TestZKCPFlowAndLeak for the executable demonstration.")
}

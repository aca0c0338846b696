// Command quickstart is the five-minute ZKDET tour: set up the proof
// system, deploy a marketplace, mint a dataset as an NFT with a proof of
// encryption, and verify everything as a third party would.
package main

import (
	"fmt"
	"log"

	"github.com/zkdet/zkdet"
)

func main() {
	log.SetFlags(0)

	// 1. Universal setup: one SRS for every circuit up to 2^13 gates.
	fmt.Println("• running universal setup (Plonk/KZG over BN254)…")
	sys, err := zkdet.NewSystem(1 << 13)
	if err != nil {
		log.Fatalf("setup: %v", err)
	}

	// 2. Deploy the marketplace: chain + contracts + content-addressed storage.
	m, gas, err := zkdet.NewMarketplace(sys)
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	fmt.Printf("• contracts deployed — NFT %d gas, verifier %d gas\n", gas.DataNFT, gas.Verifier)

	// 3. Alice packages a dataset, encrypts it, proves the encryption and
	//    mints the NFT. The plaintext never leaves her machine.
	alice := zkdet.AddressFromString("alice")
	raw := []byte("2026-07-01,42.1\n2026-07-02,43.7\n2026-07-03,41.9")
	data := zkdet.EncodeBytes(raw)
	asset, err := m.MintAsset(alice, "alice", data, zkdet.RandomKey())
	if err != nil {
		log.Fatalf("mint: %v", err)
	}
	fmt.Printf("• minted token #%d, ciphertext stored at URI %s…\n", asset.TokenID, asset.URI.String()[:16])

	// 4. Anyone can verify the proof of encryption π_e against the public
	//    statement (ciphertext + commitments) — no plaintext needed.
	if err := m.Sys.VerifyEncryption(asset.Statement, asset.EncProof); err != nil {
		log.Fatalf("π_e rejected: %v", err)
	}
	fmt.Println("• π_e verified: the published ciphertext encrypts the committed dataset")

	// 5. Anyone can fetch the encrypted bytes from storage by URI —
	//    and only the key holder can read them.
	ct, err := m.FetchCiphertext(asset.URI)
	if err != nil {
		log.Fatalf("fetch: %v", err)
	}
	plain := ct.Decrypt(asset.Key)
	back, err := zkdet.DecodeBytes(plain)
	if err != nil {
		log.Fatalf("decode: %v", err)
	}
	fmt.Printf("• owner decrypts %d bytes: %q\n", len(back), back[:23])

	// 6. Every marketplace call sealed a block of its own; the hash links
	//    hold.
	if err := m.Chain.VerifyIntegrity(); err != nil {
		log.Fatalf("chain integrity: %v", err)
	}
	fmt.Printf("• chain at height %d, integrity verified — done\n", m.Chain.Height())
}

// Command ceremony demonstrates the trust story behind ZKDET's universal
// setup: a multi-party Powers-of-Tau ceremony (standing in for the
// Perpetual Powers of Tau the paper uses) where the final SRS is trustworthy
// as long as a single contributor destroyed their secret — and where anyone
// can verify the public contribution chain.
package main

import (
	"fmt"
	"log"

	"github.com/zkdet/zkdet"
	"github.com/zkdet/zkdet/internal/kzg"
)

func main() {
	log.SetFlags(0)

	const size = 1 << 13 // enough SRS powers for the π_k and small π_e circuits
	fmt.Printf("• starting a Powers-of-Tau ceremony for an SRS of %d powers\n", size)
	cer, err := kzg.NewCeremony(size)
	if err != nil {
		log.Fatalf("ceremony: %v", err)
	}

	// Three independent parties contribute entropy in sequence. Each
	// multiplies every power by its own secret and publishes only the
	// update proof ([s]G1, [s]G2, new power-1 element).
	for _, party := range []string{"research-lab", "data-coop", "auditor"} {
		if err := cer.Contribute([]byte(party)); err != nil {
			log.Fatalf("contribute(%s): %v", party, err)
		}
		fmt.Printf("• %s contributed (secret destroyed, update proof published)\n", party)
	}

	// Anyone can verify the full chain: each update's G1/G2 halves agree
	// (pairing check) and each links the previous SRS to the next.
	srs, err := cer.SRS()
	if err != nil {
		log.Fatalf("finalize: %v", err)
	}
	if err := kzg.VerifyChain(cer.Contributions(), srs); err != nil {
		log.Fatalf("public chain verification failed: %v", err)
	}
	fmt.Printf("• contribution chain verified: %d updates, all linked\n", len(cer.Contributions()))

	// The SRS serializes with structural validation: a tampered file can
	// never deserialize into a usable-but-wrong SRS.
	blob := srs.Bytes()
	fmt.Printf("• serialized SRS: %d bytes\n", len(blob))
	restored, err := kzg.SRSFromBytes(blob)
	if err != nil {
		log.Fatalf("deserialize: %v", err)
	}
	blob[200] ^= 0xff
	if _, err := kzg.SRSFromBytes(blob); err == nil {
		log.Fatal("tampered SRS accepted!")
	}
	fmt.Println("• tampered SRS rejected at load time (power-chain pairing check)")

	// And the ceremony output drives the real system.
	sys, err := zkdet.NewSystemFromCeremony(cer)
	if err != nil {
		log.Fatalf("system: %v", err)
	}
	_ = restored
	m, _, err := zkdet.NewMarketplace(sys)
	if err != nil {
		log.Fatalf("marketplace: %v", err)
	}
	alice := zkdet.AddressFromString("alice")
	asset, err := m.MintAsset(alice, "alice", zkdet.EncodeBytes([]byte("hi")), zkdet.RandomKey())
	if err != nil {
		log.Fatalf("mint: %v", err)
	}
	if err := m.Sys.VerifyEncryption(asset.Statement, asset.EncProof); err != nil {
		log.Fatalf("π_e under ceremony SRS: %v", err)
	}
	fmt.Println("• proofs generated and verified under the ceremony's SRS — no trusted party needed")
}

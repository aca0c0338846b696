// Command audit runs the buyer's due diligence on a derived data asset: it
// walks the token's on-chain lineage, fetches every ancestor's ciphertext
// from storage, and verifies every published proof of encryption and
// transformation against the on-chain commitments — then shows the audit
// catching a forged lineage.
package main

import (
	"fmt"
	"log"

	"github.com/zkdet/zkdet"
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
	alice := zkdet.AddressFromString("alice")
	reg := zkdet.NewProofRegistry()

	// Alice builds a small data pipeline, publishing proofs as she goes.
	a1, err := m.MintAsset(alice, "alice", zkdet.EncodeBytes([]byte("plant-A telemetry")), zkdet.RandomKey())
	if err != nil {
		log.Fatalf("mint: %v", err)
	}
	reg.PublishAsset(a1)
	a2, err := m.MintAsset(alice, "alice", zkdet.EncodeBytes([]byte("plant-B telemetry")), zkdet.RandomKey())
	if err != nil {
		log.Fatalf("mint: %v", err)
	}
	reg.PublishAsset(a2)

	agg, err := m.Aggregate(alice, "alice", []*zkdet.Asset{a1, a2})
	if err != nil {
		log.Fatalf("aggregate: %v", err)
	}
	reg.PublishTransform(agg, nil)
	dup, err := m.Duplicate(alice, "alice", agg.Assets[0])
	if err != nil {
		log.Fatalf("duplicate: %v", err)
	}
	reg.PublishTransform(dup, nil)
	target := dup.Assets[0]
	fmt.Printf("• pipeline built: #%d, #%d → aggregate #%d → replica #%d\n",
		a1.TokenID, a2.TokenID, agg.Assets[0].TokenID, target.TokenID)

	// The buyer audits the replica before trusting it.
	report, err := m.AuditLineage(reg, target.TokenID)
	if err != nil {
		log.Fatalf("audit: %v", err)
	}
	fmt.Printf("• audit PASSED: %d tokens walked, %d π_e verified, %d π_t verified\n",
		len(report.Tokens), report.EncryptionProofs, report.TransformProofs)

	// Now a forgery: republish the replica's proofs with a π_t derived from
	// unrelated data. The audit must refuse.
	other := zkdet.EncodeBytes([]byte("unrelated data"))
	co, oo := other.Commit()
	forged, _, err := m.Sys.ProveDuplication(other, co, oo)
	if err != nil {
		log.Fatalf("forge: %v", err)
	}
	reg.Publish(target.TokenID, &zkdet.TokenProofs{
		Encryption:      target.Statement,
		EncryptionProof: target.EncProof,
		Transform:       forged,
	})
	if _, err := m.AuditLineage(reg, target.TokenID); err != nil {
		fmt.Printf("• forged lineage REJECTED: %v\n", err)
	} else {
		log.Fatal("audit accepted a forged lineage!")
	}
}

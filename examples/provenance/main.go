// Command provenance reproduces Figure 2: a web of aggregations,
// partitions and duplications whose every step is recorded in prevIds[]
// and proven with π_t, then traced back to its sources on-chain.
package main

import (
	"fmt"
	"log"
	"sort"

	"github.com/zkdet/zkdet"
	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
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

	// Two source datasets.
	d1 := zkdet.EncodeBytes([]byte("region-north"))
	d2 := zkdet.EncodeBytes([]byte("region-south"))
	a1, err := m.MintAsset(alice, "alice", d1, zkdet.RandomKey())
	if err != nil {
		log.Fatalf("mint 1: %v", err)
	}
	a2, err := m.MintAsset(alice, "alice", d2, zkdet.RandomKey())
	if err != nil {
		log.Fatalf("mint 2: %v", err)
	}
	fmt.Printf("• sources: #%d, #%d\n", a1.TokenID, a2.TokenID)

	// Aggregate → partition → duplicate, proving each step.
	agg, err := m.Aggregate(alice, "alice", []*zkdet.Asset{a1, a2})
	if err != nil {
		log.Fatalf("aggregate: %v", err)
	}
	fmt.Printf("• aggregation: #%d + #%d → #%d (π_t verified: %v)\n",
		a1.TokenID, a2.TokenID, agg.Assets[0].TokenID,
		m.Sys.VerifyTransform(agg.Proof, nil) == nil)

	n := len(agg.Assets[0].Data)
	part, err := m.Partition(alice, "alice", agg.Assets[0], []int{n / 2, n - n/2})
	if err != nil {
		log.Fatalf("partition: %v", err)
	}
	fmt.Printf("• partition: #%d → #%d, #%d (π_t verified: %v)\n",
		agg.Assets[0].TokenID, part.Assets[0].TokenID, part.Assets[1].TokenID,
		m.Sys.VerifyTransform(part.Proof, nil) == nil)

	dup, err := m.Duplicate(alice, "alice", part.Assets[0])
	if err != nil {
		log.Fatalf("duplicate: %v", err)
	}
	fmt.Printf("• duplication: #%d → #%d (π_t verified: %v)\n",
		part.Assets[0].TokenID, dup.Assets[0].TokenID,
		m.Sys.VerifyTransform(dup.Proof, nil) == nil)

	// Provenance query: trace the replica to the two original sources.
	lineage, err := m.Trace(dup.Assets[0].TokenID)
	if err != nil {
		log.Fatalf("trace: %v", err)
	}
	sort.Slice(lineage, func(i, j int) bool { return lineage[i].ID < lineage[j].ID })
	fmt.Printf("• lineage of #%d:\n", dup.Assets[0].TokenID)
	for _, tok := range lineage {
		fmt.Printf("    #%d  %-11s prev=%v uri=%x…\n", tok.ID, tok.Kind, tok.Parents, tok.URI[:6])
	}

	// The chained proofs validate end-to-end: aggregation feeds partition.
	proofChain := zkdet.ProofChain{agg.Proof, part.Proof}
	if err := m.Sys.VerifyChain(proofChain, nil); err != nil {
		log.Fatalf("proof chain: %v", err)
	}
	fmt.Println("• proof chain (aggregation → partition) verified: continuous validation from sources")

	// Burned tokens stay traceable.
	burn := m.Chain.ProduceBlock([]chain.Transaction{{
		From:     alice,
		Contract: contracts.DataNFTName,
		Method:   "burn",
		Args:     contracts.EncodeArgs(contracts.U64(a1.TokenID)),
		Nonce:    m.Chain.NonceOf(alice),
	}}).Outcomes[0]
	if burn.Err != nil {
		log.Fatalf("burn: %v", burn.Err)
	}
	lineage2, err := m.Trace(dup.Assets[0].TokenID)
	if err != nil {
		log.Fatalf("trace after burn: %v", err)
	}
	for _, tok := range lineage2 {
		if tok.ID == a1.TokenID && tok.Burned {
			fmt.Printf("• source #%d burned, still present in lineage — history is immutable\n", tok.ID)
		}
	}
}

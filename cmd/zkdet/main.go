// Command zkdet drives a complete ZKDET scenario against an in-process
// deployment: mint data assets, transform them with proofs, trace
// provenance, and run the key-secure exchange. It is the CLI counterpart of
// the examples, with the workload under flag control.
//
// Usage:
//
//	zkdet -entries 8 -price 5000                   # full scenario
//	zkdet -scenario mint                           # just mint + verify π_e
//	zkdet -scenario transform                      # mint + aggregate/partition/duplicate + trace
//	zkdet -scenario exchange                       # mint + key-secure sale
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/zkdet/zkdet"
	"github.com/zkdet/zkdet/internal/fr"
)

func main() {
	log.SetFlags(0)
	var (
		entries  = flag.Int("entries", 4, "dataset size in field elements")
		price    = flag.Uint64("price", 5000, "sale price for the exchange scenario")
		scenario = flag.String("scenario", "all", "mint, transform, exchange or all")
		maxGates = flag.Int("gates", 1<<14, "maximum circuit size the SRS supports")
	)
	flag.Parse()

	if *entries < 1 {
		log.Fatal("zkdet: -entries must be positive")
	}
	fmt.Printf("zkdet demo — %d entries\n", *entries)
	fmt.Println("• universal setup…")
	sys, err := zkdet.NewSystem(*maxGates)
	if err != nil {
		log.Fatalf("setup: %v", err)
	}
	m, gas, err := zkdet.NewMarketplace(sys)
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	fmt.Printf("• deployed: nft=%dgas auction=%dgas escrow=%dgas verifier=%dgas\n",
		gas.DataNFT, gas.Auction, gas.Escrow, gas.Verifier)

	alice := zkdet.AddressFromString("alice")
	bob := zkdet.AddressFromString("bob")
	m.Chain.Faucet(alice, 1_000_000)
	m.Chain.Faucet(bob, 1_000_000)

	data := make(zkdet.Dataset, *entries)
	for i := range data {
		data[i] = zkdet.NewScalar(uint64(1000 + i))
	}

	switch *scenario {
	case "mint":
		runMint(m, alice, data)
	case "transform":
		asset := runMint(m, alice, data)
		runTransform(m, alice, asset)
	case "exchange":
		asset := runMint(m, alice, data)
		runExchange(m, alice, bob, asset, *price)
	case "all":
		asset := runMint(m, alice, data)
		runTransform(m, alice, asset)
		second, err := m.MintAsset(alice, "alice", data, zkdet.RandomKey())
		if err != nil {
			log.Fatalf("mint: %v", err)
		}
		runExchange(m, alice, bob, second, *price)
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		flag.Usage()
		os.Exit(2)
	}

	if err := m.Chain.VerifyIntegrity(); err != nil {
		log.Fatalf("chain integrity: %v", err)
	}
	fmt.Printf("• chain at height %d, integrity verified\n", m.Chain.Height())
}

func runMint(m *zkdet.Marketplace, owner zkdet.Address, data zkdet.Dataset) *zkdet.Asset {
	asset, err := m.MintAsset(owner, "alice", data, zkdet.RandomKey())
	if err != nil {
		log.Fatalf("mint: %v", err)
	}
	if err := m.Sys.VerifyEncryption(asset.Statement, asset.EncProof); err != nil {
		log.Fatalf("π_e: %v", err)
	}
	fmt.Printf("• minted token #%d (π_e verified, ciphertext at %s…)\n",
		asset.TokenID, asset.URI.String()[:12])
	return asset
}

func runTransform(m *zkdet.Marketplace, owner zkdet.Address, asset *zkdet.Asset) {
	dup, err := m.Duplicate(owner, "alice", asset)
	if err != nil {
		log.Fatalf("duplicate: %v", err)
	}
	if err := m.Sys.VerifyTransform(dup.Proof, nil); err != nil {
		log.Fatalf("π_t: %v", err)
	}
	fmt.Printf("• duplicated #%d → #%d (π_t verified)\n", asset.TokenID, dup.Assets[0].TokenID)

	agg, err := m.Aggregate(owner, "alice", []*zkdet.Asset{asset, dup.Assets[0]})
	if err != nil {
		log.Fatalf("aggregate: %v", err)
	}
	fmt.Printf("• aggregated #%d+#%d → #%d (π_t verified: %v)\n",
		asset.TokenID, dup.Assets[0].TokenID, agg.Assets[0].TokenID,
		m.Sys.VerifyTransform(agg.Proof, nil) == nil)

	n := len(agg.Assets[0].Data)
	part, err := m.Partition(owner, "alice", agg.Assets[0], []int{n / 2, n - n/2})
	if err != nil {
		log.Fatalf("partition: %v", err)
	}
	fmt.Printf("• partitioned #%d → #%d,#%d (π_t verified: %v)\n",
		agg.Assets[0].TokenID, part.Assets[0].TokenID, part.Assets[1].TokenID,
		m.Sys.VerifyTransform(part.Proof, nil) == nil)

	lineage, err := m.Trace(part.Assets[0].TokenID)
	if err != nil {
		log.Fatalf("trace: %v", err)
	}
	fmt.Printf("• provenance of #%d:\n", part.Assets[0].TokenID)
	for _, tok := range lineage {
		fmt.Printf("    #%d %-11s prev=%v\n", tok.ID, tok.Kind, tok.Parents)
	}
}

func runExchange(m *zkdet.Marketplace, seller, buyer zkdet.Address, asset *zkdet.Asset, price uint64) {
	sellerBefore := m.Chain.BalanceOf(seller)
	got, err := m.SellViaEscrow(uint64(asset.TokenID), seller, buyer, asset, zkdet.TruePredicate{}, price)
	if err != nil {
		log.Fatalf("exchange: %v", err)
	}
	fmt.Printf("• key-secure exchange settled: buyer received %d entries, seller earned %d\n",
		len(got), m.Chain.BalanceOf(seller)-sellerBefore)
	var sample fr.Element
	sample.Set(&got[0])
	fmt.Printf("  first decrypted entry: %s\n", sample.String())
}

// Command modeltrading demonstrates §IV-E1: computational delegation on the
// data marketplace. Alice owns a labelled dataset; she trains a logistic
// regression model on it and mints the model as a *derived* data asset
// whose NFT carries a zero-knowledge proof that the parameters genuinely
// converged on the committed training data — without revealing that data.
package main

import (
	"fmt"
	"log"

	"github.com/zkdet/zkdet"
	"github.com/zkdet/zkdet/internal/apps/logreg"
)

func main() {
	log.SetFlags(0)

	sys, err := zkdet.NewSystem(1 << 15)
	if err != nil {
		log.Fatalf("setup: %v", err)
	}
	m, _, err := zkdet.NewMarketplace(sys)
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	alice := zkdet.AddressFromString("alice")

	// A small labelled dataset: y = 1 iff the two features are large.
	samples := []logreg.Sample{
		{X: []float64{0.1, 0.2}, Y: 0},
		{X: []float64{0.2, 0.1}, Y: 0},
		{X: []float64{0.3, 0.3}, Y: 0},
		{X: []float64{0.2, 0.4}, Y: 0},
		{X: []float64{0.9, 0.8}, Y: 1},
		{X: []float64{0.8, 0.9}, Y: 1},
		{X: []float64{1.0, 0.7}, Y: 1},
		{X: []float64{0.7, 1.0}, Y: 1},
	}
	data, err := logreg.EncodeSamples(samples)
	if err != nil {
		log.Fatalf("encode: %v", err)
	}
	asset, err := m.MintAsset(alice, "alice", data, zkdet.RandomKey())
	if err != nil {
		log.Fatalf("mint: %v", err)
	}
	fmt.Printf("• training data minted as token #%d (plaintext stays private)\n", asset.TokenID)

	// Train + prove: the Processor's circuit asserts ‖∇J(β)‖∞ ≤ ε over
	// the committed samples, the §IV-E1 convergence predicate.
	trainer := &logreg.Trainer{
		N: len(samples), K: 2,
		Step: 0.5, Lambda: 0.05, MaxIters: 5000, Epsilon: 0.02,
	}
	fmt.Println("• training the model and proving convergence in zero knowledge…")
	result, err := m.Process(alice, "alice", asset, trainer)
	if err != nil {
		log.Fatalf("process: %v", err)
	}
	modelAsset := result.Assets[0]
	fmt.Printf("• model minted as derived token #%d (prevIds → #%d)\n",
		modelAsset.TokenID, asset.TokenID)

	// Any third party verifies the training proof against the public
	// commitments — this is what a model buyer checks before paying.
	if err := m.Sys.VerifyTransform(result.Proof, trainer); err != nil {
		log.Fatalf("training proof rejected: %v", err)
	}
	fmt.Println("• π_t(processing) verified: the committed model converged on the committed data")

	// The model owner can decode and use it.
	model, err := logreg.DecodeModel(modelAsset.Data)
	if err != nil {
		log.Fatalf("decode model: %v", err)
	}
	fmt.Printf("• model: bias=%.3f weights=%.3f,%.3f\n", model.Bias, model.Weights[0], model.Weights[1])
	fmt.Printf("  predict(0.1,0.1)=%.2f  predict(0.9,0.9)=%.2f\n",
		model.Predict([]float64{0.1, 0.1}), model.Predict([]float64{0.9, 0.9}))

	// The model is a first-class asset: trace shows its provenance.
	lineage, err := m.Trace(modelAsset.TokenID)
	if err != nil {
		log.Fatalf("trace: %v", err)
	}
	fmt.Printf("• provenance of token #%d:\n", modelAsset.TokenID)
	for _, tok := range lineage {
		fmt.Printf("    #%d  %-11s prev=%v\n", tok.ID, tok.Kind, tok.Parents)
	}
}

package logreg

import (
	"testing"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/plonk"
)

// TestTrainerLookupGadgetSatisfiable compiles the convergence predicate
// under the lookup lowering and checks the witness still satisfies it —
// with several times fewer constraints than the classic compilation.
func TestTrainerLookupGadgetSatisfiable(t *testing.T) {
	samples := tinySamples()
	data, err := EncodeSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	trainer := &Trainer{N: len(samples), K: 2, Step: 0.5, Lambda: 0.05, MaxIters: 5000, Epsilon: 0.02}

	build := func(lookups bool) (int, error) {
		b := circuit.NewBuilder()
		if lookups {
			b.EnableLookups()
		}
		wires := make([]circuit.Variable, len(data))
		for i := range data {
			wires[i] = b.Secret(data[i])
		}
		trainer.Gadget(b, wires)
		cs, w, err := b.Compile()
		if err != nil {
			return 0, err
		}
		return cs.NbGates(), cs.IsSatisfied(w)
	}

	classic, err := build(false)
	if err != nil {
		t.Fatalf("classic: %v", err)
	}
	lookup, err := build(true)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if lookup*3 > classic {
		t.Fatalf("lookup circuit not ≥3x smaller: %d vs %d constraints", lookup, classic)
	}
	t.Logf("convergence predicate: %d classic vs %d lookup constraints", classic, lookup)
}

// TestTrainerLookupEndToEndProof runs the full π_t pipeline and checks the
// proof is on the range table plus custom gates (the 998-byte shape), and
// that it does not verify under a trainer with another ε: a different
// relation, and a different key.
func TestTrainerLookupEndToEndProof(t *testing.T) {
	if testing.Short() {
		t.Skip("SNARK proof skipped in -short mode")
	}
	sys := testSys()
	samples := tinySamples()
	data, err := EncodeSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	trainer := &Trainer{N: len(samples), K: 2, Step: 0.5, Lambda: 0.05, MaxIters: 5000, Epsilon: 0.02}
	cs, os := data.Commit()
	tp, modelEnc, _, err := sys.ProveProcessing(trainer, data, cs, os)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.VerifyTransform(tp, trainer); err != nil {
		t.Fatalf("lookup model-training proof rejected: %v", err)
	}
	if got := len(tp.Proof.Bytes()); got != plonk.MaxProofSize {
		t.Fatalf("model-training proof is %d bytes, want the %d-byte lookup + custom shape", got, plonk.MaxProofSize)
	}
	model, err := DecodeModel(modelEnc)
	if err != nil {
		t.Fatal(err)
	}
	if p := model.Predict([]float64{0.9, 0.9}); p <= 0.5 {
		t.Fatalf("proved model misclassifies: %v", p)
	}

	looser := *trainer
	looser.Epsilon = 0.04
	if err := sys.VerifyTransform(tp, &looser); err == nil {
		t.Fatal("proof verified under a trainer with another ε")
	}
}

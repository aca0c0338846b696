package transformer

import (
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
)

// TestForwardProofLookupEndToEnd checks the inference proof is on the range
// table plus custom gates — the attention normalizations and ReLUs are
// range checks — and that it binds the output: the proof verifies, is a
// lookup + custom proof, and is refused once its derived commitment moves.
func TestForwardProofLookupEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("SNARK proof skipped in -short mode")
	}
	sys := testSys()
	cfg := tinyConfig()
	bl, err := NewBlock(cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cfg.EncodeSequence(tinySequence())
	if err != nil {
		t.Fatal(err)
	}
	cs, os := data.Commit()
	tp, out, _, err := sys.ProveProcessing(bl, data, cs, os)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.VerifyTransform(tp, bl); err != nil {
		t.Fatalf("lookup inference proof rejected: %v", err)
	}
	if len(out) != cfg.SeqLen*cfg.DOut {
		t.Fatalf("derived output has %d elements", len(out))
	}
	if got := len(tp.Proof.Bytes()); got != plonk.MaxProofSize {
		t.Fatalf("inference proof is %d bytes, want the %d-byte lookup + custom shape", got, plonk.MaxProofSize)
	}
	one := fr.One()
	tp.Derived[0].Add(&tp.Derived[0], &one)
	if err := sys.VerifyTransform(tp, bl); err == nil {
		t.Fatal("proof verified for another output commitment")
	}
}

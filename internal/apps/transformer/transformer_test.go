package transformer

import (
	"sync"
	"testing"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/core"
)

var testSys = sync.OnceValue(func() *core.System {
	s, err := core.NewTestSystem(1 << 14)
	if err != nil {
		panic(err)
	}
	return s
})

func tinyConfig() Config {
	return Config{SeqLen: 2, DModel: 3, DK: 2, DFF: 3, DOut: 2}
}

func tinySequence() [][]float64 {
	return [][]float64{
		{0.5, -0.3, 0.2},
		{-0.1, 0.4, 0.6},
	}
}

func TestConfigValidate(t *testing.T) {
	if err := tinyConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Config{SeqLen: 0, DModel: 1, DK: 1, DFF: 1, DOut: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero seqlen accepted")
	}
	if _, err := NewBlock(bad, 1); err == nil {
		t.Fatal("NewBlock accepted bad config")
	}
}

func TestParamCount(t *testing.T) {
	c := tinyConfig()
	want := 3*3*2 + 2*3 + 3 + 3*2 + 2 // 18+6+3+6+2 = 35
	if got := c.ParamCount(); got != want {
		t.Fatalf("param count %d, want %d", got, want)
	}
}

func TestEncodeDecode(t *testing.T) {
	cfg := tinyConfig()
	d, err := cfg.EncodeSequence(tinySequence())
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != cfg.SeqLen*cfg.DModel {
		t.Fatalf("encoded length %d", len(d))
	}
	if _, err := cfg.EncodeSequence(tinySequence()[:1]); err == nil {
		t.Fatal("short sequence encoded")
	}
	if _, err := cfg.DecodeOutput(d); err == nil {
		t.Fatal("wrong-size output decoded")
	}
}

func TestApplyMatchesGadget(t *testing.T) {
	cfg := tinyConfig()
	bl, err := NewBlock(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cfg.EncodeSequence(tinySequence())
	if err != nil {
		t.Fatal(err)
	}
	out, err := bl.Apply(data)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the gadget on the classic lowering and compare wire values:
	// Apply runs it on the range table, and both must compute the same.
	b := circuit.NewBuilder()
	wires := make([]circuit.Variable, len(data))
	for i := range data {
		wires[i] = b.Secret(data[i])
	}
	gadgetOut := bl.Gadget(b, wires)
	if len(gadgetOut) != len(out) {
		t.Fatalf("gadget output %d wires, Apply %d", len(gadgetOut), len(out))
	}
	for i := range out {
		got := b.Value(gadgetOut[i])
		if !got.Equal(&out[i]) {
			t.Fatalf("output %d: gadget and Apply disagree", i)
		}
	}
	// The constraints are satisfiable.
	cs, w, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.IsSatisfied(w); err != nil {
		t.Fatalf("forward-pass constraints unsatisfied: %v", err)
	}
}

func TestApproximationClosesToReference(t *testing.T) {
	cfg := tinyConfig()
	bl, err := NewBlock(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	seq := tinySequence()
	data, err := cfg.EncodeSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := bl.Apply(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cfg.DecodeOutput(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := bl.ReferenceForward(seq)
	for i := range want {
		for j := range want[i] {
			diff := got[i][j] - want[i][j]
			if diff < 0 {
				diff = -diff
			}
			// Cubic-Taylor softmax + fixed point: within 5% absolute on
			// these bounded activations.
			if diff > 0.05 {
				t.Fatalf("output[%d][%d]: circuit %v vs reference %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestApplyRejectsWrongSize(t *testing.T) {
	cfg := tinyConfig()
	bl, err := NewBlock(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.Apply(make(core.Dataset, 5)); err == nil {
		t.Fatal("wrong-size input accepted")
	}
}

func TestForwardProofEndToEnd(t *testing.T) {
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
		t.Fatalf("inference proof rejected: %v", err)
	}
	if len(out) != cfg.SeqLen*cfg.DOut {
		t.Fatalf("derived output has %d elements", len(out))
	}
	// A different block (other weights) must not verify the same proof.
	other, err := NewBlock(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.VerifyTransform(tp, other); err == nil {
		t.Fatal("proof verified under different weights")
	}
}

func TestDeterministicWeights(t *testing.T) {
	a, err := NewBlock(tinyConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBlock(tinyConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Wq[0][0] != b.Wq[0][0] || a.B2[0] != b.B2[0] {
		t.Fatal("same seed, different weights")
	}
	c, err := NewBlock(tinyConfig(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Wq[0][0] == c.Wq[0][0] {
		t.Fatal("different seeds, same weights")
	}
}

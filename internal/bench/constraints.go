package bench

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/apps/logreg"
	"github.com/zkdet/zkdet/internal/apps/transformer"
	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/mimc"
	"github.com/zkdet/zkdet/internal/poseidon"
)

// countGates runs build against a fresh builder and returns the number of
// gates it appended. With lookups true the builder has the range table and
// custom gates enabled.
func countGates(lookups bool, build func(b *circuit.Builder)) int {
	b := circuit.NewBuilder()
	if lookups {
		b.EnableLookups(circuit.DefaultRangeTableBits)
		b.EnableCustomGates()
	}
	before := b.NbGates()
	build(b)
	return b.NbGates() - before
}

// gadget is one row of a constraint table: build counted under the classic
// compilation and under the lookup/custom-gate lowering (DESIGN.md §15).
type gadget struct {
	name  string
	build func(b *circuit.Builder)
	note  string
}

// gateTable counts every gadget both ways.
func gateTable(gadgets ...gadget) Table {
	t := Table{Header: []string{"gadget", "classic", "lookup/custom", "ratio", "note"}}
	for _, g := range gadgets {
		classic, lowered := countGates(false, g.build), countGates(true, g.build)
		t.Rows = append(t.Rows, []any{g.name, classic, lowered, fmt.Sprintf("%.1fx", float64(classic)/float64(lowered)), g.note})
	}
	return t
}

// mimcBlock is one bare MiMC block encryption, GadgetEncrypt: the cipher of
// π_e, and the step of the Miyaguchi–Preneel hash before its two additions.
func mimcBlock(b *circuit.Builder) {
	mimc.GadgetEncrypt(b, b.Secret(fr.NewElement(1)), b.Secret(fr.NewElement(2)))
}

// poseidonPermutation is one permutation of the commitment's sponge
// (width 3, rate 2).
func poseidonPermutation(b *circuit.Builder) {
	poseidon.GadgetPermute(b, [3]circuit.Variable{
		b.Secret(fr.NewElement(1)), b.Secret(fr.NewElement(2)), b.Secret(fr.NewElement(3)),
	})
}

// constraintReport counts the gadgets behind the lookup-argument
// evaluation: range checks and comparisons (lookup rows vs bit
// decomposition), hash rounds (custom gates vs arithmetic lowering), and
// the ML predicates that compose them.
func constraintReport(*Session) ([]Table, error) {
	trainer := &logreg.Trainer{N: 6, K: 2, Step: 0.5, Lambda: 0.05, MaxIters: 50, Epsilon: 0.05}
	cfgT := transformer.Config{SeqLen: 2, DModel: 2, DK: 2, DFF: 2, DOut: 2}
	block, err := transformer.NewBlock(cfgT, 7)
	if err != nil {
		return nil, err
	}
	secrets := func(b *circuit.Builder, n int) []circuit.Variable {
		wires := make([]circuit.Variable, n)
		for i := range wires {
			wires[i] = b.Secret(fr.Element{})
		}
		return wires
	}
	t := gateTable(
		gadget{"AssertRange 16-bit", func(b *circuit.Builder) {
			b.AssertRange(b.Secret(fr.NewElement(1234)), 16)
		}, "2 lookups vs 16 booleans"},
		gadget{"AssertRange 85-bit", func(b *circuit.Builder) {
			b.AssertRange(b.Secret(fr.NewElement(1234)), 85)
		}, "fixed-point rescale bound"},
		gadget{"IsLess 32-bit", func(b *circuit.Builder) {
			b.IsLess(b.Secret(fr.NewElement(5)), b.Secret(fr.NewElement(9)), 32)
		}, "top-bit probe vs full decomposition"},
		gadget{"FixedMul (rescale)", func(b *circuit.Builder) {
			b.FixedMul(b.Secret(circuit.FixedFromFloat(1.5)), b.Secret(circuit.FixedFromFloat(2.5)))
		}, "two range checks per product"},
		gadget{"ReLU 20-bit", func(b *circuit.Builder) {
			b.ReLU(b.Secret(circuit.FixedFromFloat(-1.0)), 20)
		}, "sign probe + select"},
		gadget{"MiMC block (91 rounds)", mimcBlock, "1 custom row per round"},
		gadget{"Poseidon permutation", poseidonPermutation, "1 custom row per round"},
		gadget{fmt.Sprintf("LogReg convergence (%dx%d)", trainer.N, trainer.K), func(b *circuit.Builder) {
			wires := secrets(b, 2+trainer.N*(trainer.K+1))
			wires[0] = b.Secret(fr.NewElement(uint64(trainer.N)))
			wires[1] = b.Secret(fr.NewElement(uint64(trainer.K)))
			trainer.Gadget(b, wires)
		}, "gradient bound per feature"},
		gadget{fmt.Sprintf("Transformer block (m=%d,d=%d)", cfgT.SeqLen, cfgT.DModel), func(b *circuit.Builder) {
			block.Gadget(b, secrets(b, cfgT.SeqLen*cfgT.DModel))
		}, "attention normalizations + ReLUs"},
	)
	t.Caption = "The lookup lowering checks ranges against a 12-bit table, one lookup row per limb, and runs each hash round as one custom-gate row."
	return []Table{t}, nil
}

// ablationCipher quantifies §IV-C1: MiMC's per-block circuit cost against a
// boolean ARX permutation (the structure AES/SHA-class ciphers are made
// of), both built and counted.
func ablationCipher(*Session) ([]Table, error) {
	// 16 rounds on two 32-bit words: each round two 32-bit decompositions,
	// a modular add and xors.
	arx := func(b *circuit.Builder) {
		x := b.Secret(fr.NewElement(0x12345678))
		y := b.Secret(fr.NewElement(0x9abcdef0))
		for range 16 {
			x = b.FromBits(b.ToBits(b.Add(x, y), 33)[:32]) // mod 2^32 by truncation
			yBits, xBits := b.ToBits(y, 32), b.ToBits(x, 32)
			z := make([]circuit.Variable, 32)
			for i := range z {
				z[i] = b.Xor(xBits[i], yBits[(i+7)%32])
			}
			y = b.FromBits(z)
		}
	}
	t := gateTable(
		gadget{"MiMC-p/p (91 rounds, x^7)", mimcBlock, "per field element (~31 bytes)"},
		gadget{"boolean ARX (16 rounds, 64-bit state)", arx, "per 8 bytes: ~4 blocks per element"})
	t.Rows = append(t.Rows, []any{"AES-128 (literature, [12])", 160000, "—", "—", "per 16-byte block, optimized boolean circuit"})
	return []Table{t}, nil
}

// ablationCommitment quantifies §IV-C2: a Poseidon permutation against the
// bare MiMC block a rate-1 hash pays per element, and against Pedersen.
func ablationCommitment(*Session) ([]Table, error) {
	t := gateTable(
		gadget{"Poseidon permutation (t=3, rate 2)", poseidonPermutation, "absorbs 2 elements"},
		gadget{"MiMC block (GadgetEncrypt, rate 1)", mimcBlock, "absorbs 1 element; Miyaguchi–Preneel adds 2 additions"})
	t.Rows = append(t.Rows, []any{"Pedersen commitment (literature, [8])", 8 * t.Rows[0][1].(int), "—", "—", "~8x Poseidon per the paper"})
	return []Table{t}, nil
}

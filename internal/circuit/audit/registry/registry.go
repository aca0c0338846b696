// Package registry names every application circuit the soundness auditor
// covers: raw gadget compositions (range checks, comparisons, fixed-point
// arithmetic, boolean logic), the hash gadgets and the Poseidon keystream
// cipher in both classic and custom-gate lowering, the core π-family
// (encryption, transformation, validation, key negotiation), and the ML
// processors (logistic regression, transformer), each as its gadget on the
// classic lowering and as the production π_t on the range table plus custom
// gates.
//
// `zkdet-lint -audit` and `make audit` run the auditor over every entry;
// the mutation tests in this package delete single gates from each entry
// and assert the auditor flags the mutant.
package registry

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/apps/logreg"
	"github.com/zkdet/zkdet/internal/apps/transformer"
	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/ct"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/mimc"
	"github.com/zkdet/zkdet/internal/poseidon"
)

// Entry is one registered circuit: Build constructs it with a full
// witness and returns the auditor snapshot.
type Entry struct {
	Name  string
	Build func() (*circuit.AuditInfo, error)
}

// snapshot finalizes a builder into a named audit snapshot.
func snapshot(name string, b *circuit.Builder) (*circuit.AuditInfo, error) {
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("registry: %s: %w", name, err)
	}
	info := b.AuditInfo()
	info.Name = name
	return info, nil
}

// exposed anchors a gadget output the way production circuits do: by
// asserting it equal to a public input carrying its computed value.
func exposed(b *circuit.Builder, v circuit.Variable) {
	b.AssertEqual(v, b.Public(b.Value(v)))
}

// Entries returns every registered circuit.
func Entries() []Entry {
	entries := []Entry{
		{Name: "gadgets/range16-classic", Build: func() (*circuit.AuditInfo, error) {
			b := circuit.NewBuilder()
			x := b.Secret(fr.NewElement(51234))
			b.AssertRange(x, 16)
			return snapshot("gadgets/range16-classic", b)
		}},
		{Name: "gadgets/range85-lk", Build: func() (*circuit.AuditInfo, error) {
			b := circuit.NewBuilder()
			b.EnableLookups()
			x := b.Secret(fr.NewElement(1 << 40))
			b.AssertRange(x, 85)
			y := b.Secret(fr.NewElement(300))
			b.AssertRange(y, 9) // single-limb path (9 < table bits)
			return snapshot("gadgets/range85-lk", b)
		}},
		{Name: "gadgets/compare-classic", Build: func() (*circuit.AuditInfo, error) {
			b := circuit.NewBuilder()
			x := b.Secret(fr.NewElement(100))
			y := b.Secret(fr.NewElement(4000))
			b.AssertLess(x, y, 16)
			le := b.IsLessOrEqual(x, y, 16)
			exposed(b, le)
			return snapshot("gadgets/compare-classic", b)
		}},
		{Name: "gadgets/compare-lk", Build: func() (*circuit.AuditInfo, error) {
			b := circuit.NewBuilder()
			b.EnableLookups()
			x := b.Secret(fr.NewElement(100))
			y := b.Secret(fr.NewElement(4000))
			b.AssertLess(x, y, 16)
			lt := b.IsLess(y, x, 16)
			exposed(b, lt)
			return snapshot("gadgets/compare-lk", b)
		}},
		{Name: "gadgets/boolean", Build: func() (*circuit.AuditInfo, error) {
			b := circuit.NewBuilder()
			x := b.Secret(fr.NewElement(1))
			y := b.Secret(fr.NewElement(0))
			b.AssertBoolean(x)
			b.AssertBoolean(y)
			z := b.Xor(b.And(x, y), b.Or(x, b.Not(y)))
			sel := b.Select(z, x, y)
			eq := b.IsEqual(sel, x)
			exposed(b, eq)
			return snapshot("gadgets/boolean", b)
		}},
		{Name: "gadgets/fixedpoint", Build: func() (*circuit.AuditInfo, error) {
			b := circuit.NewBuilder()
			x := b.Secret(circuit.FixedFromFloat(1.5))
			y := b.Secret(circuit.FixedFromFloat(2.25))
			prod := b.FixedMul(x, y)
			exposed(b, prod)
			r := b.ReLU(b.Sub(x, y), 40)
			exposed(b, r)
			q := b.FixedDivPos(x, y, 40)
			exposed(b, q)
			b.AbsDiffLessOrEqual(x, y, circuit.FixedFromFloat(4.0), 40)
			return snapshot("gadgets/fixedpoint", b)
		}},
		{Name: "hash/mimc-classic", Build: func() (*circuit.AuditInfo, error) {
			b := circuit.NewBuilder()
			msg := []circuit.Variable{b.Secret(fr.NewElement(5)), b.Secret(fr.NewElement(6))}
			exposed(b, mimc.GadgetHash(b, msg))
			return snapshot("hash/mimc-classic", b)
		}},
		{Name: "hash/poseidon-classic", Build: func() (*circuit.AuditInfo, error) {
			b := circuit.NewBuilder()
			msg := []circuit.Variable{b.Secret(fr.NewElement(7)), b.Secret(fr.NewElement(8)), b.Secret(fr.NewElement(9))}
			exposed(b, poseidon.GadgetHash(b, msg))
			return snapshot("hash/poseidon-classic", b)
		}},
		{Name: "hash/poseidon-custom", Build: func() (*circuit.AuditInfo, error) {
			b := circuit.NewBuilder()
			b.EnableCustomGates()
			msg := []circuit.Variable{b.Secret(fr.NewElement(7)), b.Secret(fr.NewElement(8)), b.Secret(fr.NewElement(9))}
			exposed(b, poseidon.GadgetHash(b, msg))
			return snapshot("hash/poseidon-custom", b)
		}},
		{Name: "ct/pi_ct", Build: func() (*circuit.AuditInfo, error) {
			// The confidential-token range circuit: AssertRange(v, 24) over
			// the lookup table plus the sigma-glue equations binding v to
			// the transfer proof's response and nonce commitment.
			return snapshot("ct/pi_ct", ct.AuditRangeCircuit())
		}},
	}

	for _, custom := range []bool{false, true} {
		name := "cipher/poseidon-ctr-classic"
		if custom {
			name = "cipher/poseidon-ctr-custom"
		}
		entries = append(entries, Entry{Name: name, Build: func() (*circuit.AuditInfo, error) {
			// Three elements: one full keystream block and an odd tail
			// that discards lane 1 of its block.
			b := circuit.NewBuilder()
			if custom {
				b.EnableCustomGates()
			}
			k, nonce := b.Secret(fr.NewElement(11)), b.Public(fr.NewElement(12))
			pt := []circuit.Variable{b.Secret(fr.NewElement(1)), b.Secret(fr.NewElement(2)), b.Secret(fr.NewElement(3))}
			for _, c := range poseidon.GadgetEncryptCTR(b, k, nonce, pt) {
				exposed(b, c)
			}
			return snapshot(name, b)
		}})
	}

	for _, ac := range core.AuditCircuits() {
		ac := ac
		entries = append(entries, Entry{Name: ac.Name, Build: func() (*circuit.AuditInfo, error) {
			b, err := ac.Build()
			if err != nil {
				return nil, err
			}
			return snapshot(ac.Name, b)
		}})
	}

	entries = append(entries, appEntries("apps/logreg", func() (core.Processor, core.Dataset, error) {
		samples := []logreg.Sample{
			{X: []float64{0.1, 0.2}, Y: 0},
			{X: []float64{0.9, 0.8}, Y: 1},
			{X: []float64{0.8, 0.9}, Y: 1},
		}
		data, err := logreg.EncodeSamples(samples)
		if err != nil {
			return nil, nil, err
		}
		trainer := &logreg.Trainer{
			N: len(samples), K: 2, Step: 0.5, Lambda: 0.05,
			MaxIters: 5000, Epsilon: 0.05,
		}
		return trainer, data, nil
	})...)

	entries = append(entries, appEntries("apps/transformer", func() (core.Processor, core.Dataset, error) {
		cfg := transformer.Config{SeqLen: 2, DModel: 3, DK: 2, DFF: 3, DOut: 2}
		bl, err := transformer.NewBlock(cfg, 42)
		if err != nil {
			return nil, nil, err
		}
		data, err := cfg.EncodeSequence([][]float64{
			{0.5, -0.3, 0.2},
			{-0.1, 0.4, 0.6},
		})
		if err != nil {
			return nil, nil, err
		}
		return bl, data, nil
	})...)
	return entries
}

// appEntries registers an ML processor twice. The plain name audits its
// gadget alone on the classic lowering, range checks decomposed into bits,
// with every output exposed; the "-lk" name audits the production π_t that
// proves it, on the range table plus custom gates.
func appEntries(name string, instance func() (core.Processor, core.Dataset, error)) []Entry {
	return []Entry{
		{Name: name, Build: func() (*circuit.AuditInfo, error) {
			p, data, err := instance()
			if err != nil {
				return nil, err
			}
			b := circuit.NewBuilder()
			src := make([]circuit.Variable, len(data))
			for i := range data {
				src[i] = b.Secret(data[i])
			}
			for _, v := range p.Gadget(b, src) {
				exposed(b, v)
			}
			return snapshot(name, b)
		}},
		{Name: name + "-lk", Build: func() (*circuit.AuditInfo, error) {
			p, data, err := instance()
			if err != nil {
				return nil, err
			}
			b, err := core.AuditProcessingCircuit(p, data)
			if err != nil {
				return nil, err
			}
			return snapshot(name+"-lk", b)
		}},
	}
}

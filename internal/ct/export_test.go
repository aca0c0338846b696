package ct

import (
	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/poseidon"
)

// Hooks for the external tests in shape_test.go, which drive π_ct through
// the contracts package (importing it from package ct would be a cycle).
var (
	SharedTestProver = testProver
	ProveSigma       = proveSigma
)

// LookupRangeCircuit is π_ct's relation on the lowering it proved on before
// it moved to custom gates: AssertRange on the 2^12 range table, Poseidon
// on classic gates, 2 691 rows padded to a 4 096-row domain. It is kept
// frozen so tests can make the proofs a key of that shape produced.
func LookupRangeCircuit(e fr.Element, live []RangeSlot) *circuit.Builder {
	b := circuit.NewBuilder()
	b.EnableLookups(circuit.DefaultRangeTableBits)
	eV := b.Public(e)
	for i := 0; i < RangeSlots; i++ {
		s := RangeSlot{PT: dummyPT}
		if i < len(live) {
			s = live[i]
		}
		zvV := b.Public(s.ZV)
		ptV := b.Public(s.PT)
		vV := b.Secret(s.V)
		tvV := b.Secret(s.TV)
		stV := b.Secret(s.ST)
		b.AssertRange(vV, RangeBits)
		b.AssertEqual(b.Add(tvV, b.Mul(eV, vV)), zvV)
		b.AssertEqual(poseidon.GadgetCommit(b, []circuit.Variable{tvV}, stV), ptV)
	}
	return b
}

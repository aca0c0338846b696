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

// LookupRangeCircuit is π_ct's relation on the lowering a processing π_t
// proves on: AssertRange on the 2^12 range table and Poseidon on custom
// gates, padded to the table's 4 096-row domain. The deployed π_ct key is
// custom gates alone on 512 rows, so a key of this shape makes honest
// proofs of π_ct's statement that the range verifier must refuse.
func LookupRangeCircuit(e fr.Element, live []RangeSlot) *circuit.Builder {
	b := circuit.NewBuilder()
	b.EnableLookups()
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

package plonk

import (
	"errors"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// buildLookupCircuit returns a lookup circuit: the given number of Poseidon
// round rows, pinned to the one public input (buildPoseidonCustomCircuit),
// then one lookup row per value of vals against the range table [0, 2^bits).
func buildLookupCircuit(rounds, bits int, vals []uint64) (*ConstraintSystem, []fr.Element) {
	cs, witness := buildPoseidonCustomCircuit(rounds)
	if err := cs.UseRangeTable(bits); err != nil {
		panic(err)
	}
	for _, v := range vals {
		idx := cs.NewVariable()
		witness = append(witness, fr.NewElement(v))
		cs.MustAddGate(Gate{Kind: KindLookup, A: idx, B: idx, C: idx})
	}
	return cs, witness
}

// TestLookupProveVerify proves a circuit of seven lookups beside one
// Poseidon round: the key is lookup + custom, its domain covers the 2^8
// table, the proof carries the custom shape's two quotient pieces, and a
// wrong public input fails.
func TestLookupProveVerify(t *testing.T) {
	cs, witness := buildLookupCircuit(1, 8, []uint64{0, 1, 42, 42, 255, 128, 42})
	if err := cs.IsSatisfied(witness); err != nil {
		t.Fatal(err)
	}
	pk, vk, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	if vk.shape() != shapeLookup|shapeCustom {
		t.Fatalf("want a lookup + custom key, got flags %#02x", byte(vk.shape()))
	}
	if vk.N != 256 {
		t.Fatalf("domain must cover the table: n=%d", vk.N)
	}
	proof, err := Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	if len(proof.T) != 2 {
		t.Fatalf("lookup + custom proof must carry 2 quotient pieces, got %d", len(proof.T))
	}
	if err := Verify(vk, proof, witness[:1]); err != nil {
		t.Fatal(err)
	}
	// Wrong public input must fail.
	if err := Verify(vk, proof, []fr.Element{fr.NewElement(8)}); err == nil {
		t.Fatal("wrong public input accepted")
	}
}

func TestLookupOutOfTable(t *testing.T) {
	cs, witness := buildLookupCircuit(1, 8, []uint64{3, 256})
	if err := cs.IsSatisfied(witness); !errors.Is(err, ErrLookupRange) {
		t.Fatalf("IsSatisfied: got %v, want ErrLookupRange", err)
	}
	pk, _, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Prove(pk, witness); !errors.Is(err, ErrLookupRange) {
		t.Fatalf("Prove: got %v, want ErrLookupRange", err)
	}
}

// TestLookupOnlyShapeRefused: there is no lookup-only shape and no classic
// one. A constraint system of lookup rows without a custom gate sets up on
// the lookup + custom shape, zero Poseidon selectors beside its lookups, and
// its 998-byte proof verifies. The decoder refuses flags 0x01 (lookup
// without custom gates) and 0x00 (classic) with ErrProofShape, whatever the
// blob's length — the classic 646 bytes among them — each without a panic.
func TestLookupOnlyShapeRefused(t *testing.T) {
	cs := NewConstraintSystem(1)
	if err := cs.UseRangeTable(8); err != nil {
		t.Fatal(err)
	}
	witness := []fr.Element{fr.NewElement(9)}
	for _, v := range []uint64{0, 200, 255} {
		idx := cs.NewVariable()
		witness = append(witness, fr.NewElement(v))
		cs.MustAddGate(Gate{Kind: KindLookup, A: idx, B: idx, C: idx})
	}
	pk, vk, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatalf("Setup of a lookup-only system: %v", err)
	}
	if vk.shape() != shapeLookup|shapeCustom || vk.N != 256 {
		t.Fatalf("lookup-only system set up with flags %#02x on %d rows, want 0x03 on 256", byte(vk.shape()), vk.N)
	}
	proof, err := Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	if size := len(proof.Bytes()); size != MaxProofSize {
		t.Fatalf("lookup-only system's proof is %d bytes, want %d", size, MaxProofSize)
	}
	if err := Verify(vk, proof, witness[:1]); err != nil {
		t.Fatalf("lookup-only system's proof rejected: %v", err)
	}

	const classicSize = 646
	for _, flags := range []shape{shapeLookup, 0} {
		header := append(append([]byte{}, proofMagic[:]...), proofVersion, byte(flags))
		for _, size := range []int{headerSize, classicSize, ProofSize, MaxProofSize} {
			blob := make([]byte, size)
			copy(blob, header)
			if _, err := ProofFromBytes(blob); !errors.Is(err, ErrProofShape) {
				t.Fatalf("%d-byte blob with flags %#02x: %v, want ErrProofShape", size, byte(flags), err)
			}
		}
	}
}

// testMDS is an arbitrary invertible matrix: gate semantics don't care
// which MDS is used as long as prover, verifier and reference agree.
func testMDS() [3][3]fr.Element {
	var m [3][3]fr.Element
	for l := 0; l < 3; l++ {
		for j := 0; j < 3; j++ {
			m[l][j] = fr.NewElement(uint64(l*3 + j + 2))
		}
	}
	m[0][0] = fr.NewElement(17)
	return m
}

// poseidonRoundRef is one custom row's next state: MDS·w^5 + k, with only
// lane 0 S-boxed on a partial round (the wires already carry the round's
// constants; k adds the next round's).
func poseidonRoundRef(mds [3][3]fr.Element, w, k [3]fr.Element, full bool) [3]fr.Element {
	var sb [3]fr.Element
	for j := 0; j < 3; j++ {
		t := w[j]
		if full || j == 0 {
			var t2 fr.Element
			t2.Square(&t)
			t2.Square(&t2)
			t.Mul(&t2, &t)
		}
		sb[j] = t
	}
	out := k
	for l := 0; l < 3; l++ {
		for j := 0; j < 3; j++ {
			var t fr.Element
			t.Mul(&mds[l][j], &sb[j])
			out[l].Add(&out[l], &t)
		}
	}
	return out
}

// buildPoseidonCustomCircuit alternates full and partial rounds, one row
// each, and pins the first output lane to the public input.
func buildPoseidonCustomCircuit(rounds int) (*ConstraintSystem, []fr.Element) {
	return buildPoseidonChain(rounds, poseidonRoundRef)
}

// buildPoseidonChain is buildPoseidonCustomCircuit with its witness's next
// states computed by round instead of by the row rule.
func buildPoseidonChain(rounds int, round func(mds [3][3]fr.Element, w, k [3]fr.Element, full bool) [3]fr.Element) (*ConstraintSystem, []fr.Element) {
	return buildPoseidonChainFrom([3]fr.Element{fr.NewElement(3), fr.NewElement(4), fr.NewElement(5)}, rounds, round)
}

// buildPoseidonChainFrom is buildPoseidonChain from the given start state:
// every start state yields the same gates and another witness.
func buildPoseidonChainFrom(state [3]fr.Element, rounds int, round func(mds [3][3]fr.Element, w, k [3]fr.Element, full bool) [3]fr.Element) (*ConstraintSystem, []fr.Element) {
	mds := testMDS()
	keys := make([][3]fr.Element, rounds)
	kinds := make([]GateKind, rounds)
	states := make([][3]fr.Element, rounds+1)
	states[0] = state
	for r := 0; r < rounds; r++ {
		for j := 0; j < 3; j++ {
			keys[r][j] = fr.NewElement(uint64(100*r + 10*j + 1))
		}
		kinds[r] = KindPoseidonFull
		if r%2 == 1 {
			kinds[r] = KindPoseidonPartial
		}
		states[r+1] = round(mds, states[r], keys[r], kinds[r] == KindPoseidonFull)
	}

	cs := NewConstraintSystem(1)
	cs.SetPoseidonMDS(mds)
	witness := []fr.Element{states[rounds][0]}
	newVar := func(v fr.Element) int {
		idx := cs.NewVariable()
		witness = append(witness, v)
		return idx
	}
	var rowVars [3]int
	for j := 0; j < 3; j++ {
		rowVars[j] = newVar(states[0][j])
	}
	for r := 0; r < rounds; r++ {
		cs.MustAddGate(Gate{Kind: kinds[r], K: keys[r], A: rowVars[0], B: rowVars[1], C: rowVars[2]})
		for j := 0; j < 3; j++ {
			rowVars[j] = newVar(states[r+1][j])
		}
	}
	// Closing no-op row: the last round's next-row read needs all three
	// lanes of the final state here. Then pin lane 0 to the public input.
	cs.MustAddGate(Gate{A: rowVars[0], B: rowVars[1], C: rowVars[2]})
	one := fr.One()
	var negOne fr.Element
	negOne.Neg(&one)
	cs.MustAddGate(Gate{QL: one, QR: negOne, A: rowVars[0], B: 0, C: rowVars[0]})
	return cs, witness
}

func TestPoseidonCustomGateProveVerify(t *testing.T) {
	cs, witness := buildPoseidonCustomCircuit(6)
	if err := cs.IsSatisfied(witness); err != nil {
		t.Fatal(err)
	}
	pk, vk, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, proof, witness[:1]); err != nil {
		t.Fatal(err)
	}
}

// buildMixedCircuit combines arithmetic, lookup and custom-gate rows in
// one circuit — the shape the ML apps compile to.
func buildMixedCircuit() (*ConstraintSystem, []fr.Element) {
	return buildLookupCircuit(3, 6, []uint64{0, 63, 17, 17})
}

func TestMixedLookupCustomProveVerify(t *testing.T) {
	cs, witness := buildMixedCircuit()
	if err := cs.IsSatisfied(witness); err != nil {
		t.Fatal(err)
	}
	pk, vk, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, proof, witness[:1]); err != nil {
		t.Fatal(err)
	}
}

// TestProofShapeMismatch: a proof verifies only against a key of its own
// shape — a custom proof is refused by a lookup + custom key with
// ErrProofShape, and a lookup + custom proof by a custom key. (LogUp fields
// set on a proof without lookups: rejectEveryCorruption.)
func TestProofShapeMismatch(t *testing.T) {
	shapes := []string{"mimc", "mixed"}
	vks := make([]*VerifyingKey, len(shapes))
	proofs := make([]*Proof, len(shapes))
	for i, name := range shapes {
		cs, w := goldenCircuit(t, name)
		pk, vk, err := Setup(cs, testSRSOnce())
		if err != nil {
			t.Fatal(err)
		}
		if proofs[i], err = Prove(pk, w); err != nil {
			t.Fatal(err)
		}
		vks[i] = vk
	}
	for i := range proofs {
		for j, vk := range vks {
			if i == j {
				continue
			}
			if err := Verify(vk, proofs[i], make([]fr.Element, vk.NbPublic)); !errors.Is(err, ErrProofShape) {
				t.Errorf("%s proof vs %s key: got %v, want ErrProofShape", shapes[i], shapes[j], err)
			}
		}
	}
}

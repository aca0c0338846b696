package circuit

import (
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
)

// TestAssertRangeLookupMatchesClassic checks the lookup lowering of
// AssertRange accepts exactly the values the classic lowering accepts,
// across widths below, at, and above the table width.
func TestAssertRangeLookupMatchesClassic(t *testing.T) {
	cases := []struct {
		bits  int
		value uint64
		ok    bool
	}{
		{8, 255, true},
		{8, 256, false},
		{12, 4095, true},
		{12, 4096, false},
		{16, 65535, true},
		{16, 65536, false},
		{40, 1 << 39, true},
		{40, 1 << 40, false},
		{85, 1 << 62, true},
	}
	for _, tc := range cases {
		b := NewBuilder()
		b.EnableLookups()
		x := b.Secret(fr.NewElement(tc.value))
		b.AssertRange(x, tc.bits)
		cs, witness, err := b.Compile()
		if err != nil {
			t.Fatalf("bits=%d value=%d: compile: %v", tc.bits, tc.value, err)
		}
		if !cs.HasLookup() {
			t.Fatalf("bits=%d: no lookup rows emitted", tc.bits)
		}
		err = cs.IsSatisfied(witness)
		if tc.ok && err != nil {
			t.Fatalf("bits=%d value=%d: rejected: %v", tc.bits, tc.value, err)
		}
		if !tc.ok && err == nil {
			t.Fatalf("bits=%d value=%d: out-of-range accepted", tc.bits, tc.value)
		}
	}
}

// TestAssertRangeLookupCheaper pins the constraint saving: an 85-bit range
// check must cost several times fewer gates with lookups than classically.
func TestAssertRangeLookupCheaper(t *testing.T) {
	classic := NewBuilder()
	x := classic.Secret(fr.NewElement(7))
	classic.AssertRange(x, 85)
	lk := NewBuilder()
	lk.EnableLookups()
	y := lk.Secret(fr.NewElement(7))
	lk.AssertRange(y, 85)
	if lk.NbGates()*3 > classic.NbGates() {
		t.Fatalf("lookup range check too expensive: %d gates vs %d classic", lk.NbGates(), classic.NbGates())
	}
	if lookup, _ := gateKinds(lk); lookup == 0 {
		t.Fatal("lookup range check emitted no lookup rows")
	}
}

// withCustomRow closes b with one Poseidon round on zero wires under a zero
// MDS matrix, whose identity holds trivially, and the row its next-row read
// lands on. plonk.Setup takes lookup rows only beside a custom gate, so a
// test circuit of range checks alone needs one to prove.
func withCustomRow(b *Builder) {
	b.SetPoseidonMDS([3][3]fr.Element{})
	z := b.Secret(fr.Element{})
	b.CustomGate(KindPoseidonFull, z, z, z, [3]fr.Element{})
	b.NoOpRow(z, z, z)
}

// gateKinds counts the recorded lookup and custom (hash-round) rows.
func gateKinds(b *Builder) (lookup, custom int) {
	for i := range b.gates {
		switch b.gates[i].Kind {
		case plonk.KindLookup:
			lookup++
		case plonk.KindArith:
		default:
			custom++
		}
	}
	return lookup, custom
}

// TestComparisonGadgetsWithLookups re-runs the comparison suite under the
// lookup lowering: the gadgets must compute the same booleans.
func TestComparisonGadgetsWithLookups(t *testing.T) {
	b := NewBuilder()
	b.EnableLookups()
	x := b.Secret(fr.NewElement(100))
	y := b.Secret(fr.NewElement(250))
	lt := b.IsLess(x, y, 16)
	b.AssertConst(lt, fr.One())
	ge := b.IsLess(y, x, 16)
	b.AssertConst(ge, fr.Zero())
	le := b.IsLessOrEqual(x, x, 16)
	b.AssertConst(le, fr.One())
	b.AssertLess(x, y, 16)
	b.AssertLessOrEqual(x, y, 16)

	neg := b.Secret(fr.NewFromInt64(-5))
	isNeg := b.isNegative(neg, 20)
	b.AssertConst(isNeg, fr.One())
	pos := b.Secret(fr.NewElement(5))
	isNeg2 := b.isNegative(pos, 20)
	b.AssertConst(isNeg2, fr.Zero())

	r := b.ReLU(neg, 20)
	b.AssertConst(r, fr.Zero())
	r2 := b.ReLU(pos, 20)
	b.AssertConst(r2, fr.NewElement(5))
	checkSatisfied(t, b)
}

// TestFixedPointWithLookups exercises the fixed-point gadgets (whose range
// checks dominate ML circuits) under the lookup lowering, end to end.
func TestFixedPointWithLookups(t *testing.T) {
	b := NewBuilder()
	b.EnableLookups()
	x := b.Secret(FixedFromFloat(1.5))
	y := b.Secret(FixedFromFloat(-2.25))
	p := b.FixedMul(x, y)
	got := FixedToFloat(b.Value(p))
	if got < -3.376 || got > -3.374 {
		t.Fatalf("FixedMul under lookups: got %v, want -3.375", got)
	}
	num := b.Secret(FixedFromFloat(3.0))
	den := b.Secret(FixedFromFloat(2.0))
	q := b.FixedDivPos(num, den, 40)
	if gq := FixedToFloat(b.Value(q)); gq < 1.49 || gq > 1.51 {
		t.Fatalf("FixedDivPos under lookups: got %v, want 1.5", gq)
	}
	b.AbsDiffLessOrEqual(x, x, FixedFromFloat(0.01), 40)
	withCustomRow(b)

	cs, witness, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.IsSatisfied(witness); err != nil {
		t.Fatal(err)
	}
	pk, vk, err := plonk.Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	if !vk.Lookup || vk.N != 1<<DefaultRangeTableBits {
		t.Fatalf("lookup=%v N=%d, want the lookup + custom shape on the 2^12 table", vk.Lookup, vk.N)
	}
	proof, err := plonk.Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	if err := plonk.Verify(vk, proof, b.PublicValues()); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
}

// TestEndToEndSNARKWithLookups is TestEndToEndSNARK's statement compiled
// with the lookup lowering, proving the full pipeline handles the lookup +
// custom proof shape: its range check alone, without a custom gate, sets up
// on that shape (zero Poseidon selectors beside the lookups) and its proof
// verifies, as does the same circuit beside a Poseidon row.
func TestEndToEndSNARKWithLookups(t *testing.T) {
	b := NewBuilder()
	b.EnableLookups()
	x := b.Secret(fr.NewElement(123))
	sq := b.Square(x)
	three := b.MulConst(x, fr.NewElement(3))
	s := b.Add(sq, three)
	s = b.AddConst(s, fr.NewElement(7))
	pub := b.Public(b.Value(s))
	b.AssertEqual(pub, s)
	b.AssertRange(x, 10)

	for _, custom := range []bool{false, true} {
		if custom {
			withCustomRow(b)
		}
		cs, witness, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		pk, vk, err := plonk.Setup(cs, testSRSOnce())
		if err != nil {
			t.Fatalf("custom row %v: %v", custom, err)
		}
		if !vk.Lookup {
			t.Fatalf("custom row %v: the key has no lookup argument", custom)
		}
		proof, err := plonk.Prove(pk, witness)
		if err != nil {
			t.Fatal(err)
		}
		if err := plonk.Verify(vk, proof, b.PublicValues()); err != nil {
			t.Fatalf("custom row %v: valid proof rejected: %v", custom, err)
		}
		if err := plonk.Verify(vk, proof, []fr.Element{fr.NewElement(15506)}); err == nil {
			t.Fatalf("custom row %v: wrong public accepted", custom)
		}
	}
}

// TestLookupMisuseDeferred checks builder misconfigurations surface as
// deferred Compile errors, not panics.
func TestLookupMisuseDeferred(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(fr.NewElement(1))
	b.Lookup(x) // without EnableLookups
	if _, _, err := b.Compile(); err == nil {
		t.Fatal("Lookup without EnableLookups compiled")
	}

	b2 := NewBuilder()
	y := b2.Secret(fr.NewElement(1))
	b2.CustomGate(KindPoseidonFull, y, y, y, [3]fr.Element{})
	if _, _, err := b2.Compile(); err == nil {
		t.Fatal("CustomGate without EnableCustomGates compiled")
	}
}

// TestClassicCompilationUnchanged pins that a builder with lookups off
// produces gates free of lookup/custom markers, so pre-existing circuits
// keep their classic (bit-identical) keys.
func TestClassicCompilationUnchanged(t *testing.T) {
	b := NewBuilder()
	x := b.Secret(fr.NewElement(9))
	b.AssertRange(x, 16)
	b.IsLess(x, b.Secret(fr.NewElement(10)), 8)
	cs, _, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cs.HasLookup() || cs.RangeTableBits() != 0 {
		t.Fatal("classic compilation emitted extended gates")
	}
	if lookup, custom := gateKinds(b); lookup != 0 || custom != 0 {
		t.Fatalf("classic build recorded %d lookup and %d custom rows", lookup, custom)
	}
}

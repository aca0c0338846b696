package poseidon

import (
	"errors"
	"slices"
	"testing"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/plonk"
)

// TestCustomGadgetMatchesNative checks the one-row-per-round lowering
// computes exactly Permute, end to end through Plonk prove/verify.
func TestCustomGadgetMatchesNative(t *testing.T) { permuteRoundTrip(t, true) }

// TestClassicGadgetMatchesNative checks the classic lowering, round
// constants folded into the S-box and MDS gates, the same way: no circuit
// of the system proves on it any more, but a builder without custom gates
// still hashes with it.
func TestClassicGadgetMatchesNative(t *testing.T) { permuteRoundTrip(t, false) }

// permuteCircuit compiles one permutation of (1, 2, 3) on the custom or the
// classic lowering, with lane 0 of the output as its one public input.
func permuteCircuit(t *testing.T, custom bool) (*plonk.ConstraintSystem, []fr.Element, fr.Element) {
	t.Helper()
	in := [Width]fr.Element{fr.NewElement(1), fr.NewElement(2), fr.NewElement(3)}
	want := Permute(in)

	b := circuit.NewBuilder()
	if custom {
		b.EnableCustomGates()
	}
	state := [Width]circuit.Variable{b.Secret(in[0]), b.Secret(in[1]), b.Secret(in[2])}
	out := GadgetPermute(b, state)
	for i := 0; i < Width; i++ {
		if got := b.Value(out[i]); !got.Equal(&want[i]) {
			t.Fatalf("lane %d: gadget %s, native %s", i, got.String(), want[i].String())
		}
	}
	pub := b.Public(want[0])
	b.AssertEqual(pub, out[0])

	cs, witness, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := slices.ContainsFunc(b.AuditInfo().Gates, func(g plonk.Gate) bool { return g.Kind.IsCustom() }); got != custom {
		t.Fatalf("custom rows emitted: %v, want %v", got, custom)
	}
	if err := cs.IsSatisfied(witness); err != nil {
		t.Fatal(err)
	}
	return cs, witness, want[0]
}

func permuteSetup(t *testing.T, cs *plonk.ConstraintSystem) (*plonk.ProvingKey, *plonk.VerifyingKey) {
	t.Helper()
	tau := fr.NewElement(0x905e)
	srs, err := kzg.NewSRSFromSecret(1<<12, &tau)
	if err != nil {
		t.Fatal(err)
	}
	pk, vk, err := plonk.Setup(cs, srs)
	if err != nil {
		t.Fatal(err)
	}
	return pk, vk
}

func permuteRoundTrip(t *testing.T, custom bool) {
	t.Helper()
	cs, witness, out0 := permuteCircuit(t, custom)
	pk, vk := permuteSetup(t, cs)
	proof, err := plonk.Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	if err := plonk.Verify(vk, proof, []fr.Element{out0}); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	one := fr.One()
	var wrong fr.Element
	wrong.Add(&out0, &one)
	if err := plonk.Verify(vk, proof, []fr.Element{wrong}); err == nil {
		t.Fatal("wrong permutation output accepted")
	}
}

// TestClassicGadgetRejectsTamperedWire changes one intermediate wire of the
// classic lowering — each gate kind that carries a folded round constant,
// and an MDS output — and wants IsSatisfied to fail and Prove to refuse with
// ErrUnsatisfied. The wires are found by their native values.
func TestClassicGadgetRejectsTamperedWire(t *testing.T) {
	cs, witness, _ := permuteCircuit(t, false)
	pk, _ := permuteSetup(t, cs)

	half := FullRounds / 2
	in := [Width]fr.Element{fr.NewElement(1), fr.NewElement(2), fr.NewElement(3)}
	// before(r) is the state entering round r.
	before := func(r int) [Width]fr.Element {
		s := in
		for k := 0; k < r; k++ {
			for i := range s {
				s[i].Add(&s[i], &roundConstants[k][i])
			}
			sboxed := Width
			if k >= half && k < half+PartialRounds {
				sboxed = 1
			}
			for i := 0; i < sboxed; i++ {
				s[i] = sbox(s[i])
			}
			s = mdsMul(s)
		}
		return s
	}
	// Full round 0, lane 1: (x+c)².
	full := before(0)
	var sq fr.Element
	sq.Add(&full[1], &roundConstants[0][1])
	sq.Square(&sq)
	// Partial round half: lane 0's x⁴, the first MDS gate of row 2 (it
	// carries M21·c1 + M22·c2), and the round's MDS output on lane 1.
	part := before(half)
	c := roundConstants[half]
	var x4 fr.Element
	x4.Add(&part[0], &c[0])
	x4.Square(&x4)
	x4.Square(&x4)
	var lane0, lane1, acc, t1 fr.Element
	lane0.Add(&part[0], &c[0])
	lane0 = sbox(lane0)
	lane1.Add(&part[1], &c[1])
	acc.Mul(&mdsMatrix[2][0], &lane0)
	t1.Mul(&mdsMatrix[2][1], &lane1)
	acc.Add(&acc, &t1)
	var lane2c fr.Element
	lane2c.Mul(&mdsMatrix[2][2], &c[2])
	acc.Add(&acc, &lane2c)
	mdsOut := before(half + 1)

	for _, tc := range []struct {
		name string
		val  fr.Element
	}{
		{"full-round (x+c)²", sq},
		{"partial-round x⁴", x4},
		{"partial-round MDS gate with folded constants", acc},
		{"partial-round MDS output", mdsOut[1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			at := -1
			for i := range witness {
				if witness[i].Equal(&tc.val) {
					if at >= 0 {
						t.Fatalf("value on wires %d and %d", at, i)
					}
					at = i
				}
			}
			if at < 0 {
				t.Fatal("no wire carries the value")
			}
			bad := append([]fr.Element(nil), witness...)
			one := fr.One()
			bad[at].Add(&bad[at], &one)
			if err := cs.IsSatisfied(bad); err == nil {
				t.Fatal("tampered witness satisfies the circuit")
			}
			if _, err := plonk.Prove(pk, bad); !errors.Is(err, plonk.ErrUnsatisfied) {
				t.Fatalf("Prove on tampered witness: got %v, want ErrUnsatisfied", err)
			}
		})
	}
}

// TestCustomGadgetConstraintCount pins the saving: one permutation must
// cost about totalRounds+1 gates instead of ~9·totalRounds.
func TestCustomGadgetConstraintCount(t *testing.T) {
	classic, custom := ConstraintsPerPermutation(false), ConstraintsPerPermutation(true)
	if custom > totalRounds+1 {
		t.Fatalf("custom permutation costs %d gates, want ≤ %d", custom, totalRounds+1)
	}
	if custom*3 > classic {
		t.Fatalf("custom lowering not ≥3x cheaper: %d vs %d", custom, classic)
	}
}

// TestCustomGadgetHashAndCommit runs the sponge and commitment modes on
// the custom lowering (chained permutations with absorb rows in between).
func TestCustomGadgetHashAndCommit(t *testing.T) {
	msg := []fr.Element{fr.NewElement(11), fr.NewElement(22), fr.NewElement(33), fr.NewElement(44)}
	want := Hash(msg)

	b := circuit.NewBuilder()
	b.EnableCustomGates()
	vars := make([]circuit.Variable, len(msg))
	for i, m := range msg {
		vars[i] = b.Secret(m)
	}
	h := GadgetHash(b, vars)
	if got := b.Value(h); !got.Equal(&want) {
		t.Fatalf("custom gadget hash %s, native %s", got.String(), want.String())
	}
	cs, witness, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.IsSatisfied(witness); err != nil {
		t.Fatal(err)
	}

	o := fr.NewElement(0xb11d)
	wantC := CommitWith(msg, o)
	b2 := circuit.NewBuilder()
	b2.EnableCustomGates()
	ov := b2.Secret(o)
	vars2 := make([]circuit.Variable, len(msg))
	for i, m := range msg {
		vars2[i] = b2.Secret(m)
	}
	c := GadgetCommit(b2, vars2, ov)
	if got := b2.Value(c); !got.Equal(&wantC) {
		t.Fatalf("custom gadget commit %s, native %s", got.String(), wantC.String())
	}
	cs2, w2, err := b2.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs2.IsSatisfied(w2); err != nil {
		t.Fatal(err)
	}
}

package poseidon

import (
	"testing"
	"testing/quick"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
)

func TestPermuteBijectiveish(t *testing.T) {
	// Distinct states map to distinct outputs.
	seen := map[string]bool{}
	for i := uint64(0); i < 30; i++ {
		out := Permute([Width]fr.Element{fr.NewElement(i), fr.Zero(), fr.Zero()})
		s := out[0].String()
		if seen[s] {
			t.Fatalf("permutation collision at %d", i)
		}
		seen[s] = true
	}
}

func TestHashBasics(t *testing.T) {
	m1 := []fr.Element{fr.NewElement(1), fr.NewElement(2), fr.NewElement(3)}
	h1 := Hash(m1)
	h1b := Hash(m1)
	if !h1.Equal(&h1b) {
		t.Fatal("hash not deterministic")
	}
	m2 := []fr.Element{fr.NewElement(1), fr.NewElement(2), fr.NewElement(4)}
	h2 := Hash(m2)
	if h1.Equal(&h2) {
		t.Fatal("trivial collision")
	}
	// Length domain separation: (1,2) vs (1,2,0).
	h3 := Hash([]fr.Element{fr.NewElement(1), fr.NewElement(2)})
	h4 := Hash([]fr.Element{fr.NewElement(1), fr.NewElement(2), fr.Zero()})
	if h3.Equal(&h4) {
		t.Fatal("length extension collision")
	}
	// Empty message hashes without panicking and is distinct.
	h5 := Hash(nil)
	if h5.Equal(&h1) {
		t.Fatal("empty hash collides")
	}
}

func TestCommitOpen(t *testing.T) {
	msg := []fr.Element{fr.NewElement(5), fr.NewElement(6)}
	c, o := Commit(msg)
	if !Open(msg, c, o) {
		t.Fatal("honest opening rejected")
	}
	// Binding: different message must not open.
	other := []fr.Element{fr.NewElement(5), fr.NewElement(7)}
	if Open(other, c, o) {
		t.Fatal("opened to a different message")
	}
	// Wrong blinder must not open.
	var o2 fr.Element
	one := fr.One()
	o2.Add(&o, &one)
	if Open(msg, c, o2) {
		t.Fatal("opened with wrong blinder")
	}
}

func TestCommitHiding(t *testing.T) {
	// Two commitments to the same message use fresh blinders and differ —
	// the computational hiding property (Definition 2.3) in its testable
	// form.
	msg := []fr.Element{fr.NewElement(1)}
	c1, o1 := Commit(msg)
	c2, o2 := Commit(msg)
	if o1.Equal(&o2) {
		t.Fatal("blinders repeat")
	}
	if c1.Equal(&c2) {
		t.Fatal("commitments to same message identical: not hiding")
	}
}

func TestGadgetPermuteMatchesNative(t *testing.T) {
	vals := [Width]fr.Element{fr.NewElement(3), fr.NewElement(4), fr.NewElement(5)}
	b := circuit.NewBuilder()
	state := [Width]circuit.Variable{b.Secret(vals[0]), b.Secret(vals[1]), b.Secret(vals[2])}
	out := GadgetPermute(b, state)
	want := Permute(vals)
	for i := 0; i < Width; i++ {
		if got := b.Value(out[i]); !got.Equal(&want[i]) {
			t.Fatalf("gadget permute lane %d mismatch", i)
		}
	}
	checkCompiles(t, b)
}

func TestGadgetHashMatchesNative(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5} {
		vals := make([]fr.Element, n)
		for i := range vals {
			vals[i] = fr.NewElement(uint64(i * 7))
		}
		b := circuit.NewBuilder()
		msg := make([]circuit.Variable, n)
		for i := range vals {
			msg[i] = b.Secret(vals[i])
		}
		h := GadgetHash(b, msg)
		want := Hash(vals)
		if got := b.Value(h); !got.Equal(&want) {
			t.Fatalf("n=%d: gadget hash mismatch", n)
		}
		checkCompiles(t, b)
	}
}

func TestGadgetCommitMatchesNative(t *testing.T) {
	msgVals := []fr.Element{fr.NewElement(9), fr.NewElement(8)}
	oVal := fr.NewElement(77)
	want := CommitWith(msgVals, oVal)

	b := circuit.NewBuilder()
	msg := []circuit.Variable{b.Secret(msgVals[0]), b.Secret(msgVals[1])}
	o := b.Secret(oVal)
	c := GadgetCommit(b, msg, o)
	if got := b.Value(c); !got.Equal(&want) {
		t.Fatal("gadget commit mismatch")
	}
	checkCompiles(t, b)
}

func checkCompiles(t *testing.T, b *circuit.Builder) {
	t.Helper()
	cs, w, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.IsSatisfied(w); err != nil {
		t.Fatal(err)
	}
}

// TestConstraintsPerPermutation pins the row count of each lowering: a
// classic full round is three 3-gate S-boxes and six MDS gates (15), a
// partial round one S-box and six MDS gates (9), so 4·15 + 60·9 + 4·15 =
// 660; the custom lowering is one row per round plus the closing row. A
// bare GadgetPermute on custom gates adds one gate per lane for round 0's
// constants, which the hash and the cipher fold into gates they emit
// anyway.
func TestConstraintsPerPermutation(t *testing.T) {
	if n := ConstraintsPerPermutation(false); n != 660 {
		t.Fatalf("classic Poseidon permutation costs %d gates, want 660", n)
	}
	if n := ConstraintsPerPermutation(true); n != totalRounds+1 {
		t.Fatalf("custom Poseidon permutation costs %d gates, want %d", n, totalRounds+1)
	}
	b := circuit.NewBuilder()
	b.EnableCustomGates()
	GadgetPermute(b, [Width]circuit.Variable{b.Secret(fr.NewElement(1)), b.Secret(fr.NewElement(2)), b.Secret(fr.NewElement(3))})
	if n := b.NbGates(); n != totalRounds+1+Width {
		t.Fatalf("a bare custom GadgetPermute costs %d gates, want %d", n, totalRounds+1+Width)
	}
}

func TestQuickCommitBinding(t *testing.T) {
	prop := func(a, b, o uint64) bool {
		if a == b {
			return true
		}
		m1 := []fr.Element{fr.NewElement(a)}
		m2 := []fr.Element{fr.NewElement(b)}
		blinder := fr.NewElement(o)
		c := CommitWith(m1, blinder)
		return !Open(m2, c, blinder)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPermute(b *testing.B) {
	s := [Width]fr.Element{fr.NewElement(1), fr.NewElement(2), fr.NewElement(3)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Permute(s)
	}
}

func BenchmarkHash(b *testing.B) {
	msg := make([]fr.Element, 16)
	for i := range msg {
		msg[i] = fr.NewElement(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hash(msg)
	}
}

// Open verifies that c is a commitment to msg under blinder o: the check
// the commitment tests hold Commit and CommitWith to.
func Open(msg []fr.Element, c, o fr.Element) bool {
	want := CommitWith(msg, o)
	return want.Equal(&c)
}

// ConstraintsPerPermutation reports the gate cost of one permutation on the
// custom lowering (its rows alone: round 0's constants ride in whatever
// feeds it) or the classic one, quantifying the §IV-C2 comparison against
// Pedersen commitments.
func ConstraintsPerPermutation(custom bool) int {
	b := circuit.NewBuilder()
	s := [Width]circuit.Variable{
		b.Secret(fr.NewElement(1)), b.Secret(fr.NewElement(2)), b.Secret(fr.NewElement(3)),
	}
	if custom {
		b.EnableCustomGates()
		permuteRows(b, s, &[Width]fr.Element{})
	} else {
		GadgetPermute(b, s)
	}
	return b.NbGates()
}

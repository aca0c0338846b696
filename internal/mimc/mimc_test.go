package mimc

import (
	"testing"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
)

func TestEncryptIsPermutation(t *testing.T) {
	// Distinct plaintexts under the same key must map to distinct
	// ciphertexts (x^7 is a bijection since gcd(7, r-1) = 1).
	k := fr.NewElement(42)
	seen := map[string]bool{}
	for i := uint64(0); i < 50; i++ {
		c := Encrypt(k, fr.NewElement(i))
		s := c.String()
		if seen[s] {
			t.Fatalf("collision at input %d", i)
		}
		seen[s] = true
	}
}

func TestEncryptKeyDependence(t *testing.T) {
	x := fr.NewElement(7)
	c1 := Encrypt(fr.NewElement(1), x)
	c2 := Encrypt(fr.NewElement(2), x)
	if c1.Equal(&c2) {
		t.Fatal("ciphertext independent of key")
	}
}

func TestHashProperties(t *testing.T) {
	m1 := []fr.Element{fr.NewElement(1), fr.NewElement(2)}
	m2 := []fr.Element{fr.NewElement(1), fr.NewElement(3)}
	h1 := Hash(m1)
	h1Again := Hash(m1)
	h2 := Hash(m2)
	if !h1.Equal(&h1Again) {
		t.Fatal("hash not deterministic")
	}
	if h1.Equal(&h2) {
		t.Fatal("trivial collision")
	}
}

func TestGadgetMatchesNative(t *testing.T) {
	b := circuit.NewBuilder()
	kVal, xVal := fr.NewElement(111), fr.NewElement(222)
	k := b.Secret(kVal)
	x := b.Secret(xVal)
	ct := GadgetEncrypt(b, k, x)
	want := Encrypt(kVal, xVal)
	if got := b.Value(ct); !got.Equal(&want) {
		t.Fatal("gadget encryption disagrees with native")
	}
	cs, w, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.IsSatisfied(w); err != nil {
		t.Fatalf("gadget constraints unsatisfied: %v", err)
	}
}

func TestGadgetHashMatchesNative(t *testing.T) {
	b := circuit.NewBuilder()
	vals := []fr.Element{fr.NewElement(1), fr.NewElement(2), fr.NewElement(3)}
	msg := make([]circuit.Variable, len(vals))
	for i := range vals {
		msg[i] = b.Secret(vals[i])
	}
	h := GadgetHash(b, msg)
	want := Hash(vals)
	if got := b.Value(h); !got.Equal(&want) {
		t.Fatal("gadget hash disagrees with native")
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

func TestConstraintsPerBlock(t *testing.T) {
	n := ConstraintsPerBlock()
	// 91 rounds × ~6 gates — the point is it is hundreds, not the
	// millions an AES circuit needs (§IV-C1).
	if n < 300 || n > 800 {
		t.Fatalf("MiMC block costs %d constraints, expected a few hundred", n)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	k := fr.NewElement(1)
	x := fr.NewElement(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encrypt(k, x)
	}
}

func pow7(x fr.Element) fr.Element {
	var x2, x4, x6, x7 fr.Element
	x2.Square(&x)
	x4.Square(&x2)
	x6.Mul(&x4, &x2)
	x7.Mul(&x6, &x)
	return x7
}

// Encrypt applies the keyed MiMC permutation E_k to one block:
// t ← (t + k + c_i)^7 for each round, then t + k — the native reference the
// GadgetEncrypt tests compare against.
func Encrypt(k, x fr.Element) fr.Element {
	t := x
	for i := 0; i < Rounds; i++ {
		var u fr.Element
		u.Add(&t, &k)
		u.Add(&u, &roundConstants[i])
		t = pow7(u)
	}
	t.Add(&t, &k)
	return t
}

// Hash computes a Miyaguchi–Preneel hash over field elements:
// h ← E_h(m) + h + m, starting from h = 0 — the native reference the
// GadgetHash tests compare against.
func Hash(msg []fr.Element) fr.Element {
	var h fr.Element
	for i := range msg {
		e := Encrypt(h, msg[i])
		h.Add(&h, &e)
		h.Add(&h, &msg[i])
	}
	return h
}

// ConstraintsPerBlock reports the number of gates one block encryption
// costs — the figure behind the paper's MiMC-vs-AES argument (§IV-C1).
func ConstraintsPerBlock() int {
	b := circuit.NewBuilder()
	k := b.Secret(fr.NewElement(1))
	x := b.Secret(fr.NewElement(2))
	before := b.NbGates()
	GadgetEncrypt(b, k, x)
	return b.NbGates() - before
}

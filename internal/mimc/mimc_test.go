package mimc

import (
	"testing"
	"testing/quick"

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

func TestCTRRoundTrip(t *testing.T) {
	k := fr.MustRandom()
	nonce := fr.MustRandom()
	pt := make([]fr.Element, 33)
	for i := range pt {
		pt[i] = fr.MustRandom()
	}
	ct := EncryptCTR(k, nonce, pt)
	back := DecryptCTR(k, nonce, ct)
	for i := range pt {
		if !back[i].Equal(&pt[i]) {
			t.Fatalf("round trip mismatch at %d", i)
		}
		if ct[i].Equal(&pt[i]) {
			t.Fatalf("ciphertext equals plaintext at %d", i)
		}
	}
	// Wrong key must not decrypt.
	wrongK := fr.MustRandom()
	bad := DecryptCTR(wrongK, nonce, ct)
	same := 0
	for i := range pt {
		if bad[i].Equal(&pt[i]) {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d blocks decrypted under wrong key", same)
	}
	// Wrong nonce must not decrypt either.
	var nonce2 fr.Element
	one := fr.One()
	nonce2.Add(&nonce, &one)
	bad = DecryptCTR(k, nonce2, ct)
	if bad[0].Equal(&pt[0]) {
		t.Fatal("decrypted under wrong nonce")
	}
}

func TestCTREmpty(t *testing.T) {
	k := fr.NewElement(1)
	if got := EncryptCTR(k, fr.Zero(), nil); len(got) != 0 {
		t.Fatal("empty encryption not empty")
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

func TestGadgetCTRMatchesNative(t *testing.T) {
	b := circuit.NewBuilder()
	kVal := fr.NewElement(5)
	nonceVal := fr.NewElement(1000)
	ptVals := []fr.Element{fr.NewElement(10), fr.NewElement(20), fr.NewElement(30)}
	k := b.Secret(kVal)
	nonce := b.Secret(nonceVal)
	pt := make([]circuit.Variable, len(ptVals))
	for i := range ptVals {
		pt[i] = b.Secret(ptVals[i])
	}
	ct := GadgetEncryptCTR(b, k, nonce, pt)
	want := EncryptCTR(kVal, nonceVal, ptVals)
	for i := range want {
		if got := b.Value(ct[i]); !got.Equal(&want[i]) {
			t.Fatalf("gadget CTR mismatch at %d", i)
		}
	}
	cs, w, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.IsSatisfied(w); err != nil {
		t.Fatal(err)
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

func TestQuickCTRRoundTrip(t *testing.T) {
	prop := func(k, nonce, m uint64) bool {
		key := fr.NewElement(k)
		nc := fr.NewElement(nonce)
		pt := []fr.Element{fr.NewElement(m)}
		back := DecryptCTR(key, nc, EncryptCTR(key, nc, pt))
		return back[0].Equal(&pt[0])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
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

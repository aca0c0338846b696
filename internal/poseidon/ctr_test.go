package poseidon

import (
	"fmt"
	"math/big"
	"testing"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
)

// ctrCircuit builds the relation π_e and π_p prove about a ciphertext:
// public nonce and ciphertext, secret key and plaintext, and
// GadgetEncryptCTR's output asserted equal to the ciphertext.
func ctrCircuit(custom bool, k, nonce fr.Element, pt, ct []fr.Element) *circuit.Builder {
	b := circuit.NewBuilder()
	if custom {
		b.EnableCustomGates()
	}
	nv := b.Public(nonce)
	cts := make([]circuit.Variable, len(ct))
	for i := range ct {
		cts[i] = b.Public(ct[i])
	}
	kv := b.Secret(k)
	data := make([]circuit.Variable, len(pt))
	for i := range pt {
		data[i] = b.Secret(pt[i])
	}
	enc := GadgetEncryptCTR(b, kv, nv, data)
	for i := range enc {
		b.AssertEqual(enc[i], cts[i])
	}
	return b
}

func ctrPlaintext(n int) []fr.Element {
	pt := make([]fr.Element, n)
	for i := range pt {
		pt[i] = fr.NewElement(uint64(1000 + 7*i))
	}
	return pt
}

// TestGadgetCTRMatchesNative holds the gadget to EncryptCTR under both
// lowerings: the circuit asserts its output equal to the native ciphertext.
// The odd lengths end on half a block.
func TestGadgetCTRMatchesNative(t *testing.T) {
	k, nonce := fr.NewElement(0x5eed), fr.NewElement(0xc0ffee)
	for _, n := range []int{1, 2, 3, 5, 16} {
		pt := ctrPlaintext(n)
		for _, custom := range []bool{false, true} {
			b := ctrCircuit(custom, k, nonce, pt, EncryptCTR(k, nonce, pt))
			// On custom gates a block is its permutation (69 rows) and
			// counter constant; each element adds its masking addition and
			// the circuit's equality row, and k and the nonce one gate each
			// for round 0's constants.
			if want := (n+1)/2*70 + 2*n + 2; custom && b.NbGates() != want {
				t.Fatalf("n=%d: %d custom rows, want %d", n, b.NbGates(), want)
			}
			checkCompiles(t, b)
		}
	}
}

func TestCTRRoundTrip(t *testing.T) {
	k, nonce := fr.MustRandom(), fr.MustRandom()
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
	one := fr.One()
	var k2, nonce2 fr.Element
	k2.Add(&k, &one)
	nonce2.Add(&nonce, &one)
	for name, bad := range map[string][]fr.Element{
		"wrong key":   DecryptCTR(k2, nonce, ct),
		"wrong nonce": DecryptCTR(k, nonce2, ct),
	} {
		for i := range pt {
			if bad[i].Equal(&pt[i]) {
				t.Fatalf("%s decrypted element %d", name, i)
			}
		}
	}
	// A prefix encrypts to the prefix of the ciphertext: the half block of
	// an odd length is lane 0 of the same permutation.
	if short := EncryptCTR(k, nonce, pt[:5]); !short[4].Equal(&ct[4]) {
		t.Fatal("odd tail does not use lane 0 of its block")
	}
}

func TestCTREmpty(t *testing.T) {
	k := fr.NewElement(1)
	if got := EncryptCTR(k, fr.Zero(), nil); len(got) != 0 {
		t.Fatal("empty encryption not empty")
	}
	if got := DecryptCTR(k, fr.Zero(), nil); len(got) != 0 {
		t.Fatal("empty decryption not empty")
	}
}

// TestCTRWrongWitnessUnsatisfied: the ciphertext relation holds for the
// key and plaintext that made it, and for no other key or ciphertext.
func TestCTRWrongWitnessUnsatisfied(t *testing.T) {
	k, nonce := fr.NewElement(77), fr.NewElement(1<<40)
	one := fr.One()
	for _, n := range []int{3, 4} {
		pt := ctrPlaintext(n)
		ct := EncryptCTR(k, nonce, pt)
		for _, custom := range []bool{false, true} {
			var wrongK fr.Element
			wrongK.Add(&k, &one)
			cases := map[string]*circuit.Builder{"wrong key": ctrCircuit(custom, wrongK, nonce, pt, ct)}
			for i := range ct {
				flipped := append([]fr.Element(nil), ct...)
				flipped[i].Add(&flipped[i], &one)
				cases[fmt.Sprintf("ciphertext %d flipped", i)] = ctrCircuit(custom, k, nonce, pt, flipped)
			}
			for name, b := range cases {
				cs, w, err := b.Compile()
				if err != nil {
					t.Fatal(err)
				}
				if cs.IsSatisfied(w) == nil {
					t.Fatalf("n=%d custom=%v: %s satisfied the circuit", n, custom, name)
				}
			}
		}
	}
}

// TestCTRDomainTag: Hash starts every sponge with lane 2 = len(msg) < 2^64,
// while keystream block j starts with lane 2 = 2^64 + j, so no keystream
// permutation takes the input state of a Hash or Commit permutation.
func TestCTRDomainTag(t *testing.T) {
	limit := new(big.Int).Lsh(big.NewInt(1), 64)
	for j := 0; j < 1<<10; j++ {
		c := keystreamCounter(j)
		if c.BigInt().Cmp(limit) < 0 {
			t.Fatalf("block %d: lane 2 = %s, inside the range of sponge lengths", j, c.String())
		}
	}
	k, nonce := fr.NewElement(3), fr.NewElement(4)
	ks := keystream(k, nonce, 2*8)
	// Untagged, block 2 would start from Hash's state for (k, nonce).
	h := Hash([]fr.Element{k, nonce})
	for i := range ks {
		if ks[i].Equal(&h) {
			t.Fatalf("keystream element %d equals H(k ‖ nonce)", i)
		}
	}
}

// FuzzPoseidonCTR: DecryptCTR inverts EncryptCTR for any key, nonce and
// length, and the gadget agrees with the native cipher.
func FuzzPoseidonCTR(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), uint8(1))
	f.Add(uint64(0), uint64(0), uint64(0), uint8(0))
	f.Add(uint64(1<<63), uint64(7), uint64(1<<40), uint8(6))
	f.Fuzz(func(t *testing.T, key, nonce, seed uint64, n uint8) {
		k, nc := fr.NewElement(key), fr.NewElement(nonce)
		pt := make([]fr.Element, n%9)
		for i := range pt {
			pt[i] = fr.NewElement(seed + uint64(i)*0x9e3779b97f4a7c15)
		}
		ct := EncryptCTR(k, nc, pt)
		back := DecryptCTR(k, nc, ct)
		for i := range pt {
			if !back[i].Equal(&pt[i]) {
				t.Fatalf("round trip mismatch at %d of %d", i, len(pt))
			}
		}
		b := ctrCircuit(true, k, nc, pt, ct)
		cs, w, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.IsSatisfied(w); err != nil {
			t.Fatalf("n=%d: gadget disagrees with EncryptCTR: %v", len(pt), err)
		}
	})
}

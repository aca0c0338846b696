package plonk

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"strings"
	"testing"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
)

// openingNames names the openings p carries, in Proof.openings order.
func openingNames(p *Proof) []string {
	ev := &p.Evals
	names := map[*fr.Element]string{
		&ev.A: "a", &ev.B: "b", &ev.C: "c", &ev.S1: "σ1", &ev.S2: "σ2", &ev.ZOmega: "z(ζω)",
	}
	for e, n := range map[*fr.Element]string{&ev.Tbl: "T", &ev.SOmega: "S(ζω)", &ev.Y: "Y"} {
		names[e] = n
	}
	atZeta, atOmega := p.openings()
	var out []string
	for _, e := range append(atZeta, atOmega...) {
		out = append(out, names[e])
	}
	return out
}

// TestExtendedProofSerializationRoundTrip round-trips proofs of both shapes
// (muladd, without Poseidon rows, and mimc on the custom one; two of lookup +
// custom) through the versioned encoding at its exact size, field counts,
// opening list and flags byte, verifies the decoded proof, and checks that no
// other flags byte is read on the same bytes: an unknown bit is refused, and
// so is the other shape's flags (each shape has its own length), the classic
// flags 0x00 and the lookup-only flags 0x01.
func TestExtendedProofSerializationRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		shape    string
		flags    byte
		size     int
		g1, fr   int
		openings string
	}{
		{"muladd", 0x02, 742, 8, 7, "a b c σ1 σ2 z(ζω) Y"},
		{"mimc", 0x02, 742, 8, 7, "a b c σ1 σ2 z(ζω) Y"},
		{"lookup", 0x03, 998, 11, 9, "a b c σ1 σ2 T z(ζω) S(ζω) Y"},
		{"mixed", 0x03, 998, 11, 9, "a b c σ1 σ2 T z(ζω) S(ζω) Y"},
	} {
		t.Run(tc.shape, func(t *testing.T) {
			cs, witness := goldenCircuit(t, tc.shape)
			pk, vk, err := Setup(cs, testSRSOnce())
			if err != nil {
				t.Fatal(err)
			}
			proof, err := Prove(pk, witness)
			if err != nil {
				t.Fatal(err)
			}
			data := proof.Bytes()
			if len(data) != tc.size || data[5] != tc.flags || encodedSize(shape(tc.flags)) != tc.size {
				t.Fatalf("encodes to %d bytes with flags %#02x, want %d with %#02x", len(data), data[5], tc.size, tc.flags)
			}
			var g1s, frs int
			proof.eachWireField(func(*bn254.G1Affine) { g1s++ }, func(*fr.Element) { frs++ })
			if g1s != tc.g1 || frs != tc.fr || headerSize+64*g1s+32*frs != tc.size {
				t.Fatalf("%d G1 + %d Fr, want %d + %d", g1s, frs, tc.g1, tc.fr)
			}
			if got := strings.Join(openingNames(proof), " "); got != tc.openings {
				t.Fatalf("opens %q, want %q", got, tc.openings)
			}
			if byte(vk.shape()) != tc.flags {
				t.Fatalf("key shape %#02x, want %#02x", byte(vk.shape()), tc.flags)
			}
			back, err := ProofFromBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.Bytes(), data) {
				t.Fatal("decoded proof re-encodes differently")
			}
			if err := Verify(vk, back, witness[:cs.nbPublic]); err != nil {
				t.Fatalf("decoded proof rejected: %v", err)
			}
			for f := 0; f < 256; f++ {
				if byte(f) == tc.flags {
					continue
				}
				bad := append([]byte{}, data...)
				bad[5] = byte(f)
				if _, err := ProofFromBytes(bad); err == nil {
					t.Fatalf("flags %#02x accepted on a %#02x proof's bytes", f, tc.flags)
				}
			}
		})
	}
}

// v1Proofs reads the version-1 encodings of the four shapes in testdata/v1:
// seeded proofs of the muladd, lookup, mimc and mixed golden circuits as they
// were then (lookup was lookup-only), captured from the last prover that
// opened every committed polynomial.
func v1Proofs(t testing.TB) map[string][]byte { return oldProofs(t, "v1") }

// v2Proofs reads the version-2 encodings of the same four circuits in
// testdata/v2, captured from the last prover that committed the quotient in
// n-coefficient pieces and opened a custom proof's next-row wires and round
// constants one by one.
func v2Proofs(t testing.TB) map[string][]byte { return oldProofs(t, "v2") }

func oldProofs(t testing.TB, dir string) map[string][]byte {
	out := map[string][]byte{}
	for _, name := range []string{"muladd", "lookup", "mimc", "mixed"} {
		raw, err := os.ReadFile("testdata/" + dir + "/" + name + ".hex")
		if err != nil {
			t.Fatal(err)
		}
		if out[name], err = hex.DecodeString(strings.TrimSpace(string(raw))); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestProofVersion1Refused: a version-1 proof of each shape (1 094, 1 766,
// 1 670 and 2 054 bytes) is refused by type, before its flags or length are
// read.
func TestProofVersion1Refused(t *testing.T) {
	sizes := map[string]int{"muladd": 1094, "lookup": 1766, "mimc": 1670, "mixed": 2054}
	for name, blob := range v1Proofs(t) {
		if len(blob) != sizes[name] || blob[4] != 1 {
			t.Fatalf("%s: %d bytes of version %d, want a %d-byte version-1 blob", name, len(blob), blob[4], sizes[name])
		}
		if _, err := ProofFromBytes(blob); !errors.Is(err, ErrProofVersion) {
			t.Fatalf("%s: version-1 blob decoded with %v, want ErrProofVersion", name, err)
		}
	}
}

// TestProofVersion2Refused: a version-2 proof of each shape (774, 1 414,
// 1 158 and 1 414 bytes) is refused by type, before its flags or length are
// read — and so is a version-3 proof relabelled as version 2.
func TestProofVersion2Refused(t *testing.T) {
	sizes := map[string]int{"muladd": 774, "lookup": 1414, "mimc": 1158, "mixed": 1414}
	for name, blob := range v2Proofs(t) {
		if len(blob) != sizes[name] || blob[4] != 2 {
			t.Fatalf("%s: %d bytes of version %d, want a %d-byte version-2 blob", name, len(blob), blob[4], sizes[name])
		}
		if _, err := ProofFromBytes(blob); !errors.Is(err, ErrProofVersion) {
			t.Fatalf("%s: version-2 blob decoded with %v, want ErrProofVersion", name, err)
		}
		cs, witness := goldenCircuit(t, name)
		pk, _, err := Setup(cs, testSRSOnce())
		if err != nil {
			t.Fatal(err)
		}
		proof, err := Prove(pk, witness)
		if err != nil {
			t.Fatal(err)
		}
		relabelled := proof.Bytes()
		relabelled[4] = 2
		if _, err := ProofFromBytes(relabelled); !errors.Is(err, ErrProofVersion) {
			t.Fatalf("%s: version-3 proof labelled version 2 decoded with %v, want ErrProofVersion", name, err)
		}
	}
}

// TestProofHeaderValidation exercises the header checks: bad magic, bad
// version, unknown flags, inconsistent flag/length combinations.
func TestProofHeaderValidation(t *testing.T) {
	cs, witness := buildMulAddCircuit()
	pk, _, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	good := proof.Bytes()

	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := ProofFromBytes(bad); err == nil {
		t.Fatal("bad magic accepted")
	}

	bad = append([]byte{}, good...)
	bad[4] = 99
	if _, err := ProofFromBytes(bad); !errors.Is(err, ErrProofVersion) {
		t.Fatalf("future version: %v, want ErrProofVersion", err)
	}

	bad = append([]byte{}, good...)
	bad[5] = 0x80
	if _, err := ProofFromBytes(bad); err == nil {
		t.Fatal("unknown flags accepted")
	}

	// Any other shape's flags on a custom proof's bytes must be refused:
	// 0x00 and 0x01 as shapes no key proves on, 0x03 by the length check.
	for _, f := range []shape{0, shapeLookup, shapeLookup | shapeCustom} {
		bad = append([]byte{}, good...)
		bad[5] = byte(f)
		if _, err := ProofFromBytes(bad); err == nil {
			t.Fatalf("flags %#02x on a custom proof's bytes accepted", byte(f))
		}
	}

	// A payload without its header must be turned away, not misread.
	if _, err := ProofFromBytes(good[headerSize:]); err == nil {
		t.Fatal("headerless payload accepted")
	}
}

// TestExtendedSerializationTamperRejected flips one byte in every section
// of an extended encoding — the wire points, the second quotient piece, the
// last point (W_ζω, or [S] on a lookup proof), the openings at ζ and, last,
// Y at ζω — and checks decode or verify rejects it.
func TestExtendedSerializationTamperRejected(t *testing.T) {
	for _, name := range []string{"mimc", "mixed"} {
		cs, witness := goldenCircuit(t, name)
		pk, vk, err := Setup(cs, testSRSOnce())
		if err != nil {
			t.Fatal(err)
		}
		proof, err := Prove(pk, witness)
		if err != nil {
			t.Fatal(err)
		}
		good := proof.Bytes()
		openings := headerSize + 64*(6+len(proof.T))
		if proof.Lookup {
			openings += 3 * 64
		}
		offsets := []int{
			headerSize + 10,
			headerSize + 5*64 + 7,
			openings - 64 + 3,
			openings + 9,
			len(good) - 5,
		}
		for _, off := range offsets {
			bad := append([]byte{}, good...)
			bad[off] ^= 0x5a
			back, err := ProofFromBytes(bad)
			if err != nil {
				continue // caught at decode
			}
			if err := Verify(vk, back, witness[:cs.nbPublic]); err == nil {
				t.Fatalf("%s: tampered byte at offset %d accepted", name, off)
			}
		}
	}
}

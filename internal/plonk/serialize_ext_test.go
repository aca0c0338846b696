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
	if x := ev.Ext; x != nil {
		for e, n := range map[*fr.Element]string{
			&x.Tbl: "T", &x.SOmega: "S(ζω)", &x.AOmega: "a(ζω)", &x.BOmega: "b(ζω)", &x.COmega: "c(ζω)",
			&x.K0: "K0", &x.K1: "K1", &x.K2: "K2",
		} {
			names[e] = n
		}
	}
	atZeta, atOmega := p.openings()
	var out []string
	for _, e := range append(atZeta, atOmega...) {
		out = append(out, names[e])
	}
	return out
}

// TestExtendedProofSerializationRoundTrip round-trips one proof of each of
// the four shapes through the versioned encoding at its exact size, field
// counts, opening list and flags byte, verifies the decoded proof, and
// checks that no other flags byte is read on the same bytes: an unknown bit
// is refused, and so is another shape's flags (every shape has its own
// length).
func TestExtendedProofSerializationRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		shape    string
		flags    byte
		size     int
		g1, fr   int
		openings string
	}{
		{"muladd", 0x00, 774, 9, 6, "a b c σ1 σ2 z(ζω)"},
		{"lookup", 0x01, 1030, 12, 8, "a b c σ1 σ2 T z(ζω) S(ζω)"},
		{"mimc", 0x02, 1158, 12, 12, "a b c σ1 σ2 K0 K1 K2 z(ζω) a(ζω) b(ζω) c(ζω)"},
		{"mixed", 0x03, 1414, 15, 14, "a b c σ1 σ2 T K0 K1 K2 z(ζω) S(ζω) a(ζω) b(ζω) c(ζω)"},
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
// seeded proofs of the muladd, lookup, mimc and mixed golden circuits,
// captured from the last prover that opened every committed polynomial.
func v1Proofs(t testing.TB) map[string][]byte {
	out := map[string][]byte{}
	for _, name := range []string{"muladd", "lookup", "mimc", "mixed"} {
		raw, err := os.ReadFile("testdata/v1/" + name + ".hex")
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

	// A known shape's flag on a classic-length blob must fail the length
	// check.
	for _, f := range []shape{shapeLookup, shapeCustom, shapeLookup | shapeCustom} {
		bad = append([]byte{}, good...)
		bad[5] = byte(f)
		if _, err := ProofFromBytes(bad); err == nil {
			t.Fatalf("flags %#02x with classic length accepted", byte(f))
		}
	}

	// A payload without its header must be turned away, not misread.
	if _, err := ProofFromBytes(good[headerSize:]); err == nil {
		t.Fatal("headerless payload accepted")
	}
}

// TestExtendedSerializationTamperRejected flips one byte in every section
// of an extended encoding — the classic points, the extension's points
// (LogUp commitments and extra quotient pieces, or the pieces alone on a
// custom-only proof), the openings at ζ and at ζω — and checks decode or
// verify rejects it.
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
		openings := headerSize + 64*(9+len(proof.TExtra))
		if proof.Lookup {
			openings += 3 * 64
		}
		offsets := []int{
			headerSize + 10,
			headerSize + 9*64 + 7,
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

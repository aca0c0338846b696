package plonk

import (
	"bytes"
	"testing"
)

// TestExtendedProofSerializationRoundTrip round-trips one proof of each of
// the four shapes through the versioned encoding at its exact size and flags
// byte, verifies the decoded proof, and checks that no other flags byte is
// read on the same bytes: an unknown bit is refused, and so is another
// shape's flags (every shape has its own length).
func TestExtendedProofSerializationRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		shape string
		flags byte
		size  int
	}{
		{"muladd", 0x00, 1094}, // 9 G1 + 16 Fr
		{"lookup", 0x01, 1766}, // 12 G1 + 31 Fr
		{"mimc", 0x02, 1670},   // 12 G1 + 28 Fr
		{"mixed", 0x03, 2054},  // 15 G1 + 34 Fr
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
			if err := Verify(vk, back, witness[:cs.NbPublic()]); err != nil {
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
	if _, err := ProofFromBytes(bad); err == nil {
		t.Fatal("future version accepted")
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

	// The headerless payload that predates versioning has no decoder left;
	// it must be turned away, not misread.
	if _, err := ProofFromBytes(good[headerSize:]); err == nil {
		t.Fatal("headerless 1088-byte payload accepted")
	}
}

// TestExtendedSerializationTamperRejected flips one byte in every section
// of an extended encoding — classic points and evaluations, the extension's
// points (LogUp commitments and extra quotient pieces, or the pieces alone
// on a custom-only proof) and its evaluations — and checks decode or verify
// rejects it.
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
		extPoints := headerSize + classicPayloadSize
		extScalars := extPoints + 64*len(proof.TExtra)
		if proof.Lookup {
			extScalars += 3 * 64
		}
		offsets := []int{
			headerSize + 10,
			headerSize + 9*64 + 5,
			extPoints + 7,
			extScalars - 64 + 3,
			extScalars + 9,
			len(good) - 5,
		}
		for _, off := range offsets {
			bad := append([]byte{}, good...)
			bad[off] ^= 0x5a
			back, err := ProofFromBytes(bad)
			if err != nil {
				continue // caught at decode
			}
			if err := Verify(vk, back, witness[:cs.NbPublic()]); err == nil {
				t.Fatalf("%s: tampered byte at offset %d accepted", name, off)
			}
		}
	}
}

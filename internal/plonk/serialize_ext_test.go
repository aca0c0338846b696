package plonk

import "testing"

// TestExtendedProofSerializationRoundTrip round-trips lookup-only and
// custom-gate proofs through the versioned encoding, verifying the
// decoded proofs and pinning the per-shape sizes.
func TestExtendedProofSerializationRoundTrip(t *testing.T) {
	// Lookup-only proof: [M],[H],[S] are live but there are no extra
	// quotient pieces; [QMimc] etc. commit to zero polynomials, so the
	// encoding must survive points at infinity.
	csL, wL := buildLookupCircuit(8, []uint64{0, 42, 255})
	pkL, vkL, err := Setup(csL, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	pL, err := Prove(pkL, wL)
	if err != nil {
		t.Fatal(err)
	}
	dataL := pL.Bytes()
	wantL := ProofSize + extPointsSize + extEvalsSize
	if len(dataL) != wantL {
		t.Fatalf("lookup proof encodes to %d bytes, want %d", len(dataL), wantL)
	}
	backL, err := ProofFromBytes(dataL)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vkL, backL, wL[:1]); err != nil {
		t.Fatalf("decoded lookup proof rejected: %v", err)
	}

	// Custom-gate proof: three extra quotient pieces ride along.
	csM, wM := buildMiMCCustomCircuit(5)
	pkM, vkM, err := Setup(csM, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	pM, err := Prove(pkM, wM)
	if err != nil {
		t.Fatal(err)
	}
	dataM := pM.Bytes()
	wantM := wantL + customExtraSize
	if len(dataM) != wantM {
		t.Fatalf("custom proof encodes to %d bytes, want %d", len(dataM), wantM)
	}
	backM, err := ProofFromBytes(dataM)
	if err != nil {
		t.Fatal(err)
	}
	if len(backM.TExtra) != 3 || backM.Evals.Ext == nil || len(backM.Evals.Ext.TExtra) != 3 {
		t.Fatalf("decoded custom proof lost extension data")
	}
	if err := Verify(vkM, backM, wM[:1]); err != nil {
		t.Fatalf("decoded custom proof rejected: %v", err)
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

	// Custom flag without extended flag is malformed.
	bad = append([]byte{}, good...)
	bad[5] = flagCustom
	if _, err := ProofFromBytes(bad); err == nil {
		t.Fatal("custom-without-extended accepted")
	}

	// Extended flag on a classic-length blob must fail the length check.
	bad = append([]byte{}, good...)
	bad[5] = flagExtended
	if _, err := ProofFromBytes(bad); err == nil {
		t.Fatal("extended flag with classic length accepted")
	}

	// The headerless payload that predates versioning has no decoder left;
	// it must be turned away, not misread.
	if _, err := ProofFromBytes(good[headerSize:]); err == nil {
		t.Fatal("headerless 1088-byte payload accepted")
	}
}

// TestExtendedSerializationTamperRejected flips one byte in every section
// of an extended encoding and checks decode or verify rejects it.
func TestExtendedSerializationTamperRejected(t *testing.T) {
	cs, witness := buildMiMCCustomCircuit(4)
	pk, vk, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	good := proof.Bytes()
	// One offset inside each section: classic points, classic evals,
	// extension points, extra pieces, extension evals.
	offsets := []int{
		headerSize + 10,
		headerSize + 9*64 + 5,
		headerSize + classicPayloadSize + 7,
		headerSize + classicPayloadSize + extPointsSize + 3,
		headerSize + classicPayloadSize + extPointsSize + 3*64 + 9,
	}
	for _, off := range offsets {
		bad := append([]byte{}, good...)
		bad[off] ^= 0x5a
		back, err := ProofFromBytes(bad)
		if err != nil {
			continue // caught at decode
		}
		if err := Verify(vk, back, witness[:1]); err == nil {
			t.Fatalf("tampered byte at offset %d accepted", off)
		}
	}
}

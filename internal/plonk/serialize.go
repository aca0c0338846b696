package plonk

import (
	"bytes"
	"fmt"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
)

// Proof wire format. Encodings are version-stamped so the format can
// evolve with the proof system: a 4-byte magic, a format version and a
// flags byte describing the proof shape, followed by the fixed classic
// payload and (for lookup/custom-gate proofs) the extension payload.
//
//	"ZKPF" | version=1 | flags | classic payload | [extension payload]
//
// The flags byte is the proof's shape: bit 0 marks a lookup proof, which
// carries [M], [H], [S] and six LogUp openings, bit 1 a custom-gate proof,
// which carries three extra quotient pieces and their openings. Either bit
// adds the nine openings every extended proof carries (the ζω wires, the
// custom-gate selectors and round constants). So there are four sizes:
//
//	0x00 classic          1 094 B   9 G1 + 16 Fr
//	0x01 lookup           1 766 B  12 G1 + 31 Fr
//	0x02 custom           1 670 B  12 G1 + 28 Fr
//	0x03 lookup + custom  2 054 B  15 G1 + 34 Fr
//
// Flags 0x01 and 0x03 are laid out as they were when bit 0 meant "extended";
// 0x02 was refused then, so no older encoding is read differently now. A
// blob without the header — such as the bare 1088-byte classic payload that
// predates versioning — is rejected.
const (
	proofVersion = 1

	headerSize = 6

	// classicPayloadSize is 9 uncompressed G1 points + 16 field elements.
	classicPayloadSize = 9*64 + 16*32
	// extEvalsSize is the nine openings every extended proof carries: a, b,
	// c at ζω, the three custom-gate selectors and three round-constant
	// columns at ζ.
	extEvalsSize = 9 * 32
	// lookupSize is the LogUp commitments [M], [H], [S] and their six
	// openings (M, H, S, S at ζω, the lookup selector and the table).
	lookupSize = 3*64 + 6*32
	// customExtraSize adds the three extra quotient pieces and their ζ
	// evaluations.
	customExtraSize = 3*64 + 3*32
)

// proofMagic stamps every versioned proof encoding.
var proofMagic = [4]byte{'Z', 'K', 'P', 'F'}

// ProofSize is the byte length of a serialized classic proof (header plus
// the constant classic payload). The other shapes add constant sizes too
// (see encodedSize), whatever the circuit size.
const ProofSize = headerSize + classicPayloadSize

// MaxProofSize is the byte length of the largest proof encoding there is:
// a lookup + custom-gate proof. A decoder embedding proofs in its own
// format caps a length prefix with it.
const MaxProofSize = ProofSize + extEvalsSize + lookupSize + customExtraSize

// encodedSize returns the byte length of a proof of the given shape.
func encodedSize(f shape) int {
	size := ProofSize
	if f != 0 {
		size += extEvalsSize
	}
	if f.lookup() {
		size += lookupSize
	}
	if f.custom() {
		size += customExtraSize
	}
	return size
}

// eachWireField visits the proof's fields in encoding order, calling point
// for each 64-byte commitment and scalar for each 32-byte evaluation: the
// nine classic points, the sixteen classic evaluations, then on an extended
// proof [M], [H], [S] (lookup) and the extra quotient pieces (custom), then
// the extension's evaluations, whose LogUp openings only a lookup proof
// carries. Encoder and decoder share it, so the layout is written once.
func (p *Proof) eachWireField(point func(*bn254.G1Affine), scalar func(*fr.Element)) {
	ev := &p.Evals
	for _, pt := range [...]*bn254.G1Affine{&p.A, &p.B, &p.C, &p.Z, &p.TLo, &p.TMid, &p.THi, &p.WZeta, &p.WZetaOmega} {
		point(pt)
	}
	for _, s := range [...]*fr.Element{
		&ev.A, &ev.B, &ev.C, &ev.Z,
		&ev.QL, &ev.QR, &ev.QO, &ev.QM, &ev.QC,
		&ev.S1, &ev.S2, &ev.S3,
		&ev.TLo, &ev.TMid, &ev.THi,
		&ev.ZOmega,
	} {
		scalar(s)
	}
	if p.shape() == 0 {
		return
	}
	e := ev.Ext
	if p.Lookup {
		point(&p.M)
		point(&p.H)
		point(&p.S)
	}
	for i := range p.TExtra {
		point(&p.TExtra[i])
	}
	if p.Lookup {
		for _, s := range [...]*fr.Element{&e.M, &e.H, &e.S, &e.SOmega} {
			scalar(s)
		}
	}
	for _, s := range [...]*fr.Element{&e.AOmega, &e.BOmega, &e.COmega} {
		scalar(s)
	}
	if p.Lookup {
		scalar(&e.QLk)
		scalar(&e.Tbl)
	}
	for _, s := range [...]*fr.Element{&e.QMimc, &e.QPosF, &e.QPosP, &e.K0, &e.K1, &e.K2} {
		scalar(s)
	}
	for i := range e.TExtra {
		scalar(&e.TExtra[i])
	}
}

// readG1 decodes a 64-byte G1 encoding at data[off:], accepting the
// all-zero encoding as the point at infinity (the commitment to the zero
// polynomial, which G1Affine.Bytes writes as 64 zero bytes).
func readG1(data []byte, off int) (bn254.G1Affine, error) {
	chunk := data[off : off+64]
	var zero [64]byte
	if bytes.Equal(chunk, zero[:]) {
		return bn254.G1Affine{}, nil
	}
	return bn254.G1FromBytes(chunk)
}

// Bytes serializes the proof into its canonical versioned encoding.
func (p *Proof) Bytes() []byte {
	f := p.shape()
	out := make([]byte, 0, encodedSize(f))
	out = append(out, proofMagic[:]...)
	out = append(out, proofVersion, byte(f))
	p.eachWireField(func(pt *bn254.G1Affine) {
		b := pt.Bytes()
		out = append(out, b[:]...)
	}, func(s *fr.Element) {
		b := s.Bytes()
		out = append(out, b[:]...)
	})
	return out
}

// ProofFromBytes deserializes a versioned proof, validating that every
// group element lies on the curve and every scalar is canonical.
func ProofFromBytes(data []byte) (*Proof, error) {
	if len(data) < headerSize || !bytes.Equal(data[:4], proofMagic[:]) {
		return nil, fmt.Errorf("plonk: proof encoding lacks %q header", proofMagic)
	}
	if v := data[4]; v != proofVersion {
		return nil, fmt.Errorf("plonk: unsupported proof format version %d (have %d)", v, proofVersion)
	}
	f := shape(data[5])
	if f&^(shapeLookup|shapeCustom) != 0 {
		return nil, fmt.Errorf("plonk: unknown proof flags %#02x", byte(f))
	}
	if want := encodedSize(f); len(data) != want {
		return nil, fmt.Errorf("plonk: proof with flags %#02x must be %d bytes, got %d", byte(f), want, len(data))
	}

	p := &Proof{Lookup: f.lookup()}
	if f != 0 {
		p.Evals.Ext = &ExtEvals{}
	}
	if f.custom() {
		p.TExtra = make([]bn254.G1Affine, 3)
		p.Evals.Ext.TExtra = make([]fr.Element, 3)
	}
	off := headerSize
	var err error
	p.eachWireField(func(pt *bn254.G1Affine) {
		if err == nil {
			if *pt, err = readG1(data, off); err != nil {
				err = fmt.Errorf("plonk: proof point: %w", err)
			}
		}
		off += 64
	}, func(s *fr.Element) {
		if err == nil {
			if *s, err = fr.FromBytesCanonical(data[off : off+32]); err != nil {
				err = fmt.Errorf("plonk: proof scalar: %w", err)
			}
		}
		off += 32
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

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
// flags bit 0 marks an extended (lookup/custom) proof, bit 1 a custom-gate
// proof carrying three extra quotient pieces. A blob without the header —
// such as the bare 1088-byte classic payload that predates versioning — is
// rejected.
const (
	proofVersion = 1

	flagExtended byte = 1 << 0
	flagCustom   byte = 1 << 1

	headerSize = 6

	// classicPayloadSize is 9 uncompressed G1 points + 16 field elements.
	classicPayloadSize = 9*64 + 16*32
	// extPointsSize is the LogUp commitments [M], [H], [S].
	extPointsSize = 3 * 64
	// extEvalsSize is the 15 extension evaluations (M, H, S, the four ζω
	// openings, five extension selectors, three round-constant columns).
	extEvalsSize = 15 * 32
	// customExtraSize adds the three extra quotient pieces and their ζ
	// evaluations.
	customExtraSize = 3*64 + 3*32
)

// proofMagic stamps every versioned proof encoding.
var proofMagic = [4]byte{'Z', 'K', 'P', 'F'}

// ProofSize is the byte length of a serialized classic proof (header plus
// the constant classic payload). Lookup proofs add extPointsSize +
// extEvalsSize bytes, custom-gate proofs customExtraSize more — still
// constant, whatever the circuit size.
const ProofSize = headerSize + classicPayloadSize

// MaxProofSize is the byte length of the largest proof encoding there is:
// an extended custom-gate proof. A decoder embedding proofs in its own
// format caps a length prefix with it.
const MaxProofSize = ProofSize + extPointsSize + extEvalsSize + customExtraSize

// appendG1 appends the 64-byte uncompressed encoding of pt. The point at
// infinity — a legitimate commitment to the zero polynomial, e.g. [M] in a
// custom-gate proof with no lookups — encodes as 64 zero bytes.
func appendG1(out []byte, pt *bn254.G1Affine) []byte {
	b := pt.Bytes()
	return append(out, b[:]...)
}

// readG1 decodes a 64-byte G1 encoding at data[off:], accepting the
// all-zero encoding as the point at infinity.
func readG1(data []byte, off int) (bn254.G1Affine, error) {
	chunk := data[off : off+64]
	var zero [64]byte
	if bytes.Equal(chunk, zero[:]) {
		return bn254.G1Affine{}, nil
	}
	return bn254.G1FromBytes(chunk)
}

// flags derives the shape byte from the proof's contents.
func (p *Proof) flags() byte {
	var f byte
	if p.Evals.Ext != nil {
		f |= flagExtended
		if len(p.TExtra) > 0 {
			f |= flagCustom
		}
	}
	return f
}

// Bytes serializes the proof into its canonical versioned encoding.
func (p *Proof) Bytes() []byte {
	f := p.flags()
	size := ProofSize
	if f&flagExtended != 0 {
		size += extPointsSize + extEvalsSize
	}
	if f&flagCustom != 0 {
		size += customExtraSize
	}
	out := make([]byte, 0, size)
	out = append(out, proofMagic[:]...)
	out = append(out, proofVersion, f)

	for _, pt := range []bn254.G1Affine{
		p.A, p.B, p.C, p.Z, p.TLo, p.TMid, p.THi, p.WZeta, p.WZetaOmega,
	} {
		out = appendG1(out, &pt)
	}
	evals := p.Evals.evalList()
	evals = append(evals, p.Evals.ZOmega)
	for i := range evals {
		b := evals[i].Bytes()
		out = append(out, b[:]...)
	}
	if f&flagExtended == 0 {
		return out
	}

	for _, pt := range []bn254.G1Affine{p.M, p.H, p.S} {
		out = appendG1(out, &pt)
	}
	for i := range p.TExtra {
		out = appendG1(out, &p.TExtra[i])
	}
	e := p.Evals.Ext
	extScalars := []fr.Element{
		e.M, e.H, e.S,
		e.SOmega, e.AOmega, e.BOmega, e.COmega,
		e.QLk, e.Tbl, e.QMimc, e.QPosF, e.QPosP,
		e.K0, e.K1, e.K2,
	}
	extScalars = append(extScalars, e.TExtra...)
	for i := range extScalars {
		b := extScalars[i].Bytes()
		out = append(out, b[:]...)
	}
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
	f := data[5]
	if f&^(flagExtended|flagCustom) != 0 {
		return nil, fmt.Errorf("plonk: unknown proof flags %#02x", f)
	}
	if f&flagCustom != 0 && f&flagExtended == 0 {
		return nil, fmt.Errorf("plonk: custom flag without extended flag")
	}
	want := ProofSize
	if f&flagExtended != 0 {
		want += extPointsSize + extEvalsSize
	}
	if f&flagCustom != 0 {
		want += customExtraSize
	}
	if len(data) != want {
		return nil, fmt.Errorf("plonk: proof with flags %#02x must be %d bytes, got %d", f, want, len(data))
	}

	p := &Proof{}
	off := headerSize
	var err error
	if off, err = decodeClassicPayload(p, data, off); err != nil {
		return nil, err
	}
	if f&flagExtended == 0 {
		return p, nil
	}

	for _, pt := range []*bn254.G1Affine{&p.M, &p.H, &p.S} {
		*pt, err = readG1(data, off)
		if err != nil {
			return nil, fmt.Errorf("plonk: proof point: %w", err)
		}
		off += 64
	}
	nbExtra := 0
	if f&flagCustom != 0 {
		nbExtra = 3
		p.TExtra = make([]bn254.G1Affine, 0, nbExtra)
		for i := 0; i < nbExtra; i++ {
			pt, err := readG1(data, off)
			if err != nil {
				return nil, fmt.Errorf("plonk: proof point: %w", err)
			}
			p.TExtra = append(p.TExtra, pt)
			off += 64
		}
	}
	e := &ExtEvals{}
	extScalars := []*fr.Element{
		&e.M, &e.H, &e.S,
		&e.SOmega, &e.AOmega, &e.BOmega, &e.COmega,
		&e.QLk, &e.Tbl, &e.QMimc, &e.QPosF, &e.QPosP,
		&e.K0, &e.K1, &e.K2,
	}
	for _, s := range extScalars {
		decoded, err := fr.FromBytesCanonical(data[off : off+32])
		if err != nil {
			return nil, fmt.Errorf("plonk: proof scalar: %w", err)
		}
		*s = decoded
		off += 32
	}
	if nbExtra > 0 {
		e.TExtra = make([]fr.Element, nbExtra)
		for i := 0; i < nbExtra; i++ {
			e.TExtra[i], err = fr.FromBytesCanonical(data[off : off+32])
			if err != nil {
				return nil, fmt.Errorf("plonk: proof scalar: %w", err)
			}
			off += 32
		}
	}
	p.Evals.Ext = e
	return p, nil
}

// decodeClassicPayload reads the 9 points and 16 scalars every proof
// carries, returning the new offset.
func decodeClassicPayload(p *Proof, data []byte, off int) (int, error) {
	pts := []*bn254.G1Affine{
		&p.A, &p.B, &p.C, &p.Z, &p.TLo, &p.TMid, &p.THi, &p.WZeta, &p.WZetaOmega,
	}
	for _, pt := range pts {
		decoded, err := readG1(data, off)
		if err != nil {
			return 0, fmt.Errorf("plonk: proof point: %w", err)
		}
		*pt = decoded
		off += 64
	}
	scalars := []*fr.Element{
		&p.Evals.A, &p.Evals.B, &p.Evals.C, &p.Evals.Z,
		&p.Evals.QL, &p.Evals.QR, &p.Evals.QO, &p.Evals.QM, &p.Evals.QC,
		&p.Evals.S1, &p.Evals.S2, &p.Evals.S3,
		&p.Evals.TLo, &p.Evals.TMid, &p.Evals.THi,
		&p.Evals.ZOmega,
	}
	for _, s := range scalars {
		decoded, err := fr.FromBytesCanonical(data[off : off+32])
		if err != nil {
			return 0, fmt.Errorf("plonk: proof scalar: %w", err)
		}
		*s = decoded
		off += 32
	}
	return off, nil
}

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
//	"ZKPF" | version=3 | flags | commitments | openings at ζ | openings at ζω
//
// The commitments are [a], [b], [c], [z], the quotient pieces [t_0] (and
// [t_1] on a custom-gate proof), [W_ζ], [W_ζω], then [M], [H], [S] on a
// lookup proof. The openings follow Proof.openings: a, b, c, σ1, σ2 at ζ,
// then T (lookup); z at ζω, then S (lookup) and Y (custom). The flags byte
// is the proof's shape — bit 0 lookup, bit 1 custom — and there are three,
// each of its own size:
//
//	0x00 classic            646 B   7 G1 + 6 Fr
//	0x02 custom             742 B   8 G1 + 7 Fr
//	0x03 lookup + custom    998 B  11 G1 + 9 Fr
//
// A lookup argument comes only beside custom gates (Setup refuses lookup
// rows without them), so flags 0x01 are refused with ErrProofShape.
//
// Version 1 opened every committed polynomial instead of a linearization
// (1 094 B classic); version 2 committed the quotient in n-coefficient
// pieces and opened the next-row wires and round constants of a custom
// proof one by one (774, 1 158 and 1 414 B). Their blobs are refused with
// ErrProofVersion. A blob without the header is rejected.
const (
	proofVersion = 3

	headerSize = 6

	// classicPayloadSize is 7 uncompressed G1 points + 6 field elements.
	classicPayloadSize = 7*64 + 6*32
	// lookupSize is the LogUp commitments [M], [H], [S] and the two LogUp
	// openings: the table at ζ and S at ζω.
	lookupSize = 3*64 + 2*32
	// customSize is the second quotient piece and the next-row opening Y.
	customSize = 64 + 32
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
const MaxProofSize = ProofSize + lookupSize + customSize

// encodedSize returns the byte length of a proof of the given shape.
func encodedSize(f shape) int {
	size := ProofSize
	if f.lookup() {
		size += lookupSize
	}
	if f.custom() {
		size += customSize
	}
	return size
}

// eachWireField visits the proof's fields in encoding order, calling point
// for each 64-byte commitment and scalar for each 32-byte opening. Encoder
// and decoder share it, so the layout is written once.
func (p *Proof) eachWireField(point func(*bn254.G1Affine), scalar func(*fr.Element)) {
	for _, pt := range [...]*bn254.G1Affine{&p.A, &p.B, &p.C, &p.Z} {
		point(pt)
	}
	for i := range p.T {
		point(&p.T[i])
	}
	point(&p.WZeta)
	point(&p.WZetaOmega)
	if p.shape().lookup() {
		point(&p.M)
		point(&p.H)
		point(&p.S)
	}
	atZeta, atOmega := p.openings()
	for _, s := range append(atZeta, atOmega...) {
		scalar(s)
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
		return nil, fmt.Errorf("%w %d (have %d)", ErrProofVersion, v, proofVersion)
	}
	f := shape(data[5])
	if f&^(shapeLookup|shapeCustom) != 0 {
		return nil, fmt.Errorf("plonk: unknown proof flags %#02x", byte(f))
	}
	if f == shapeLookup {
		return nil, fmt.Errorf("%w: flags %#02x, a lookup argument without custom gates", ErrProofShape, byte(f))
	}
	if want := encodedSize(f); len(data) != want {
		return nil, fmt.Errorf("plonk: proof with flags %#02x must be %d bytes, got %d", byte(f), want, len(data))
	}

	p := &Proof{Lookup: f.lookup()}
	if f != 0 {
		p.Evals.Ext = &ExtEvals{}
	}
	p.T = make([]bn254.G1Affine, f.quotientPieces())
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

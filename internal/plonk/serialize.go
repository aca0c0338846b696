package plonk

import (
	"bytes"
	"fmt"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
)

// Proof wire format. Encodings are version-stamped so the format can
// evolve with the proof system: a 4-byte magic, a format version and a
// flags byte describing the proof shape, followed by the payload.
//
//	"ZKPF" | version=3 | flags | commitments | openings at ζ | openings at ζω
//
// The commitments are [a], [b], [c], [z], the quotient pieces [t_0] and
// [t_1], [W_ζ], [W_ζω], then [M], [H], [S] on a lookup proof. The openings
// follow Proof.openings: a, b, c, σ1, σ2 at ζ, then T (lookup); z at ζω,
// then S (lookup), then Y. The flags byte is the proof's shape — bit 1,
// custom gates, always set, and bit 0 lookup — and there are two, each of
// its own size:
//
//	0x02 custom             742 B   8 G1 + 7 Fr
//	0x03 lookup + custom    998 B  11 G1 + 9 Fr
//
// Flags 0x00 (the classic shape, 646 B, which no key proves on any more)
// and 0x01 (a lookup argument without custom gates, which never existed)
// are refused with ErrProofShape.
//
// Version 1 opened every committed polynomial instead of a linearization
// (1 094 B classic); version 2 committed the quotient in n-coefficient
// pieces and opened the next-row wires and round constants of a custom
// proof one by one (774, 1 158 and 1 414 B). Their blobs are refused with
// ErrProofVersion. A blob without the header is rejected.
const (
	proofVersion = 3

	headerSize = 6

	// lookupSize is the LogUp commitments [M], [H], [S] and the two LogUp
	// openings: the table at ζ and S at ζω.
	lookupSize = 3*64 + 2*32
)

// proofMagic stamps every versioned proof encoding.
var proofMagic = [4]byte{'Z', 'K', 'P', 'F'}

// ProofSize is the byte length of the smallest proof encoding, a custom
// proof: the header, 8 uncompressed G1 points and 7 field elements. A
// lookup proof adds lookupSize (see encodedSize), whatever the circuit size.
const ProofSize = headerSize + 8*64 + 7*32

// MaxProofSize is the byte length of the largest proof encoding there is:
// a lookup + custom-gate proof. A decoder embedding proofs in its own
// format caps a length prefix with it.
const MaxProofSize = ProofSize + lookupSize

// encodedSize returns the byte length of a proof of the given shape.
func encodedSize(f shape) int {
	if f.lookup() {
		return MaxProofSize
	}
	return ProofSize
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
	if p.Lookup {
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
	if f&shapeCustom == 0 {
		return nil, fmt.Errorf("%w: flags %#02x, a proof without the custom-gate layout", ErrProofShape, byte(f))
	}
	if want := encodedSize(f); len(data) != want {
		return nil, fmt.Errorf("plonk: proof with flags %#02x must be %d bytes, got %d", byte(f), want, len(data))
	}

	p := &Proof{Lookup: f.lookup(), T: make([]bn254.G1Affine, quotientPieces)}
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

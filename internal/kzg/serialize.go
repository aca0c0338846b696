package kzg

import (
	"encoding/binary"
	"fmt"

	"github.com/zkdet/zkdet/internal/bn254"
)

// SRS serialization: a magic header, the G1 power count, the G1 powers
// uncompressed, then the two G2 points. Ceremony outputs are distributed in
// this format so participants can verify them with VerifySRS/VerifyChain.

const srsMagic = "zkdet-srs-v1\x00\x00\x00\x00"

// g2ByteLen is the uncompressed G2 encoding size (two Fp2 coordinates).
const g2ByteLen = 128

func g2Bytes(p *bn254.G2Affine) [g2ByteLen]byte {
	var out [g2ByteLen]byte
	x0 := p.X.A0.Bytes()
	x1 := p.X.A1.Bytes()
	y0 := p.Y.A0.Bytes()
	y1 := p.Y.A1.Bytes()
	copy(out[0:32], x0[:])
	copy(out[32:64], x1[:])
	copy(out[64:96], y0[:])
	copy(out[96:128], y1[:])
	return out
}

func g2FromBytes(b []byte) (bn254.G2Affine, error) {
	if len(b) != g2ByteLen {
		return bn254.G2Affine{}, fmt.Errorf("kzg: g2 encoding must be %d bytes", g2ByteLen)
	}
	var p bn254.G2Affine
	var err error
	if p.X.A0, err = bn254.FpFromBytesCanonical(b[0:32]); err != nil {
		return bn254.G2Affine{}, fmt.Errorf("kzg: g2 x0: %w", err)
	}
	if p.X.A1, err = bn254.FpFromBytesCanonical(b[32:64]); err != nil {
		return bn254.G2Affine{}, fmt.Errorf("kzg: g2 x1: %w", err)
	}
	if p.Y.A0, err = bn254.FpFromBytesCanonical(b[64:96]); err != nil {
		return bn254.G2Affine{}, fmt.Errorf("kzg: g2 y0: %w", err)
	}
	if p.Y.A1, err = bn254.FpFromBytesCanonical(b[96:128]); err != nil {
		return bn254.G2Affine{}, fmt.Errorf("kzg: g2 y1: %w", err)
	}
	if !p.IsOnCurve() {
		return bn254.G2Affine{}, fmt.Errorf("kzg: g2 point not on curve")
	}
	return p, nil
}

// Bytes serializes the SRS.
func (s *SRS) Bytes() []byte {
	out := make([]byte, 0, len(srsMagic)+8+64*len(s.G1)+2*g2ByteLen)
	out = append(out, srsMagic...)
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(s.G1)))
	out = append(out, n[:]...)
	for i := range s.G1 {
		b := s.G1[i].Bytes()
		out = append(out, b[:]...)
	}
	for i := range s.G2 {
		b := g2Bytes(&s.G2[i])
		out = append(out, b[:]...)
	}
	return out
}

// SRSFromBytes deserializes and structurally validates an SRS: every point
// must be on its curve and the power chain must verify (one batched pairing
// check), so a tampered file cannot produce a usable-but-wrong SRS.
func SRSFromBytes(data []byte) (*SRS, error) {
	if len(data) < len(srsMagic)+8 {
		return nil, fmt.Errorf("%w: truncated header", ErrInvalidSRS)
	}
	if string(data[:len(srsMagic)]) != srsMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrInvalidSRS)
	}
	data = data[len(srsMagic):]
	n := binary.BigEndian.Uint64(data[:8])
	data = data[8:]
	if n < 2 || n > 1<<30 {
		return nil, fmt.Errorf("%w: implausible size %d", ErrInvalidSRS, n)
	}
	// In uint64: on a 32-bit build int(n)*64 wraps for n ≥ 2^25.
	want := n*64 + 2*g2ByteLen
	if uint64(len(data)) != want {
		return nil, fmt.Errorf("%w: body is %d bytes, want %d", ErrInvalidSRS, len(data), want)
	}
	srs := &SRS{G1: make([]bn254.G1Affine, n)}
	for i := range srs.G1 {
		p, err := bn254.G1FromBytes(data[:64])
		if err != nil {
			return nil, fmt.Errorf("kzg: srs g1[%d]: %w", i, err)
		}
		srs.G1[i] = p
		data = data[64:]
	}
	for i := range srs.G2 {
		p, err := g2FromBytes(data[:g2ByteLen])
		if err != nil {
			return nil, fmt.Errorf("kzg: srs g2[%d]: %w", i, err)
		}
		srs.G2[i] = p
		data = data[g2ByteLen:]
	}
	if err := VerifySRS(srs); err != nil {
		return nil, err
	}
	return srs, nil
}

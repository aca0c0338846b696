package ct

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
)

// Wire format, following the plonk ZKPF convention: a 4-byte magic, a
// 1-byte version, then fixed-width fields. Every point is the 64-byte
// uncompressed G1 encoding (decoding rejects off-curve points), every
// scalar the canonical 32-byte big-endian fr encoding. Version 2 moved
// the range proofs out of the output proofs into a counted list behind
// them (one π_ct per RangeSlots outputs); version-1 bytes are refused.
const (
	proofMagic   = "ZKCT"
	proofVersion = 2

	proofFixed = 4 + 1 + 1 + 2 + 64 + 32 // magic version flags nOutputs ‖ TBal ZBal

	outputWire    = 64 + 160    // commitment ‖ audit cipher
	outProofFixed = 3*64 + 4*32 // TOpen TEnc1 TEnc2 ‖ PT ZV ZR ZRho
)

// ErrBadProofEncoding is returned when decoding rejects proof bytes.
var ErrBadProofEncoding = errors.New("ct: malformed transfer proof encoding")

// maxRangeProofLen caps one embedded π_ct blob at the largest encoding
// plonk itself produces, so a hostile length prefix cannot drive
// allocation.
const maxRangeProofLen = plonk.MaxProofSize

// Bytes encodes an output as commitment ‖ audit cipher (224 bytes).
func (o *Output) Bytes() [outputWire]byte {
	var out [outputWire]byte
	c := o.C.Bytes()
	a := o.Audit.Bytes()
	copy(out[:64], c[:])
	copy(out[64:], a[:])
	return out
}

// OutputFromBytes decodes a 224-byte output encoding.
func OutputFromBytes(b []byte) (Output, error) {
	var o Output
	if len(b) != outputWire {
		return o, fmt.Errorf("%w: output is %d bytes", ErrBadCommitment, len(b))
	}
	var err error
	if o.C, err = CommitmentFromBytes(b[:64]); err != nil {
		return o, err
	}
	if o.Audit, err = AuditCipherFromBytes(b[64:]); err != nil {
		return o, err
	}
	return o, nil
}

// Bytes serializes the proof: magic, version, flags, output count, the
// balance pair, each output proof, then the range-proof count and each
// π_ct length-prefixed.
func (p *Proof) Bytes() []byte {
	size := proofFixed + len(p.Outputs)*outProofFixed + 2
	blobs := make([][]byte, len(p.Ranges))
	for g := range p.Ranges {
		blobs[g] = p.Ranges[g].Bytes()
		size += 4 + len(blobs[g])
	}
	out := make([]byte, 0, size)
	out = append(out, proofMagic...)
	out = append(out, proofVersion, 0)
	out = binary.BigEndian.AppendUint16(out, uint16(len(p.Outputs)))
	tb := p.TBal.Bytes()
	zb := p.ZBal.Bytes()
	out = append(out, tb[:]...)
	out = append(out, zb[:]...)
	for i := range p.Outputs {
		op := &p.Outputs[i]
		to := op.TOpen.Bytes()
		t1 := op.TEnc1.Bytes()
		t2 := op.TEnc2.Bytes()
		out = append(out, to[:]...)
		out = append(out, t1[:]...)
		out = append(out, t2[:]...)
		pt := op.PT.Bytes()
		zv := op.ZV.Bytes()
		zr := op.ZR.Bytes()
		zrho := op.ZRho.Bytes()
		out = append(out, pt[:]...)
		out = append(out, zv[:]...)
		out = append(out, zr[:]...)
		out = append(out, zrho[:]...)
	}
	out = binary.BigEndian.AppendUint16(out, uint16(len(blobs)))
	for _, blob := range blobs {
		out = binary.BigEndian.AppendUint32(out, uint32(len(blob)))
		out = append(out, blob...)
	}
	return out
}

// ProofFromBytes decodes a transfer proof, rejecting bad magic, unknown
// versions, arity over MaxParties, off-curve points, non-canonical
// scalars, a range-proof count other than ⌈outputs/RangeSlots⌉, empty or
// oversized range proofs, and truncated or trailing bytes.
func ProofFromBytes(b []byte) (*Proof, error) {
	if len(b) < proofFixed {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadProofEncoding, len(b))
	}
	if string(b[:4]) != proofMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadProofEncoding)
	}
	if b[4] != proofVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrBadProofEncoding, b[4])
	}
	if b[5] != 0 {
		return nil, fmt.Errorf("%w: reserved flags set", ErrBadProofEncoding)
	}
	n := int(binary.BigEndian.Uint16(b[6:8]))
	if n == 0 || n > MaxParties {
		return nil, fmt.Errorf("%w: %d outputs", ErrBadProofEncoding, n)
	}
	rest := b[8:]
	p := &Proof{Outputs: make([]OutputProof, n)}
	var err error
	if p.TBal, err = bn254.G1FromBytes(rest[:64]); err != nil {
		return nil, fmt.Errorf("%w: TBal: %w", ErrBadProofEncoding, err)
	}
	if p.ZBal, err = fr.FromBytesCanonical(rest[64:96]); err != nil {
		return nil, fmt.Errorf("%w: ZBal: %w", ErrBadProofEncoding, err)
	}
	rest = rest[96:]
	for i := 0; i < n; i++ {
		if len(rest) < outProofFixed {
			return nil, fmt.Errorf("%w: truncated output %d", ErrBadProofEncoding, i)
		}
		op := &p.Outputs[i]
		if op.TOpen, err = bn254.G1FromBytes(rest[:64]); err != nil {
			return nil, fmt.Errorf("%w: output %d TOpen: %w", ErrBadProofEncoding, i, err)
		}
		if op.TEnc1, err = bn254.G1FromBytes(rest[64:128]); err != nil {
			return nil, fmt.Errorf("%w: output %d TEnc1: %w", ErrBadProofEncoding, i, err)
		}
		if op.TEnc2, err = bn254.G1FromBytes(rest[128:192]); err != nil {
			return nil, fmt.Errorf("%w: output %d TEnc2: %w", ErrBadProofEncoding, i, err)
		}
		if op.PT, err = fr.FromBytesCanonical(rest[192:224]); err != nil {
			return nil, fmt.Errorf("%w: output %d PT: %w", ErrBadProofEncoding, i, err)
		}
		if op.ZV, err = fr.FromBytesCanonical(rest[224:256]); err != nil {
			return nil, fmt.Errorf("%w: output %d ZV: %w", ErrBadProofEncoding, i, err)
		}
		if op.ZR, err = fr.FromBytesCanonical(rest[256:288]); err != nil {
			return nil, fmt.Errorf("%w: output %d ZR: %w", ErrBadProofEncoding, i, err)
		}
		if op.ZRho, err = fr.FromBytesCanonical(rest[288:320]); err != nil {
			return nil, fmt.Errorf("%w: output %d ZRho: %w", ErrBadProofEncoding, i, err)
		}
		rest = rest[outProofFixed:]
	}
	if len(rest) < 2 {
		return nil, fmt.Errorf("%w: truncated range proof count", ErrBadProofEncoding)
	}
	if got, want := int(binary.BigEndian.Uint16(rest)), rangeCount(n); got != want {
		return nil, fmt.Errorf("%w: %d range proofs for %d outputs, want %d", ErrBadProofEncoding, got, n, want)
	}
	rest = rest[2:]
	p.Ranges = make([]*plonk.Proof, rangeCount(n))
	for g := range p.Ranges {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: truncated range proof %d", ErrBadProofEncoding, g)
		}
		l := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if l == 0 || l > maxRangeProofLen {
			return nil, fmt.Errorf("%w: range proof %d length %d", ErrBadProofEncoding, g, l)
		}
		if uint32(len(rest)) < l {
			return nil, fmt.Errorf("%w: truncated range proof %d", ErrBadProofEncoding, g)
		}
		if p.Ranges[g], err = plonk.ProofFromBytes(rest[:l]); err != nil {
			return nil, fmt.Errorf("%w: range proof %d: %w", ErrBadProofEncoding, g, err)
		}
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadProofEncoding, len(rest))
	}
	return p, nil
}

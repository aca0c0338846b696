// Package transcript implements a Fiat–Shamir transcript: a domain-separated
// SHA-256 sponge that absorbs protocol messages and squeezes verifier
// challenges, turning the interactive Plonk protocol into a NIZK.
package transcript

import (
	"crypto/sha256"
	"encoding/binary"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
)

// Transcript accumulates protocol messages and derives challenges. It is
// deterministic: prover and verifier reconstruct identical challenges by
// absorbing identical messages. Not safe for concurrent use.
type Transcript struct {
	state [32]byte
	buf   []byte // absorb's preimage, state ‖ len ‖ data, reused across calls
}

// New returns a transcript seeded with a protocol label, which provides
// domain separation between protocols sharing the same primitives.
func New(label string) *Transcript {
	t := &Transcript{}
	absorb(t, "zkdet/transcript/v1")
	absorb(t, label)
	return t
}

// absorb sets state = SHA-256(state ‖ len(data) ‖ data), len as 8 bytes
// big-endian. Labels go in as strings and messages as byte slices; the
// bytes hashed are the same either way.
func absorb[T string | []byte](t *Transcript, data T) {
	t.buf = append(t.buf[:0], t.state[:]...)
	t.buf = binary.BigEndian.AppendUint64(t.buf, uint64(len(data)))
	t.buf = append(t.buf, data...)
	t.state = sha256.Sum256(t.buf)
}

// AppendBytes absorbs a labelled byte string.
func (t *Transcript) AppendBytes(label string, data []byte) {
	absorb(t, label)
	absorb(t, data)
}

// AppendScalar absorbs a labelled field element.
func (t *Transcript) AppendScalar(label string, s *fr.Element) {
	b := s.Bytes()
	t.AppendBytes(label, b[:])
}

// AppendScalars absorbs a labelled list of field elements.
func (t *Transcript) AppendScalars(label string, ss []fr.Element) {
	absorb(t, label)
	for i := range ss {
		b := ss[i].Bytes()
		absorb(t, b[:])
	}
}

// AppendPoint absorbs a labelled G1 point.
func (t *Transcript) AppendPoint(label string, p *bn254.G1Affine) {
	b := p.Bytes()
	t.AppendBytes(label, b[:])
}

// ChallengeScalar derives a labelled challenge in the scalar field and
// absorbs it back into the transcript so later challenges depend on it.
func (t *Transcript) ChallengeScalar(label string) fr.Element {
	absorb(t, label)
	absorb(t, "challenge")
	// Two squeezes, SHA-256(state ‖ 0x01) and SHA-256(state ‖ 0x02), widen
	// the sample to 512 bits so the mod-r bias is negligible (< 2^-256).
	var squeeze [33]byte
	copy(squeeze[:], t.state[:])
	var wide [64]byte
	squeeze[32] = 0x01
	h := sha256.Sum256(squeeze[:])
	copy(wide[:32], h[:])
	squeeze[32] = 0x02
	h = sha256.Sum256(squeeze[:])
	copy(wide[32:], h[:])
	c := fr.FromBytes(wide[:])
	b := c.Bytes()
	absorb(t, b[:])
	return c
}

package ct

import (
	"bytes"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// FuzzCommitmentDecode drives arbitrary bytes through the commitment and
// audit-cipher decoders: no panics, and anything accepted must re-encode
// to the identical bytes (the decoders are strict — one canonical
// encoding per value).
func FuzzCommitmentDecode(f *testing.F) {
	p := DefaultParams()
	r := fr.NewElement(1234)
	c := p.Commit(42, &r)
	cb := c.Bytes()
	f.Add(cb[:])
	pub := p.H
	rho := fr.NewElement(5)
	out := p.NewOutput(&pub, 7, &r, &rho)
	ob := out.Bytes()
	f.Add(ob[:])
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Add(bytes.Repeat([]byte{0xff}, 224))
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := CommitmentFromBytes(data); err == nil {
			round := c.Bytes()
			if !bytes.Equal(round[:], data) {
				t.Fatalf("commitment decode/encode not canonical")
			}
		}
		if ac, err := AuditCipherFromBytes(data); err == nil {
			round := ac.Bytes()
			if !bytes.Equal(round[:], data) {
				t.Fatalf("audit cipher decode/encode not canonical")
			}
		}
		if o, err := OutputFromBytes(data); err == nil {
			round := o.Bytes()
			if !bytes.Equal(round[:], data) {
				t.Fatalf("output decode/encode not canonical")
			}
		}
	})
}

// FuzzCTProofDecode drives arbitrary bytes through the ZKCT transfer-proof
// decoder: no panics, and an accepted proof must round-trip bit-exactly
// through re-encode → re-decode.
func FuzzCTProofDecode(f *testing.F) {
	// Seed with a transfer of real arity — five outputs, two range proofs —
	// and with the same proof laid out the version-1 way, which the decoder
	// must turn away at the version byte.
	proof := fiveOutputProof(f)
	f.Add(proof.Bytes())
	f.Add(encodeV1(proof))
	f.Add([]byte("ZKCT"))
	f.Fuzz(func(t *testing.T, data []byte) {
		proof, err := ProofFromBytes(data)
		if err != nil {
			return
		}
		enc := proof.Bytes()
		back, err := ProofFromBytes(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted proof failed: %v", err)
		}
		if !bytes.Equal(enc, back.Bytes()) {
			t.Fatalf("proof encoding not canonical")
		}
	})
}

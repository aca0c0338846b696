package core

import (
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/poseidon"
)

// Dataset is a data asset's plaintext: a vector of field elements
// D = (d_i), the paper's canonical representation. Arbitrary bytes are
// packed via EncodeBytes (31 bytes per element, length-terminated).
type Dataset []fr.Element

// ErrDatasetEmpty reports an empty dataset where content is required.
var ErrDatasetEmpty = errors.New("core: empty dataset")

// EncodeBytes packs raw bytes into a Dataset (31 bytes per element so every
// element is canonical), appending a length element so decoding is exact.
func EncodeBytes(data []byte) Dataset {
	const chunk = 31
	out := make(Dataset, 0, len(data)/chunk+2)
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		var buf [chunk]byte
		copy(buf[:], data[off:end])
		out = append(out, fr.FromBytes(buf[:]))
	}
	out = append(out, fr.NewElement(uint64(len(data))))
	return out
}

// DecodeBytes reverses EncodeBytes.
func DecodeBytes(d Dataset) ([]byte, error) {
	if len(d) == 0 {
		return nil, ErrDatasetEmpty
	}
	n64, ok := d[len(d)-1].Uint64()
	if !ok {
		return nil, fmt.Errorf("core: corrupt dataset length element")
	}
	n := int(n64)
	const chunk = 31
	if want := (n+chunk-1)/chunk + 1; want != len(d) && !(n == 0 && len(d) == 1) {
		return nil, fmt.Errorf("core: dataset has %d elements, length %d wants %d", len(d), n, want)
	}
	out := make([]byte, 0, n)
	for i := 0; i < len(d)-1; i++ {
		b := d[i].Bytes()
		out = append(out, b[32-chunk:]...)
	}
	if len(out) < n {
		return nil, fmt.Errorf("core: dataset truncated")
	}
	return out[:n], nil
}

// Clone returns a deep copy.
func (d Dataset) Clone() Dataset {
	out := make(Dataset, len(d))
	copy(out, d)
	return out
}

// Commit returns a commitment to the dataset with a fresh blinder: the
// commitment to its digest, commitData.
func (d Dataset) Commit() (c, o fr.Element) {
	o = fr.MustRandom()
	return commitData(d, o), o
}

// commitData is every data commitment of the system, c_d =
// PoseidonCommit(Hash(D), o_d): a Poseidon commitment to the dataset's
// digest, not to the dataset. Hashing D is the part of a commitment that
// grows with the data, so a circuit that holds two commitments to one
// dataset hashes it once (a duplication π_t holds only the digest), and the
// opening is one permutation whatever the size. gadgetCommitData is its
// circuit.
func commitData(d Dataset, o fr.Element) fr.Element {
	return poseidon.CommitWith([]fr.Element{poseidon.Hash(d)}, o)
}

// gadgetCommitData emits commitData: the returned wire carries the
// commitment to the data wires under the blinder wire o.
func gadgetCommitData(b *circuit.Builder, data []circuit.Variable, o circuit.Variable) circuit.Variable {
	return gadgetCommitDigest(b, poseidon.GadgetHash(b, data), o)
}

// gadgetCommitDigest is the opening half of gadgetCommitData: the
// commitment to a digest wire under the blinder wire o, one permutation.
func gadgetCommitDigest(b *circuit.Builder, digest, o circuit.Variable) circuit.Variable {
	return poseidon.GadgetCommit(b, []circuit.Variable{digest}, o)
}

// Ciphertext is an encrypted dataset together with its CTR nonce; this is
// what gets published to content-addressed storage.
type Ciphertext struct {
	Nonce  fr.Element
	Blocks []fr.Element
}

// Encrypt encrypts the dataset under key k with a fresh random nonce
// (Poseidon-CTR, two elements per permutation; DESIGN.md §1 has why it
// replaces the paper's MiMC-CTR of §IV-C1).
func (d Dataset) Encrypt(k fr.Element) Ciphertext {
	nonce := fr.MustRandom()
	return Ciphertext{Nonce: nonce, Blocks: poseidon.EncryptCTR(k, nonce, d)}
}

// Decrypt recovers the dataset from a ciphertext.
func (ct *Ciphertext) Decrypt(k fr.Element) Dataset {
	return poseidon.DecryptCTR(k, ct.Nonce, ct.Blocks)
}

// Bytes serializes the ciphertext (nonce ‖ blocks) for storage.
func (ct *Ciphertext) Bytes() []byte {
	out := make([]byte, 0, 32*(len(ct.Blocks)+1))
	n := ct.Nonce.Bytes()
	out = append(out, n[:]...)
	for i := range ct.Blocks {
		b := ct.Blocks[i].Bytes()
		out = append(out, b[:]...)
	}
	return out
}

// CiphertextFromBytes reverses Ciphertext.Bytes.
func CiphertextFromBytes(data []byte) (Ciphertext, error) {
	if len(data) < 32 || len(data)%32 != 0 {
		return Ciphertext{}, fmt.Errorf("core: ciphertext length %d not a multiple of 32", len(data))
	}
	nonce, err := fr.FromBytesCanonical(data[:32])
	if err != nil {
		return Ciphertext{}, fmt.Errorf("core: ciphertext nonce: %w", err)
	}
	ct := Ciphertext{Nonce: nonce}
	for off := 32; off < len(data); off += 32 {
		e, err := fr.FromBytesCanonical(data[off : off+32])
		if err != nil {
			return Ciphertext{}, fmt.Errorf("core: ciphertext block %d: %w", off/32-1, err)
		}
		ct.Blocks = append(ct.Blocks, e)
	}
	return ct, nil
}

// KeyCommit commits to an encryption key (the c that initializes the
// arbiter in §IV-F).
func KeyCommit(k fr.Element) (c, o fr.Element) {
	return poseidon.Commit([]fr.Element{k})
}

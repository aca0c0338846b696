package poseidon

import (
	"math/big"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
)

// Keystream encryption (Poseidon-CTR): the cipher behind every ciphertext
// ZKDET publishes (Ŝ of §IV-B, D̂ of §IV-F). Keystream block j is the
// keyed permutation
//
//	(s₀, s₁, s₂) = Permute(k, nonce, T + j)
//
// truncated to its two rate lanes, and it masks two plaintext elements:
// ĉ_{2j} = d_{2j} + s₀, ĉ_{2j+1} = d_{2j+1} + s₁. The capacity lane s₂ is
// never output, and an odd-length message discards s₁ of its last block.
// This is the keyed-sponge counter mode of Khovratovich's note "Encryption
// with Poseidon" over the Grassi et al. permutation; DESIGN.md §1 gives the
// security argument.
//
// T = 2^64 is a domain tag. Hash starts its sponge with the message length
// in lane 2, and no length reaches 2^64, so no keystream permutation ever
// starts from the state of a Hash or Commit permutation.

// keystreamTag is T, the lane-2 offset of every keystream block.
var keystreamTag = fr.FromBig(new(big.Int).Lsh(big.NewInt(1), 64))

// keystreamCounter returns T + j, the lane-2 input of keystream block j.
func keystreamCounter(j int) fr.Element {
	c := fr.NewElement(uint64(j))
	c.Add(&c, &keystreamTag)
	return c
}

// keystream returns the first n keystream elements under (k, nonce).
func keystream(k, nonce fr.Element, n int) []fr.Element {
	ks := make([]fr.Element, n)
	for off := 0; off < n; off += Rate {
		s := Permute([Width]fr.Element{k, nonce, keystreamCounter(off / Rate)})
		copy(ks[off:], s[:min(Rate, n-off)])
	}
	return ks
}

// EncryptCTR encrypts a vector of field elements: ct[i] = pt[i] + ks[i],
// two keystream elements per permutation.
func EncryptCTR(k, nonce fr.Element, pt []fr.Element) []fr.Element {
	ct := keystream(k, nonce, len(pt))
	for i := range ct {
		ct[i].Add(&pt[i], &ct[i])
	}
	return ct
}

// DecryptCTR inverts EncryptCTR.
func DecryptCTR(k, nonce fr.Element, ct []fr.Element) []fr.Element {
	pt := keystream(k, nonce, len(ct))
	for i := range pt {
		pt[i].Sub(&ct[i], &pt[i])
	}
	return pt
}

// GadgetEncryptCTR emits EncryptCTR as constraints and returns the
// ciphertext wires. A block costs one permutation (69 rows on custom gates),
// the pinned counter constant and one addition per element it masks. On
// custom gates round 0's constants ride in the counter pin and in one gate
// each for k and the nonce, which every block shares.
func GadgetEncryptCTR(b *circuit.Builder, k, nonce circuit.Variable, pt []circuit.Variable) []circuit.Variable {
	permute := func(j int) [Width]circuit.Variable {
		return GadgetPermute(b, [Width]circuit.Variable{k, nonce, b.Constant(keystreamCounter(j))})
	}
	if b.CustomGatesEnabled() && len(pt) > 0 {
		c0 := &roundConstants[0]
		kc, nc := b.AddConst(k, c0[0]), b.AddConst(nonce, c0[1])
		permute = func(j int) [Width]circuit.Variable {
			ctr := keystreamCounter(j)
			ctr.Add(&ctr, &c0[2])
			return permuteRows(b, [Width]circuit.Variable{kc, nc, b.Constant(ctr)}, &[Width]fr.Element{})
		}
	}
	ct := make([]circuit.Variable, len(pt))
	for off := 0; off < len(pt); off += Rate {
		s := permute(off / Rate)
		// The capacity lane is never released, and an odd tail leaves s₁
		// unused (tell the soundness auditor both are deliberate).
		b.MarkDiscard(s[Rate])
		for i := 0; i < Rate; i++ {
			if off+i < len(pt) {
				ct[off+i] = b.Add(pt[off+i], s[i])
			} else {
				b.MarkDiscard(s[i])
			}
		}
	}
	return ct
}

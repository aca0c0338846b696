// Package mimc implements the MiMC-p/p block cipher (Albrecht et al.,
// ASIACRYPT 2016) over the BN254 scalar field, with the parameters the
// paper selects in §VI-A: 91 rounds and a degree-7 non-linear permutation.
//
// MiMC is the encryption primitive of ZKDET because its circuit is tiny:
// proving one block costs ~4 multiplication gates per round instead of the
// thousands a boolean cipher like AES would need (§IV-C1).
//
// The package provides the keyed permutation, CTR-mode vector encryption
// (the paper's construction ĉ_i = d_i + MiMC(k, nonce+i)), a
// Miyaguchi–Preneel hash mode, and the matching circuit gadget.
package mimc

import (
	"crypto/sha256"
	"encoding/binary"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
)

// Rounds is the number of MiMC rounds (paper §VI-A: r = 91).
const Rounds = 91

// roundConstants holds the nothing-up-my-sleeve constants c_0 = 0,
// c_i = SHA-256("zkdet/mimc" ‖ i) mod r.
var roundConstants = func() [Rounds]fr.Element {
	var cs [Rounds]fr.Element
	for i := 1; i < Rounds; i++ {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(i))
		h := sha256.Sum256(append([]byte("zkdet/mimc"), buf[:]...))
		cs[i] = fr.FromBytes(h[:])
	}
	return cs
}()

// Encrypt applies the keyed MiMC permutation E_k to one block:
// t ← (t + k + c_i)^7 for each round, then t + k.
func Encrypt(k, x fr.Element) fr.Element {
	t := x
	for i := 0; i < Rounds; i++ {
		var u fr.Element
		u.Add(&t, &k)
		u.Add(&u, &roundConstants[i])
		t = pow7(u)
	}
	t.Add(&t, &k)
	return t
}

func pow7(x fr.Element) fr.Element {
	var x2, x4, x6, x7 fr.Element
	x2.Square(&x)
	x4.Square(&x2)
	x6.Mul(&x4, &x2)
	x7.Mul(&x6, &x)
	return x7
}

// EncryptCTR encrypts a vector of field elements in counter mode:
// ct[i] = pt[i] + E_k(nonce + i).
func EncryptCTR(k, nonce fr.Element, pt []fr.Element) []fr.Element {
	ct := make([]fr.Element, len(pt))
	ctr := nonce
	one := fr.One()
	for i := range pt {
		ks := Encrypt(k, ctr)
		ct[i].Add(&pt[i], &ks)
		ctr.Add(&ctr, &one)
	}
	return ct
}

// DecryptCTR inverts EncryptCTR.
func DecryptCTR(k, nonce fr.Element, ct []fr.Element) []fr.Element {
	pt := make([]fr.Element, len(ct))
	ctr := nonce
	one := fr.One()
	for i := range ct {
		ks := Encrypt(k, ctr)
		pt[i].Sub(&ct[i], &ks)
		ctr.Add(&ctr, &one)
	}
	return pt
}

// GadgetEncrypt emits the MiMC permutation as circuit constraints,
// returning the ciphertext wire. It mirrors Encrypt exactly. With custom
// gates enabled each round is a single KindMiMC row (plus one closing
// row); classically a round costs ~6 multiplication gates.
func GadgetEncrypt(b *circuit.Builder, k, x circuit.Variable) circuit.Variable {
	if b.CustomGatesEnabled() {
		return gadgetEncryptCustom(b, k, x)
	}
	t := x
	for i := 0; i < Rounds; i++ {
		u := b.Add(t, k)
		u = b.AddConst(u, roundConstants[i])
		// u^7 = ((u²)²·u²)·u
		u2 := b.Square(u)
		u4 := b.Square(u2)
		u6 := b.Mul(u4, u2)
		t = b.Mul(u6, u)
	}
	return b.Add(t, k)
}

// gadgetEncryptCustom lowers the permutation to one KindMiMC row per
// round: row wires (t, k, u²) with u = t + k + c_i, the gate constraining
// c = u² and nextrow.a = c³·u = u⁷. Rounds chain through the a-wire, so
// the rows are emitted back-to-back and closed with a no-op row carrying
// the final state.
func gadgetEncryptCustom(b *circuit.Builder, k, x circuit.Variable) circuit.Variable {
	t := x
	for i := 0; i < Rounds; i++ {
		var u fr.Element
		tv, kv := b.Value(t), b.Value(k)
		u.Add(&tv, &kv)
		u.Add(&u, &roundConstants[i])
		var u2 fr.Element
		u2.Square(&u)
		sq := b.Secret(u2)
		b.CustomGate(circuit.KindMiMC, t, k, sq, [3]fr.Element{roundConstants[i]})
		t = b.Secret(pow7(u))
	}
	b.NoOpRow(t, t, t)
	return b.Add(t, k)
}

// GadgetEncryptCTR emits CTR-mode encryption constraints for a vector,
// returning the ciphertext wires.
func GadgetEncryptCTR(b *circuit.Builder, k, nonce circuit.Variable, pt []circuit.Variable) []circuit.Variable {
	ct := make([]circuit.Variable, len(pt))
	ctr := nonce
	for i := range pt {
		ks := GadgetEncrypt(b, k, ctr)
		ct[i] = b.Add(pt[i], ks)
		if i != len(pt)-1 {
			ctr = b.AddConst(ctr, fr.One())
		}
	}
	return ct
}

// GadgetHash emits the Miyaguchi–Preneel hash as constraints.
func GadgetHash(b *circuit.Builder, msg []circuit.Variable) circuit.Variable {
	h := b.Zero()
	for i := range msg {
		e := GadgetEncrypt(b, h, msg[i])
		h = b.Add(h, e)
		h = b.Add(h, msg[i])
	}
	return h
}

// Package mimc implements the MiMC-p/p block cipher (Albrecht et al.,
// ASIACRYPT 2016) over the BN254 scalar field, with the parameters the
// paper selects in §VI-A: 91 rounds and a degree-7 non-linear permutation.
//
// The paper picks MiMC-CTR as ZKDET's cipher (§IV-C1) because on classic
// gates it needs the fewest constraints per encrypted element. On this
// repository's custom gates a Poseidon permutation is cheaper and yields two
// keystream elements, so the system encrypts with poseidon.EncryptCTR
// (DESIGN.md §1) and nothing here is on a production path.
//
// What is left serves the §IV-C1 ablation rows of zkdet-bench and the
// hash/mimc-classic entry of the circuit-audit registry: the keyed
// permutation's gadget GadgetEncrypt and the Miyaguchi–Preneel hash gadget
// GadgetHash, both on classic gates only — the proof system has no MiMC
// custom gate. Their native references, Encrypt and Hash, live beside the
// tests that hold the gadgets to them.
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

// GadgetEncrypt emits the MiMC permutation as circuit constraints,
// returning the ciphertext wire. It mirrors Encrypt exactly. A round costs
// six gates — two additions, two squarings, two multiplications — on any
// builder.
func GadgetEncrypt(b *circuit.Builder, k, x circuit.Variable) circuit.Variable {
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

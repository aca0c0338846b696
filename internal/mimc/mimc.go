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
// What is left serves the §IV-C1 ablation rows of zkdet-bench and the two
// hash entries of the circuit-audit registry: the keyed permutation's gadget
// GadgetEncrypt (one KindMiMC custom row per round) and the
// Miyaguchi–Preneel hash gadget GadgetHash. Their native references,
// Encrypt and Hash, live beside the tests that hold the gadgets to them.
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

func pow7(x fr.Element) fr.Element {
	var x2, x4, x6, x7 fr.Element
	x2.Square(&x)
	x4.Square(&x2)
	x6.Mul(&x4, &x2)
	x7.Mul(&x6, &x)
	return x7
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

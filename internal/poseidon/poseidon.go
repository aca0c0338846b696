// Package poseidon implements the Poseidon hash (Grassi et al., USENIX
// Security 2021) over the BN254 scalar field with the paper's §VI-A
// parameters: x⁵ S-box, width t = 3, R_F = 8 full rounds and R_P = 60
// partial rounds ("x⁵-Poseidon-128").
//
// Poseidon is ZKDET's commitment primitive: a Poseidon hash over
// (blinder ‖ message) is binding by collision resistance and hiding by the
// uniformly random blinder, at roughly one-eighth the constraint count of a
// Pedersen commitment (§IV-C2).
//
// Round constants and the MDS matrix are generated deterministically
// (nothing-up-my-sleeve): constants from SHA-256 counters, the matrix as a
// Cauchy matrix — these are not the audited production constants, but have
// the same algebraic structure and cost.
package poseidon

import (
	"crypto/sha256"
	"encoding/binary"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
)

// Parameters of the x⁵-Poseidon-128 instantiation (paper §VI-A).
const (
	// Width is the state size t.
	Width = 3
	// FullRounds is R_F (split half before, half after the partial rounds).
	FullRounds = 8
	// PartialRounds is R_P.
	PartialRounds = 60
	// Rate is the number of absorbed elements per permutation.
	Rate = Width - 1
)

const totalRounds = FullRounds + PartialRounds

// roundConstants[r][i] is the constant added to state[i] in round r.
var roundConstants = func() [totalRounds][Width]fr.Element {
	var cs [totalRounds][Width]fr.Element
	for r := 0; r < totalRounds; r++ {
		for i := 0; i < Width; i++ {
			var buf [16]byte
			binary.BigEndian.PutUint64(buf[:8], uint64(r))
			binary.BigEndian.PutUint64(buf[8:], uint64(i))
			h := sha256.Sum256(append([]byte("zkdet/poseidon"), buf[:]...))
			cs[r][i] = fr.FromBytes(h[:])
		}
	}
	return cs
}()

// mdsMatrix is the Cauchy matrix m[i][j] = 1/(x_i + y_j) with x_i = i,
// y_j = Width + j; Cauchy matrices over a prime field are MDS.
var mdsMatrix = func() [Width][Width]fr.Element {
	var m [Width][Width]fr.Element
	for i := 0; i < Width; i++ {
		for j := 0; j < Width; j++ {
			sum := fr.NewElement(uint64(i + Width + j))
			m[i][j].Inverse(&sum)
		}
	}
	return m
}()

func sbox(x fr.Element) fr.Element {
	var x2, x4, x5 fr.Element
	x2.Square(&x)
	x4.Square(&x2)
	x5.Mul(&x4, &x)
	return x5
}

// Permute applies the Poseidon permutation to a state of Width elements.
func Permute(state [Width]fr.Element) [Width]fr.Element {
	half := FullRounds / 2
	for r := 0; r < totalRounds; r++ {
		for i := 0; i < Width; i++ {
			state[i].Add(&state[i], &roundConstants[r][i])
		}
		if r < half || r >= half+PartialRounds {
			for i := 0; i < Width; i++ {
				state[i] = sbox(state[i])
			}
		} else {
			state[0] = sbox(state[0])
		}
		state = mdsMul(state)
	}
	return state
}

func mdsMul(state [Width]fr.Element) [Width]fr.Element {
	var out [Width]fr.Element
	for i := 0; i < Width; i++ {
		for j := 0; j < Width; j++ {
			var t fr.Element
			t.Mul(&mdsMatrix[i][j], &state[j])
			out[i].Add(&out[i], &t)
		}
	}
	return out
}

// Hash absorbs an arbitrary-length message with a sponge (rate 2,
// capacity 1) and squeezes one element. The capacity lane is initialized
// with the message length for domain separation.
func Hash(msg []fr.Element) fr.Element {
	var state [Width]fr.Element
	state[Width-1] = fr.NewElement(uint64(len(msg)))
	for off := 0; off < len(msg); off += Rate {
		for i := 0; i < Rate && off+i < len(msg); i++ {
			state[i].Add(&state[i], &msg[off+i])
		}
		state = Permute(state)
	}
	if len(msg) == 0 {
		state = Permute(state)
	}
	return state[0]
}

// Commitment scheme (Definition 2.1 of the paper): c = H(o ‖ m) with a
// uniformly random opening o. Binding follows from collision resistance,
// hiding from the blinder.

// Commit commits to msg with a fresh random blinder, returning (c, o).
func Commit(msg []fr.Element) (c, o fr.Element) {
	o = fr.MustRandom()
	return CommitWith(msg, o), o
}

// CommitWith commits with a caller-chosen blinder (deterministic; used by
// circuits that must recompute the commitment).
func CommitWith(msg []fr.Element, o fr.Element) fr.Element {
	buf := make([]fr.Element, 0, len(msg)+1)
	buf = append(buf, o)
	buf = append(buf, msg...)
	return Hash(buf)
}

// GadgetPermute emits the Poseidon permutation as circuit constraints.
// With custom gates enabled each round is a single KindPoseidonFull or
// KindPoseidonPartial row (plus one closing row for the whole
// permutation), and round 0's constants enter in one gate per lane
// (permuteRows says why; GadgetHash and GadgetEncryptCTR fold them into
// gates they emit anyway). Classically each round constant rides in a gate
// that already reads its lane: an S-box is three gates, (x+c)², its square,
// and x⁴·(x+c); a lane a partial round does not S-box carries its constant
// into the constant term of the MDS gates. A full round costs 15 gates
// (three S-boxes, six MDS gates), a partial round 9, a permutation 660.
func GadgetPermute(b *circuit.Builder, state [Width]circuit.Variable) [Width]circuit.Variable {
	if b.CustomGatesEnabled() {
		for i := range state {
			state[i] = b.AddConst(state[i], roundConstants[0][i])
		}
		return permuteRows(b, state, &[Width]fr.Element{})
	}
	var zero fr.Element
	one := fr.One()
	half := FullRounds / 2
	for r := 0; r < totalRounds; r++ {
		c := &roundConstants[r]
		sboxed := Width
		if r >= half && r < half+PartialRounds {
			sboxed = 1
		}
		for i := 0; i < sboxed; i++ {
			// (x+c)⁵ = ((x+c)²)²·(x+c): qL = 2c and qC = c² on the
			// first gate, qL = c on the x⁴ wire of the last.
			var twoC, cc fr.Element
			twoC.Add(&c[i], &c[i])
			cc.Square(&c[i])
			x2 := b.Gate(state[i], state[i], twoC, zero, one, cc)
			x4 := b.Square(x2)
			state[i] = b.Gate(x4, state[i], c[i], zero, one, zero)
		}
		// kc[k] = Σ_j M_kj·c_j over the lanes left un-S-boxed.
		var kc [Width]fr.Element
		for k := 0; k < Width; k++ {
			for j := sboxed; j < Width; j++ {
				var t fr.Element
				t.Mul(&mdsMatrix[k][j], &c[j])
				kc[k].Add(&kc[k], &t)
			}
		}
		var out [Width]circuit.Variable
		for k := 0; k < Width; k++ {
			acc := b.Gate(state[0], state[1], mdsMatrix[k][0], mdsMatrix[k][1], zero, kc[k])
			out[k] = b.Lc2(acc, one, state[2], mdsMatrix[k][2])
		}
		state = out
	}
	return state
}

// permuteRows lowers the permutation to one custom row per round. A row
// wires the state after its round's constants, and its gate constrains the
// NEXT row's wires to MDS·sbox(state) plus the next round's constants (all
// lanes S-boxed in full rounds, lane 0 only in partial rounds): a round's
// constants are added after the MDS of the round before, so they sit in
// the linear part of the row rule. u must therefore carry round 0's
// constants already, and the last round adds next — round 0's constants
// when the result feeds another permutation, zero when it is the output.
// Each next state is allocated as witness variables wired into the
// following row, and a no-op row closes the sequence with the last one.
func permuteRows(b *circuit.Builder, u [Width]circuit.Variable, next *[Width]fr.Element) [Width]circuit.Variable {
	b.SetPoseidonMDS(mdsMatrix)
	half := FullRounds / 2
	vals := [Width]fr.Element{b.Value(u[0]), b.Value(u[1]), b.Value(u[2])}
	for r := 0; r < totalRounds; r++ {
		kind := circuit.KindPoseidonPartial
		full := r < half || r >= half+PartialRounds
		if full {
			kind = circuit.KindPoseidonFull
		}
		k := next
		if r+1 < totalRounds {
			k = &roundConstants[r+1]
		}
		b.CustomGate(kind, u[0], u[1], u[2], *k)
		if full {
			for i := 0; i < Width; i++ {
				vals[i] = sbox(vals[i])
			}
		} else {
			vals[0] = sbox(vals[0])
		}
		vals = mdsMul(vals)
		for i := 0; i < Width; i++ {
			vals[i].Add(&vals[i], &k[i])
			u[i] = b.Secret(vals[i])
		}
	}
	b.NoOpRow(u[0], u[1], u[2])
	return u
}

// GadgetHash emits the sponge hash as constraints, mirroring Hash. On
// custom gates round 0's constants ride in the gates that feed each
// permutation: the first one's absorb gates and constant pins, and the
// last row of the one before for every later one.
func GadgetHash(b *circuit.Builder, msg []circuit.Variable) circuit.Variable {
	if b.CustomGatesEnabled() {
		return gadgetHashCustom(b, msg)
	}
	state := [Width]circuit.Variable{
		b.Zero(), b.Zero(), b.Constant(fr.NewElement(uint64(len(msg)))),
	}
	for off := 0; off < len(msg); off += Rate {
		for i := 0; i < Rate && off+i < len(msg); i++ {
			state[i] = b.Add(state[i], msg[off+i])
		}
		state = GadgetPermute(b, state)
	}
	if len(msg) == 0 {
		state = GadgetPermute(b, state)
	}
	// The squeeze reads only lane 0; the capacity lanes of the final
	// permutation are discarded by design (tell the soundness auditor so
	// it does not report them as forgotten outputs).
	b.MarkDiscard(state[1])
	b.MarkDiscard(state[2])
	return state[0]
}

// gadgetHashCustom is GadgetHash on custom rows. The first permutation
// reads (m₀ + c₀, m₁ + c₁, len + c₂), each rate lane one absorb gate (or a
// pinned constant c_i when the message is shorter), the capacity lane a
// pinned constant; a later one reads the state its predecessor's last row
// left with c already added, plus the absorbed pair.
func gadgetHashCustom(b *circuit.Builder, msg []circuit.Variable) circuit.Variable {
	c0 := &roundConstants[0]
	var state [Width]circuit.Variable
	capacity := fr.NewElement(uint64(len(msg)))
	capacity.Add(&capacity, &c0[Rate])
	state[Rate] = b.Constant(capacity)
	perms := max(1, (len(msg)+Rate-1)/Rate)
	for p := 0; p < perms; p++ {
		for i := 0; i < Rate; i++ {
			j := p*Rate + i
			switch {
			case p == 0 && j < len(msg):
				state[i] = b.AddConst(msg[j], c0[i])
			case p == 0:
				state[i] = b.Constant(c0[i])
			case j < len(msg):
				state[i] = b.Add(state[i], msg[j])
			}
		}
		next := &[Width]fr.Element{}
		if p+1 < perms {
			next = c0
		}
		state = permuteRows(b, state, next)
	}
	b.MarkDiscard(state[1])
	b.MarkDiscard(state[2])
	return state[0]
}

// GadgetCommit emits the commitment computation as constraints: the
// returned wire carries CommitWith(msg, o).
func GadgetCommit(b *circuit.Builder, msg []circuit.Variable, o circuit.Variable) circuit.Variable {
	buf := make([]circuit.Variable, 0, len(msg)+1)
	buf = append(buf, o)
	buf = append(buf, msg...)
	return GadgetHash(b, buf)
}

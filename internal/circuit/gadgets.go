package circuit

import (
	"math/big"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
)

// This file implements the gadget library of §IV-D: the "fundamental
// cryptographic and mathematical gadgets" predicates are composed from.
// Cryptographic gadgets (MiMC, Poseidon) live next to their native
// implementations and build on these primitives.

// IsZero returns a boolean variable that is 1 iff x == 0.
//
// It uses the classic two-constraint construction: allocate y (the claimed
// bit) and m (a pseudo-inverse of x); constrain y·x = 0 and y = 1 - m·x.
func (b *Builder) IsZero(x Variable) Variable {
	vx := b.values[x.id]
	var yVal, mVal fr.Element
	if vx.IsZero() {
		yVal.SetOne()
	} else {
		mVal.Inverse(&vx)
	}
	y := b.newVar(yVal)
	m := b.newVar(mVal)
	b.markHint(y)
	b.markHint(m)
	// y·x = 0
	b.gates = append(b.gates, plonk.Gate{QM: frOne, A: y.id, B: x.id, C: y.id})
	// m·x + y - 1 = 0
	b.gates = append(b.gates, plonk.Gate{QM: frOne, QO: frOne, QC: frNeg(frOne), A: m.id, B: x.id, C: y.id})
	// y is boolean by the two-gate structural argument (y·x=0 forces y=0
	// whenever x≠0; m·x+y=1 forces y=1 when x=0); both gates must survive.
	b.auditStructBools = append(b.auditStructBools, AuditStructBool{
		Var: y.id, Gates: []int{len(b.gates) - 2, len(b.gates) - 1},
	})
	b.markBoolDerived(y)
	return y
}

// IsEqual returns 1 iff x == y.
func (b *Builder) IsEqual(x, y Variable) Variable {
	return b.IsZero(b.Sub(x, y))
}

// And returns x ∧ y for boolean inputs (callers must have asserted
// booleanity).
func (b *Builder) And(x, y Variable) Variable {
	b.markBoolUse(x, "And")
	b.markBoolUse(y, "And")
	out := b.Mul(x, y)
	b.markBoolDerived(out)
	return out
}

// Or returns x ∨ y for boolean inputs.
func (b *Builder) Or(x, y Variable) Variable {
	b.markBoolUse(x, "Or")
	b.markBoolUse(y, "Or")
	// x + y - x·y
	m := b.Mul(x, y)
	s := b.Add(x, y)
	out := b.Sub(s, m)
	b.markBoolDerived(out)
	return out
}

// Not returns ¬x for a boolean input.
func (b *Builder) Not(x Variable) Variable {
	b.markBoolUse(x, "Not")
	var minusOne fr.Element
	minusOne.Neg(&frOne)
	out := b.AddConst(b.MulConst(x, minusOne), frOne)
	b.markBoolDerived(out)
	return out
}

// Xor returns x ⊕ y for boolean inputs.
func (b *Builder) Xor(x, y Variable) Variable {
	b.markBoolUse(x, "Xor")
	b.markBoolUse(y, "Xor")
	// x + y - 2xy
	m := b.Mul(x, y)
	two := fr.NewElement(2)
	var minusTwo fr.Element
	minusTwo.Neg(&two)
	s := b.Add(x, y)
	out := b.Add(s, b.MulConst(m, minusTwo))
	b.markBoolDerived(out)
	return out
}

// Select returns cond ? a : b for a boolean cond.
func (b *Builder) Select(cond, a, bb Variable) Variable {
	b.markBoolUse(cond, "Select")
	d := b.Sub(a, bb)
	m := b.Mul(cond, d)
	return b.Add(bb, m)
}

// ToBits decomposes x into n little-endian boolean variables and constrains
// Σ 2^i·bit_i == x. It costs ~2n gates; n must cover the value's range for
// the witness to satisfy the constraints.
func (b *Builder) ToBits(x Variable, n int) []Variable {
	before := len(b.gates)
	vx := b.values[x.id]
	val := vx.BigInt()
	bits := make([]Variable, n)
	for i := 0; i < n; i++ {
		bit := fr.NewElement(uint64(val.Bit(i)))
		bits[i] = b.newVar(bit)
		b.markHint(bits[i])
		b.AssertBoolean(bits[i])
	}
	// Accumulate: acc_{i+1} = acc_i + 2^i·bit_i, then acc == x.
	acc := b.MulConst(bits[0], frOne)
	coeff := new(big.Int).SetUint64(2)
	for i := 1; i < n; i++ {
		c := fr.FromBig(coeff)
		acc = b.Lc2(acc, frOne, bits[i], c)
		coeff.Lsh(coeff, 1)
	}
	b.AssertEqual(acc, x)
	b.auditRanges = append(b.auditRanges, AuditRange{
		Var: x.id, Bits: n, Booleans: n, Start: before, End: len(b.gates),
	})
	return bits
}

// FromBits recomposes little-endian boolean variables into a field element.
func (b *Builder) FromBits(bits []Variable) Variable {
	if len(bits) == 0 {
		return b.Zero()
	}
	acc := b.MulConst(bits[0], frOne)
	coeff := new(big.Int).SetUint64(2)
	for i := 1; i < len(bits); i++ {
		c := fr.FromBig(coeff)
		acc = b.Lc2(acc, frOne, bits[i], c)
		coeff.Lsh(coeff, 1)
	}
	return acc
}

// AssertRange constrains x < 2^n. With lookups enabled it decomposes x
// into ⌈n/k⌉ k-bit limbs, each checked by one range-table lookup row;
// classically it bit-decomposes (one boolean gate per bit).
func (b *Builder) AssertRange(x Variable, n int) {
	if !b.lookups {
		b.ToBits(x, n)
	} else {
		b.assertRangeLookup(x, n)
	}
}

// assertRangeLookup is the lookup lowering of AssertRange. The final limb
// of width w < k is checked by looking up limb·2^(k−w), which lies in the
// table exactly when limb < 2^w.
func (b *Builder) assertRangeLookup(x Variable, n int) {
	if n <= 0 {
		b.Fail("circuit: AssertRange with %d bits", n)
		return
	}
	before := len(b.gates)
	k := DefaultRangeTableBits
	lookupLimb := func(limb Variable, width int) {
		if width == k {
			b.Lookup(limb)
			return
		}
		scale := fr.FromBig(new(big.Int).Lsh(big.NewInt(1), uint(k-width)))
		b.Lookup(b.MulConst(limb, scale))
	}
	if n <= k {
		lookupLimb(x, n)
		b.auditRanges = append(b.auditRanges, AuditRange{
			Var: x.id, Bits: n, Lookups: 1, Start: before, End: len(b.gates),
		})
		return
	}
	nLimbs := (n + k - 1) / k
	lastW := n - (nLimbs-1)*k
	val := b.values[x.id].BigInt()
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(k)), big.NewInt(1))
	limbs := make([]Variable, nLimbs)
	for j := 0; j < nLimbs; j++ {
		lv := new(big.Int).Rsh(val, uint(j*k))
		lv.And(lv, mask)
		limbs[j] = b.newVar(fr.FromBig(lv))
		b.markHint(limbs[j])
		w := k
		if j == nLimbs-1 {
			w = lastW
		}
		lookupLimb(limbs[j], w)
	}
	// Recompose: Σ limb_j·2^{j·k} == x.
	base := new(big.Int).Lsh(big.NewInt(1), uint(k))
	coeff := new(big.Int).Set(base)
	acc := b.Lc2(limbs[0], frOne, limbs[1], fr.FromBig(coeff))
	for j := 2; j < nLimbs; j++ {
		coeff.Mul(coeff, base)
		acc = b.Lc2(acc, frOne, limbs[j], fr.FromBig(coeff))
	}
	b.AssertEqual(acc, x)
	b.auditRanges = append(b.auditRanges, AuditRange{
		Var: x.id, Bits: n, Lookups: nLimbs, Start: before, End: len(b.gates),
	})
}

// topBit returns bit n of x for x < 2^{n+1} — the sign probe behind the
// comparison gadgets. With lookups it allocates (high, low) witnesses with
// x = high·2^n + low, high boolean and low range-checked by lookups,
// instead of a full bit decomposition.
func (b *Builder) topBit(x Variable, n int) Variable {
	if !b.lookups {
		return b.ToBits(x, n+1)[n]
	}
	val := b.values[x.id].BigInt()
	highVal := new(big.Int).Rsh(val, uint(n))
	lowVal := new(big.Int).Sub(val, new(big.Int).Lsh(highVal, uint(n)))
	high := b.newVar(fr.FromBig(highVal))
	low := b.newVar(fr.FromBig(lowVal))
	b.markHint(high)
	b.markHint(low)
	b.AssertBoolean(high)
	pow := fr.FromBig(new(big.Int).Lsh(big.NewInt(1), uint(n)))
	recon := b.Lc2(high, pow, low, frOne)
	b.AssertEqual(recon, x)
	b.assertRangeLookup(low, n)
	return high
}

// IsLess returns 1 iff x < y, treating both as n-bit unsigned integers
// (callers must ensure x, y < 2^n).
func (b *Builder) IsLess(x, y Variable, n int) Variable {
	// z = 2^n + x - y ∈ (0, 2^{n+1}); bit n of z is 1 iff x >= y.
	pow := fr.FromBig(new(big.Int).Lsh(big.NewInt(1), uint(n)))
	z := b.AddConst(b.Sub(x, y), pow)
	return b.Not(b.topBit(z, n))
}

// IsLessOrEqual returns 1 iff x <= y for n-bit values.
func (b *Builder) IsLessOrEqual(x, y Variable, n int) Variable {
	lt := b.IsLess(y, x, n) // y < x
	return b.Not(lt)
}

// AssertLess constrains x < y for n-bit values.
func (b *Builder) AssertLess(x, y Variable, n int) {
	lt := b.IsLess(x, y, n)
	b.AssertConst(lt, frOne)
}

// AssertLessOrEqual constrains x <= y for n-bit values.
func (b *Builder) AssertLessOrEqual(x, y Variable, n int) {
	le := b.IsLessOrEqual(x, y, n)
	b.AssertConst(le, frOne)
}

// Sum returns Σ xs.
func (b *Builder) Sum(xs []Variable) Variable {
	if len(xs) == 0 {
		return b.Zero()
	}
	acc := xs[0]
	for _, x := range xs[1:] {
		acc = b.Add(acc, x)
	}
	return acc
}

// Fixed-point arithmetic: values are integers scaled by 2^FixedShift,
// letting ML circuits (§IV-E) approximate reals in the field. Negative
// numbers use the field's high range (two's-complement-like); comparisons
// on fixed-point values must go through the signed gadgets below.

// FixedShift is the binary scaling factor of fixed-point gadget values.
const FixedShift = 16

// FixedFromFloat converts a float to its fixed-point field representation.
func FixedFromFloat(f float64) fr.Element {
	scaled := int64(f * (1 << FixedShift))
	return fr.NewFromInt64(scaled)
}

// FixedToFloat converts a fixed-point field value back to a float
// (interpreting the top half of the field as negatives).
func FixedToFloat(e fr.Element) float64 {
	half := new(big.Int).Rsh(fr.Modulus(), 1)
	v := e.BigInt()
	neg := false
	if v.Cmp(half) > 0 {
		v.Sub(fr.Modulus(), v)
		neg = true
	}
	f, _ := new(big.Float).SetInt(v).Float64()
	f /= float64(int64(1) << FixedShift)
	if neg {
		f = -f
	}
	return f
}

// FixedMul multiplies two fixed-point values and rescales by 2^FixedShift.
// The truncated quotient is provided as a witness and bound by the
// constraint x·y = q·2^shift + rem with rem < 2^shift.
func (b *Builder) FixedMul(x, y Variable) Variable {
	prod := b.Mul(x, y)
	return b.fixedRescale(prod)
}

// fixedBound is the bit bound on |v| accepted by fixedRescale; fixed-point
// circuit values must stay below 2^fixedBound in magnitude.
const fixedBound = 100

// fixedRescale divides v by 2^FixedShift (floor division on the offset
// representation). The construction is witness-independent: shift v into
// the non-negative range by adding 2^fixedBound, decompose as
// w = q'·2^shift + r with range checks, and return q' - 2^(fixedBound-shift).
func (b *Builder) fixedRescale(v Variable) Variable {
	offset := new(big.Int).Lsh(big.NewInt(1), fixedBound)
	w := b.AddConst(v, fr.FromBig(offset))

	// Witness computation of quotient and remainder of w.
	wVal := b.values[w.id].BigInt()
	q := new(big.Int).Rsh(wVal, FixedShift)
	r := new(big.Int).And(wVal, new(big.Int).SetUint64((1<<FixedShift)-1))
	quot := b.newVar(fr.FromBig(q))
	rem := b.newVar(fr.FromBig(r))
	b.markHint(quot)
	b.markHint(rem)

	// w = quot·2^shift + rem, rem < 2^shift, quot < 2^(fixedBound+1-shift).
	pow := fr.FromBig(new(big.Int).Lsh(big.NewInt(1), FixedShift))
	recon := b.Lc2(quot, pow, rem, frOne)
	b.AssertEqual(recon, w)
	b.AssertRange(rem, FixedShift)
	b.AssertRange(quot, fixedBound+1-FixedShift)

	// Undo the (scaled) offset.
	off := fr.FromBig(new(big.Int).Lsh(big.NewInt(1), fixedBound-FixedShift))
	var negOff fr.Element
	negOff.Neg(&off)
	return b.AddConst(quot, negOff)
}

// ReLU returns max(0, x) for a signed fixed-point value known to have
// magnitude < 2^n.
func (b *Builder) ReLU(x Variable, n int) Variable {
	isNeg := b.isNegative(x, n)
	return b.Select(isNeg, b.Zero(), x)
}

// isNegative returns 1 iff x represents a negative number (top half of the
// field), for |x| < 2^n.
func (b *Builder) isNegative(x Variable, n int) Variable {
	// x + 2^n ∈ (0, 2^{n+1}); bit n is 0 exactly when x is negative.
	pow := fr.FromBig(new(big.Int).Lsh(big.NewInt(1), uint(n)))
	shifted := b.AddConst(x, pow)
	return b.Not(b.topBit(shifted, n))
}

// AbsDiffLessOrEqual constrains |x - y| <= bound for signed fixed-point
// values with magnitude < 2^n. This is the convergence predicate
// ‖J(β^{k+1}) - J(β^k)‖ ≤ ε of §IV-E1.
func (b *Builder) AbsDiffLessOrEqual(x, y Variable, bound fr.Element, n int) {
	d := b.Sub(x, y)
	isNeg := b.isNegative(d, n)
	abs := b.Select(isNeg, b.Neg(d), d)
	bv := b.Constant(bound)
	b.AssertLessOrEqual(abs, bv, n)
}

// FixedDivPos divides two positive fixed-point values: out ≈ x/y scaled by
// 2^FixedShift, via the witness-quotient construction
// x·2^shift = q·y + r with 0 ≤ r < y. Both operands must be positive and
// below 2^n; attention-style normalizations are the intended use.
func (b *Builder) FixedDivPos(x, y Variable, n int) Variable {
	xv := b.values[x.id].BigInt()
	yv := b.values[y.id].BigInt()
	num := new(big.Int).Lsh(xv, FixedShift)
	q := new(big.Int)
	r := new(big.Int)
	if yv.Sign() > 0 {
		q.DivMod(num, yv, r)
	}
	quot := b.newVar(fr.FromBig(q))
	rem := b.newVar(fr.FromBig(r))
	b.markHint(quot)
	b.markHint(rem)

	pow := fr.FromBig(new(big.Int).Lsh(big.NewInt(1), FixedShift))
	lhs := b.MulConst(x, pow)
	qy := b.Mul(quot, y)
	recon := b.Add(qy, rem)
	b.AssertEqual(recon, lhs)
	b.AssertRange(rem, n)
	b.AssertLess(rem, y, n)
	b.AssertRange(quot, n)
	return quot
}

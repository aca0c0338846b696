// Package ff implements arithmetic in prime fields whose modulus fits in
// four 64-bit limbs (i.e. p < 2^256), using Montgomery representation with
// CIOS multiplication.
//
// The package is generic over the modulus: a Field value carries all derived
// constants (Montgomery R, R^2, and the inverse used by REDC), and Element
// values are meaningless without the Field that produced them. Concrete
// fields (the BN254 base and scalar fields) wrap this package with typed
// APIs in their own packages.
package ff

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// Limbs is the number of 64-bit words in an element.
const Limbs = 4

// Element is a field element in Montgomery form, little-endian limbs.
// The zero value is the field's zero element.
type Element [Limbs]uint64

// Field holds a modulus and its derived Montgomery constants. A Field is
// immutable after construction and safe for concurrent use.
type Field struct {
	modulus   [Limbs]uint64
	r         Element // 2^256 mod p == Montgomery form of 1
	r2        Element // 2^512 mod p, used to convert into Montgomery form
	inv       uint64  // -p^{-1} mod 2^64
	modBig    *big.Int
	pMinusTwo *big.Int
	bitLen    int
	byteLen   int
	modMinus1 [Limbs]uint64 // p-1 in plain form, used for Neg bound checks in tests
	// limbR2[i] = 2^(64·i)·R² mod p: Mul by it takes a one-limb value at
	// limb i of a wider integer straight to Montgomery form. r512 = 2^512·R
	// mod p is 2^512 in Montgomery form, the step between 64-byte chunks.
	limbR2   [2 * Limbs]Element
	r512     Element
	unrolled bool // use the no-carry unrolled CIOS multiplication
	adx      bool // unrolled, and this CPU runs the assembly form of it
}

// ErrNotInField reports a value that is not a canonical field element.
var ErrNotInField = errors.New("ff: value out of field range")

// NewField constructs a Field for the given odd prime modulus. The modulus
// must be odd, greater than 1, and strictly less than 2^256. Primality is
// the caller's responsibility (a composite modulus yields a ring, and
// Inverse/Exp-based routines silently misbehave).
func NewField(modulus *big.Int) (*Field, error) {
	if modulus.Sign() <= 0 || modulus.Bit(0) == 0 {
		return nil, fmt.Errorf("ff: modulus must be an odd positive integer, got %s", modulus)
	}
	if modulus.BitLen() > 256 {
		return nil, fmt.Errorf("ff: modulus must fit in 256 bits, got %d bits", modulus.BitLen())
	}
	f := &Field{
		modBig: new(big.Int).Set(modulus),
		bitLen: modulus.BitLen(),
	}
	f.byteLen = (f.bitLen + 7) / 8
	f.pMinusTwo = new(big.Int).Sub(modulus, big.NewInt(2))
	bigToLimbs(modulus, &f.modulus)
	bigToLimbs(new(big.Int).Sub(modulus, big.NewInt(1)), &f.modMinus1)

	two256 := new(big.Int).Lsh(big.NewInt(1), 256)
	rBig := new(big.Int).Mod(two256, modulus)
	bigToLimbs(rBig, (*[Limbs]uint64)(&f.r))
	r2Big := new(big.Int).Mul(rBig, rBig)
	r2Big.Mod(r2Big, modulus)
	bigToLimbs(r2Big, (*[Limbs]uint64)(&f.r2))
	for i := range f.limbR2 {
		k := new(big.Int).Lsh(r2Big, uint(64*i))
		bigToLimbs(k.Mod(k, modulus), (*[Limbs]uint64)(&f.limbR2[i]))
	}
	r512 := new(big.Int).Lsh(rBig, 512)
	bigToLimbs(r512.Mod(r512, modulus), (*[Limbs]uint64)(&f.r512))

	// inv = -p^{-1} mod 2^64, via Newton iteration on the low limb.
	p0 := f.modulus[0]
	inv := p0 // 3 bits correct
	for i := 0; i < 5; i++ {
		inv *= 2 - p0*inv
	}
	f.inv = -inv
	f.unrolled = canUseUnrolled(f.bitLen)
	f.adx = f.unrolled && hasADX
	return f, nil
}

// MustNewField is NewField for compile-time-known moduli; it panics on error.
func MustNewField(decimal string) *Field {
	m, ok := new(big.Int).SetString(decimal, 10)
	if !ok {
		panic("ff: invalid modulus literal " + decimal)
	}
	f, err := NewField(m)
	if err != nil {
		panic(err)
	}
	return f
}

// Modulus returns a copy of the field modulus.
func (f *Field) Modulus() *big.Int { return new(big.Int).Set(f.modBig) }

// One returns the multiplicative identity.
func (f *Field) One() Element { return f.r }

// IsZero reports whether x is the additive identity.
func (f *Field) IsZero(x *Element) bool {
	return x[0]|x[1]|x[2]|x[3] == 0
}

// IsOne reports whether x is the multiplicative identity.
func (f *Field) IsOne(x *Element) bool {
	return *x == f.r
}

// Add sets z = x + y mod p.
func (f *Field) Add(z, x, y *Element) {
	var c uint64
	var t Element
	t[0], c = bits.Add64(x[0], y[0], 0)
	t[1], c = bits.Add64(x[1], y[1], c)
	t[2], c = bits.Add64(x[2], y[2], c)
	t[3], c = bits.Add64(x[3], y[3], c)
	f.reduceWithCarry(z, &t, c)
}

// Double sets z = 2x mod p.
func (f *Field) Double(z, x *Element) {
	f.Add(z, x, x)
}

// Sub sets z = x - y mod p. The borrow of x - y is a coin flip on field
// data, so the modulus is added back under a mask instead of a branch the
// predictor would miss half the time.
func (f *Field) Sub(z, x, y *Element) {
	var b, c uint64
	var t Element
	t[0], b = bits.Sub64(x[0], y[0], 0)
	t[1], b = bits.Sub64(x[1], y[1], b)
	t[2], b = bits.Sub64(x[2], y[2], b)
	t[3], b = bits.Sub64(x[3], y[3], b)
	m := -b // all ones iff the subtraction borrowed
	z[0], c = bits.Add64(t[0], f.modulus[0]&m, 0)
	z[1], c = bits.Add64(t[1], f.modulus[1]&m, c)
	z[2], c = bits.Add64(t[2], f.modulus[2]&m, c)
	z[3], _ = bits.Add64(t[3], f.modulus[3]&m, c)
}

// Neg sets z = -x mod p.
func (f *Field) Neg(z, x *Element) {
	if f.IsZero(x) {
		*z = Element{}
		return
	}
	var b uint64
	var t Element
	t[0], b = bits.Sub64(f.modulus[0], x[0], 0)
	t[1], b = bits.Sub64(f.modulus[1], x[1], b)
	t[2], b = bits.Sub64(f.modulus[2], x[2], b)
	t[3], _ = bits.Sub64(f.modulus[3], x[3], b)
	*z = t
}

// Mul sets z = x * y mod p using CIOS Montgomery multiplication. x and y
// must be reduced (< p), which every constructor of this package guarantees
// and every operation preserves; z is then reduced too, and may alias x or y.
//
// Three bodies compute the same limbs: for ≤254-bit moduli the no-carry
// CIOS, in MULX/ADX assembly where NewField found the CPU has it and in Go
// elsewhere, and the generic loop for wider moduli.
func (f *Field) Mul(z, x, y *Element) {
	switch {
	case f.adx:
		mulADX(z, x, y, &f.modulus, f.inv)
	case f.unrolled:
		f.mulUnrolled(z, x, y)
	default:
		f.mulGeneric(z, x, y)
	}
}

func (f *Field) mulGeneric(z, x, y *Element) {
	var t [Limbs + 2]uint64
	for i := 0; i < Limbs; i++ {
		// t += x * y[i]
		var c uint64
		for j := 0; j < Limbs; j++ {
			hi, lo := bits.Mul64(x[j], y[i])
			var cc uint64
			lo, cc = bits.Add64(lo, t[j], 0)
			hi, _ = bits.Add64(hi, 0, cc)
			lo, cc = bits.Add64(lo, c, 0)
			hi, _ = bits.Add64(hi, 0, cc)
			t[j] = lo
			c = hi
		}
		var cc uint64
		t[Limbs], cc = bits.Add64(t[Limbs], c, 0)
		t[Limbs+1] = cc

		// Montgomery reduction step: t = (t + m*p) / 2^64.
		m := t[0] * f.inv
		hi, lo := bits.Mul64(m, f.modulus[0])
		_, cc = bits.Add64(lo, t[0], 0)
		c, _ = bits.Add64(hi, 0, cc)
		for j := 1; j < Limbs; j++ {
			hi, lo = bits.Mul64(m, f.modulus[j])
			lo, cc = bits.Add64(lo, t[j], 0)
			hi, _ = bits.Add64(hi, 0, cc)
			lo, cc = bits.Add64(lo, c, 0)
			hi, _ = bits.Add64(hi, 0, cc)
			t[j-1] = lo
			c = hi
		}
		t[Limbs-1], cc = bits.Add64(t[Limbs], c, 0)
		t[Limbs] = t[Limbs+1] + cc
		t[Limbs+1] = 0
	}
	res := Element{t[0], t[1], t[2], t[3]}
	f.reduceWithCarry(z, &res, t[Limbs])
}

// Square sets z = x^2 mod p.
func (f *Field) Square(z, x *Element) { f.Mul(z, x, x) }

// reduceWithCarry reduces t (with an extra carry word) below p into z.
// Whether a sum of two field elements reaches p is as unpredictable as
// Sub's borrow, so the choice between t and t - p is a mask select.
func (f *Field) reduceWithCarry(z, t *Element, carry uint64) {
	var b uint64
	var s Element
	s[0], b = bits.Sub64(t[0], f.modulus[0], 0)
	s[1], b = bits.Sub64(t[1], f.modulus[1], b)
	s[2], b = bits.Sub64(t[2], f.modulus[2], b)
	s[3], b = bits.Sub64(t[3], f.modulus[3], b)
	// Keep t only when the subtraction borrowed and no carry word covers it.
	_, keep := bits.Sub64(carry, b, 0) // 1 iff carry == 0 && b == 1
	m := -keep
	z[0] = s[0] ^ ((s[0] ^ t[0]) & m)
	z[1] = s[1] ^ ((s[1] ^ t[1]) & m)
	z[2] = s[2] ^ ((s[2] ^ t[2]) & m)
	z[3] = s[3] ^ ((s[3] ^ t[3]) & m)
}

// Exp sets z = x^e mod p for a non-negative big integer exponent.
func (f *Field) Exp(z, x *Element, e *big.Int) {
	if e.Sign() < 0 {
		//lint:ignore panicfree a negative exponent is a programmer error, never attacker input: every exponent in this repo is a compile-time constant or a field-element bit pattern, and the chainable API has no error slot
		panic("ff: negative exponent")
	}
	res := f.One()
	base := *x
	for i := e.BitLen() - 1; i >= 0; i-- {
		f.Square(&res, &res)
		if e.Bit(i) == 1 {
			f.Mul(&res, &res, &base)
		}
	}
	*z = res
}

// Inverse sets z = x^{-1} mod p via Fermat's little theorem. Inverting zero
// sets z to zero (callers that care must check IsZero first).
func (f *Field) Inverse(z, x *Element) {
	if f.IsZero(x) {
		*z = Element{}
		return
	}
	f.Exp(z, x, f.pMinusTwo)
}

// BatchInverse inverts every non-zero element of xs in place using
// Montgomery's trick (a single field inversion plus 3(n-1) multiplications).
// Zero entries are left as zero. scratch receives the running products and
// must be at least as long as xs; the method allocates nothing.
func (f *Field) BatchInverse(xs, scratch []Element) {
	n := len(xs)
	if n == 0 {
		return
	}
	prefix := scratch[:n]
	acc := f.One()
	for i := range xs {
		prefix[i] = acc
		if !f.IsZero(&xs[i]) {
			f.Mul(&acc, &acc, &xs[i])
		}
	}
	var accInv Element
	f.Inverse(&accInv, &acc)
	for i := n - 1; i >= 0; i-- {
		if f.IsZero(&xs[i]) {
			continue
		}
		var inv Element
		f.Mul(&inv, &accInv, &prefix[i])
		f.Mul(&accInv, &accInv, &xs[i])
		xs[i] = inv
	}
}

// FromUint64 returns the Montgomery form of v.
func (f *Field) FromUint64(v uint64) Element {
	var z, t Element
	t[0] = v
	if f.bitLen <= 64 {
		t[0] %= f.modulus[0] // Mul takes reduced operands
	}
	f.Mul(&z, &t, &f.r2)
	return z
}

// FromBig returns the Montgomery form of b mod p.
func (f *Field) FromBig(b *big.Int) Element {
	v := new(big.Int).Mod(b, f.modBig)
	var t Element
	bigToLimbs(v, (*[Limbs]uint64)(&t))
	var z Element
	f.Mul(&z, &t, &f.r2)
	return z
}

// ToBig returns the canonical (non-Montgomery) integer value of x.
func (f *Field) ToBig(x *Element) *big.Int {
	var one Element
	one[0] = 1
	var t Element
	f.Mul(&t, x, &one) // Montgomery reduce: x * R^{-1}
	return limbsToBig((*[Limbs]uint64)(&t))
}

// Regular returns the canonical (non-Montgomery) value of x as little-endian
// limbs, without allocating.
func (f *Field) Regular(x *Element) [Limbs]uint64 {
	one := Element{1}
	var t Element
	f.Mul(&t, x, &one) // Montgomery reduce: x * R^{-1}, already below p
	return t
}

// Bytes returns the canonical big-endian encoding of x, left-padded to 32
// bytes (the low ByteLen bytes carry the value). It does not allocate.
func (f *Field) Bytes(x *Element) [8 * Limbs]byte {
	t := f.Regular(x)
	var out [8 * Limbs]byte
	for i := 0; i < Limbs; i++ {
		putBEUint64(out[8*(Limbs-1-i):], t[i])
	}
	return out
}

// FromBytes interprets b as a big-endian integer and reduces it mod p. It
// allocates nothing: the value is split into 64-byte chunks, most
// significant first, each chunk into limbs, and limb i of a chunk enters
// Montgomery form as Mul(limb, 2^(64·i)·R²); between chunks the sum so far
// is multiplied by 2^512.
func (f *Field) FromBytes(b []byte) Element {
	var acc Element
	for first := true; len(b) > 0; first = false {
		n := len(b) % 64
		if n == 0 {
			n = 64
		}
		chunk := b[:n]
		b = b[n:]
		if !first {
			f.Mul(&acc, &acc, &f.r512)
		}
		for i := 0; len(chunk) > 0; i++ {
			m := min(8, len(chunk))
			var t, d Element
			t[0] = beUintN(chunk[len(chunk)-m:])
			chunk = chunk[:len(chunk)-m]
			if f.bitLen <= 64 {
				t[0] %= f.modulus[0] // Mul takes reduced operands
			}
			f.Mul(&d, &t, &f.limbR2[i])
			f.Add(&acc, &acc, &d)
		}
	}
	return acc
}

// FromBytesCanonical interprets b as a big-endian integer and rejects values
// that are not already reduced (>= p) or of the wrong length. It compares
// and converts on limbs, so a valid encoding allocates nothing.
func (f *Field) FromBytesCanonical(b []byte) (Element, error) {
	if len(b) != f.byteLen {
		return Element{}, fmt.Errorf("ff: want %d bytes, got %d: %w", f.byteLen, len(b), ErrNotInField)
	}
	var t Element
	for i := 0; len(b) > 0; i++ {
		m := min(8, len(b))
		t[i] = beUintN(b[len(b)-m:])
		b = b[:len(b)-m]
	}
	for i := Limbs - 1; i >= 0; i-- {
		if t[i] != f.modulus[i] {
			if t[i] > f.modulus[i] {
				return Element{}, ErrNotInField
			}
			var z Element
			f.Mul(&z, &t, &f.r2)
			return z, nil
		}
	}
	return Element{}, ErrNotInField // t == p
}

func bigToLimbs(b *big.Int, limbs *[Limbs]uint64) {
	var buf [32]byte
	b.FillBytes(buf[:])
	for i := 0; i < Limbs; i++ {
		limbs[i] = beUint64(buf[32-8*(i+1):])
	}
}

func limbsToBig(limbs *[Limbs]uint64) *big.Int {
	var buf [32]byte
	for i := 0; i < Limbs; i++ {
		putBEUint64(buf[32-8*(i+1):], limbs[i])
	}
	return new(big.Int).SetBytes(buf[:])
}

func beUint64(b []byte) uint64 {
	return uint64(b[7]) | uint64(b[6])<<8 | uint64(b[5])<<16 | uint64(b[4])<<24 |
		uint64(b[3])<<32 | uint64(b[2])<<40 | uint64(b[1])<<48 | uint64(b[0])<<56
}

// beUintN reads a big-endian integer of at most 8 bytes.
func beUintN(b []byte) uint64 {
	if len(b) == 8 {
		return beUint64(b)
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

func putBEUint64(b []byte, v uint64) {
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

// Package fr implements the BN254 scalar field
// (r = 21888242871839275222246405745257275088548364400416034343698204186575808495617),
// the field over which all ZKDET circuits, polynomials and proofs are defined.
//
// Element uses Montgomery form internally (backed by internal/ff) and offers
// a chainable pointer API: z.Add(&x, &y) sets z = x+y and returns z.
package fr

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"unsafe"

	"github.com/zkdet/zkdet/internal/ff"
	"github.com/zkdet/zkdet/internal/parallel"
)

// ModulusDecimal is the BN254 scalar field modulus in base 10.
const ModulusDecimal = "21888242871839275222246405745257275088548364400416034343698204186575808495617"

// Bytes is the canonical encoded size of an element.
const Bytes = 32

// TwoAdicity is the largest s with 2^s | r-1; FFT domains of size up to
// 2^TwoAdicity exist in the field.
const TwoAdicity = 28

// MultiplicativeGenerator generates the multiplicative group of the field.
const MultiplicativeGenerator = 5

// field is the shared immutable backing field; it is effectively a constant.
var field = ff.MustNewField(ModulusDecimal)

// Element is an element of the BN254 scalar field in Montgomery form.
// The zero value is 0.
type Element struct {
	v ff.Element
}

// Modulus returns a copy of the field modulus r.
func Modulus() *big.Int { return field.Modulus() }

// Zero returns 0.
func Zero() Element { return Element{} }

// One returns 1.
func One() Element { return Element{v: field.One()} }

// NewElement returns the element representing v.
func NewElement(v uint64) Element { return Element{v: field.FromUint64(v)} }

// NewFromInt64 returns the element representing v, mapping negatives to
// their additive inverses mod r.
func NewFromInt64(v int64) Element {
	if v >= 0 {
		return NewElement(uint64(v))
	}
	e := NewElement(uint64(-v))
	var z Element
	z.Neg(&e)
	return z
}

// FromBig returns b mod r.
func FromBig(b *big.Int) Element { return Element{v: field.FromBig(b)} }

// FromBytes interprets b as a big-endian integer and reduces it mod r.
func FromBytes(b []byte) Element { return Element{v: field.FromBytes(b)} }

// FromBytesCanonical decodes a canonical 32-byte big-endian encoding,
// rejecting non-reduced values.
func FromBytesCanonical(b []byte) (Element, error) {
	v, err := field.FromBytesCanonical(b)
	if err != nil {
		return Element{}, fmt.Errorf("fr: %w", err)
	}
	return Element{v: v}, nil
}

// Random returns a uniformly random element read from r (use crypto/rand.Reader).
func Random(r io.Reader) (Element, error) {
	b, err := rand.Int(r, field.Modulus())
	if err != nil {
		return Element{}, fmt.Errorf("fr: sampling randomness: %w", err)
	}
	return FromBig(b), nil
}

// MustRandom returns a uniformly random element from crypto/rand, panicking
// if the system randomness source fails.
func MustRandom() Element {
	e, err := Random(rand.Reader)
	if err != nil {
		panic(err)
	}
	return e
}

// BigInt returns the canonical integer value of z.
func (z *Element) BigInt() *big.Int { return field.ToBig(&z.v) }

// Limbs returns the canonical (non-Montgomery) value of z as four
// little-endian 64-bit limbs, without allocating.
func (z *Element) Limbs() [4]uint64 { return field.Regular(&z.v) }

// Bytes returns the canonical 32-byte big-endian encoding. It does not
// allocate: every transcript absorb and scalar-table walk goes through it.
func (z *Element) Bytes() [Bytes]byte { return field.Bytes(&z.v) }

// String returns the canonical decimal representation.
func (z Element) String() string { return field.ToBig(&z.v).String() }

// Uint64 returns the low 64 bits of the canonical value and whether the
// value fits in a uint64.
func (z *Element) Uint64() (uint64, bool) {
	l := z.Limbs()
	return l[0], l[1]|l[2]|l[3] == 0
}

// IsZero reports whether z == 0.
func (z *Element) IsZero() bool { return field.IsZero(&z.v) }

// IsOne reports whether z == 1.
//
//lint:ignore testonly the circuit and plonk tests check products and vanishing values against one
func (z *Element) IsOne() bool { return field.IsOne(&z.v) }

// Equal reports whether z == x.
func (z *Element) Equal(x *Element) bool { return z.v == x.v }

// Set sets z = x and returns z.
func (z *Element) Set(x *Element) *Element { z.v = x.v; return z }

// SetZero sets z = 0 and returns z.
func (z *Element) SetZero() *Element { z.v = ff.Element{}; return z }

// SetOne sets z = 1 and returns z.
func (z *Element) SetOne() *Element { z.v = field.One(); return z }

// Add sets z = x + y and returns z.
func (z *Element) Add(x, y *Element) *Element { field.Add(&z.v, &x.v, &y.v); return z }

// Sub sets z = x - y and returns z.
func (z *Element) Sub(x, y *Element) *Element { field.Sub(&z.v, &x.v, &y.v); return z }

// Mul sets z = x * y and returns z.
func (z *Element) Mul(x, y *Element) *Element { field.Mul(&z.v, &x.v, &y.v); return z }

// Square sets z = x^2 and returns z.
func (z *Element) Square(x *Element) *Element { field.Square(&z.v, &x.v); return z }

// Neg sets z = -x and returns z.
func (z *Element) Neg(x *Element) *Element { field.Neg(&z.v, &x.v); return z }

// Inverse sets z = x^{-1} (or 0 when x == 0) and returns z.
func (z *Element) Inverse(x *Element) *Element { field.Inverse(&z.v, &x.v); return z }

// Exp sets z = x^e for a non-negative exponent and returns z.
func (z *Element) Exp(x *Element, e *big.Int) *Element { field.Exp(&z.v, &x.v, e); return z }

// ExpUint64 sets z = x^e and returns z.
func (z *Element) ExpUint64(x *Element, e uint64) *Element {
	return z.Exp(x, new(big.Int).SetUint64(e))
}

// Butterfly sets (a, b) = (a+b, a-b), the radix-2 FFT butterfly core.
func Butterfly(a, b *Element) {
	var t Element
	t.Set(a)
	a.Add(&t, b)
	b.Sub(&t, b)
}

// batchInvertParallelThreshold is the size above which BatchInvert splits
// the input across workers. Each chunk pays one extra field inversion
// (hundreds of multiplications), so chunks must be large enough that the
// saved 3·n multiplications per worker dominate.
const batchInvertParallelThreshold = 1 << 12

// BatchInvert inverts every non-zero element of xs in place with one field
// inversion per worker chunk (Montgomery's trick). Zero entries stay zero.
// Results are exact inverses, so the output is independent of worker count.
func BatchInvert(xs []Element) {
	if len(xs) >= batchInvertParallelThreshold && parallel.Workers() > 1 {
		parallel.Execute(len(xs), func(start, end int) {
			batchInvertSerial(xs[start:end])
		})
		return
	}
	batchInvertSerial(xs)
}

func batchInvertSerial(xs []Element) {
	// An Element is a struct of one ff.Element and nothing else, so the
	// slice can be handed to the field as it is.
	raw := unsafe.Slice((*ff.Element)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs))
	field.BatchInverse(raw, make([]ff.Element, len(xs)))
}

// Powers returns [1, base, base², …, base^(n-1)]. Large requests are split
// across workers, each seeding its chunk with a single exponentiation; the
// values are exact powers either way, so the result is independent of
// worker count.
func Powers(base *Element, n int) []Element {
	out := make([]Element, n)
	if n == 0 {
		return out
	}
	const minChunk = 1 << 11
	workers := parallel.Workers()
	if n < 2*minChunk || workers <= 1 {
		out[0] = One()
		for i := 1; i < n; i++ {
			out[i].Mul(&out[i-1], base)
		}
		return out
	}
	if workers > n/minChunk {
		workers = n / minChunk
	}
	parallel.ExecuteWorkers(n, workers, func(start, end int) {
		out[start].ExpUint64(base, uint64(start))
		for i := start + 1; i < end; i++ {
			out[i].Mul(&out[i-1], base)
		}
	})
	return out
}

// RootOfUnity returns a primitive 2^logN-th root of unity. It returns an
// error when logN exceeds the field's two-adicity.
func RootOfUnity(logN int) (Element, error) {
	return rootOfUnity(1, logN)
}

// RootOfUnity3 returns a primitive (3·2^logN)-th root of unity — 3² divides
// r-1, so subgroups of that order exist — whose cube is RootOfUnity(logN):
// a domain of three times a power of two extends the power-of-two one.
func RootOfUnity3(logN int) (Element, error) {
	return rootOfUnity(3, logN)
}

// rootOfUnity returns g^((r-1)/(odd·2^logN)) for the multiplicative
// generator g; odd must divide (r-1)/2^TwoAdicity.
func rootOfUnity(odd uint64, logN int) (Element, error) {
	if logN < 0 || logN > TwoAdicity {
		return Element{}, fmt.Errorf("fr: no root of unity of order %d·2^%d (two-adicity is %d)", odd, logN, TwoAdicity)
	}
	exp := new(big.Int).Sub(field.Modulus(), big.NewInt(1))
	exp.Rsh(exp, uint(logN))
	exp.Div(exp, new(big.Int).SetUint64(odd))
	g := NewElement(MultiplicativeGenerator)
	var w Element
	w.Exp(&g, exp)
	return w, nil
}

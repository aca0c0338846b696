// Package bn254 implements the BN254 (alt_bn128) pairing-friendly elliptic
// curve from scratch: the base-field tower Fp ⊂ Fp2 ⊂ Fp6 ⊂ Fp12, the groups
// G1 (over Fp) and G2 (over Fp2, via the sextic twist), Pippenger
// multi-scalar multiplication, and the optimal ate pairing
// e: G1 × G2 → GT ⊂ Fp12.
//
// The curve equation is y² = x³ + 3 over Fp with
// p = 21888242871839275222246405745257275088696311157297823662689037894645226208583,
// and the group order is the scalar field modulus r (see internal/fr).
// This is the curve used by the paper's Circom/Snarkjs stack ("BN-128").
package bn254

import (
	"fmt"
	"math/big"
	"unsafe"

	"github.com/zkdet/zkdet/internal/ff"
)

// FpModulusDecimal is the base field modulus in base 10.
const FpModulusDecimal = "21888242871839275222246405745257275088696311157297823662689037894645226208583"

// fpField is the shared immutable base field; effectively a constant.
var fpField = ff.MustNewField(FpModulusDecimal)

// Fp is an element of the BN254 base field in Montgomery form.
// The zero value is 0.
type Fp struct {
	v ff.Element
}

// FpModulus returns a copy of the base field modulus p.
func FpModulus() *big.Int { return fpField.Modulus() }

func fpOne() Fp { return Fp{v: fpField.One()} }

// NewFp returns the base-field element representing v.
func NewFp(v uint64) Fp { return Fp{v: fpField.FromUint64(v)} }

// FpFromBig returns b mod p.
func FpFromBig(b *big.Int) Fp { return Fp{v: fpField.FromBig(b)} }

// MustFpFromDecimal parses a base-10 literal, panicking on malformed input.
func MustFpFromDecimal(s string) Fp {
	b, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("bn254: invalid decimal literal " + s)
	}
	return FpFromBig(b)
}

// BigInt returns the canonical integer value of z.
func (z *Fp) BigInt() *big.Int { return fpField.ToBig(&z.v) }

// Bytes returns the canonical 32-byte big-endian encoding. It does not
// allocate.
func (z *Fp) Bytes() [32]byte { return fpField.Bytes(&z.v) }

// FpFromBytesCanonical decodes a canonical 32-byte big-endian encoding.
func FpFromBytesCanonical(b []byte) (Fp, error) {
	v, err := fpField.FromBytesCanonical(b)
	if err != nil {
		return Fp{}, fmt.Errorf("bn254: %w", err)
	}
	return Fp{v: v}, nil
}

// String returns the canonical decimal representation.
func (z Fp) String() string { return fpField.ToBig(&z.v).String() }

// IsZero reports whether z == 0.
func (z *Fp) IsZero() bool { return fpField.IsZero(&z.v) }

// Equal reports whether z == x.
func (z *Fp) Equal(x *Fp) bool { return z.v == x.v }

// Set sets z = x and returns z.
func (z *Fp) Set(x *Fp) *Fp { z.v = x.v; return z }

// SetZero sets z = 0 and returns z.
func (z *Fp) SetZero() *Fp { z.v = ff.Element{}; return z }

// SetOne sets z = 1 and returns z.
func (z *Fp) SetOne() *Fp { z.v = fpField.One(); return z }

// Add sets z = x + y and returns z.
func (z *Fp) Add(x, y *Fp) *Fp { fpField.Add(&z.v, &x.v, &y.v); return z }

// Sub sets z = x - y and returns z.
func (z *Fp) Sub(x, y *Fp) *Fp { fpField.Sub(&z.v, &x.v, &y.v); return z }

// Mul sets z = x * y and returns z.
func (z *Fp) Mul(x, y *Fp) *Fp { fpField.Mul(&z.v, &x.v, &y.v); return z }

// Square sets z = x² and returns z.
func (z *Fp) Square(x *Fp) *Fp { fpField.Square(&z.v, &x.v); return z }

// Double sets z = 2x and returns z.
func (z *Fp) Double(x *Fp) *Fp { fpField.Double(&z.v, &x.v); return z }

// Neg sets z = -x and returns z.
func (z *Fp) Neg(x *Fp) *Fp { fpField.Neg(&z.v, &x.v); return z }

// Inverse sets z = x⁻¹ (or 0 when x == 0) and returns z.
func (z *Fp) Inverse(x *Fp) *Fp { fpField.Inverse(&z.v, &x.v); return z }

// Exp sets z = x^e for non-negative e and returns z.
func (z *Fp) Exp(x *Fp, e *big.Int) *Fp { fpField.Exp(&z.v, &x.v, e); return z }

// fpBatchInverse inverts every non-zero entry of xs in place with one field
// inversion (ff.Field.BatchInverse); zero entries stay zero. scratch must be
// at least as long as xs.
func fpBatchInverse(xs, scratch []Fp) {
	fpField.BatchInverse(fpRaw(xs), fpRaw(scratch))
}

// fpRaw views xs as the field elements it wraps: an Fp is a struct of one
// ff.Element and nothing else, so the two slices share a layout.
func fpRaw(xs []Fp) []ff.Element {
	return unsafe.Slice((*ff.Element)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs))
}

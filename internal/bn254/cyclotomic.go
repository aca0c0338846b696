package bn254

import (
	"math/big"
	"sync"
)

// After the easy part of the final exponentiation, the result lies in the
// cyclotomic subgroup GΦ₁₂(p) = {x ∈ Fp12 : x^(p⁴-p²+1) = 1}. Two facts
// make the hard part much cheaper there:
//
//   - x^(p⁶+1) = 1, so the inverse is the (free) Fp6-conjugate, which
//     unlocks signed-digit (NAF) exponentiation; and
//   - squaring decomposes over three Fp4 sub-towers (Granger–Scott,
//     eprint 2009/565 §3.2), costing 9 Fp2 squarings instead of the
//     18 Fp2 multiplies of a generic Fp12 squaring.
//
// Correctness of CyclotomicSquare against the generic Square, and of the
// NAF exponentiation against the generic Exp, is pinned by tests on
// easy-part outputs.

// CyclotomicSquare sets z = x² for x in the cyclotomic subgroup GΦ₁₂(p)
// and returns z. The result is undefined for x outside the subgroup.
//
// With coordinates x = Σ aᵢ·wⁱ over Fp2 (a0=C0.B0, a1=C1.B0, a2=C0.B1,
// a3=C1.B1, a4=C0.B2, a5=C1.B2), the three Fp4 pairs are (a0,a3), (a1,a4)
// and (a2,a5); for each pair (g,h), g² + ξ·h² and 2gh feed the compressed
// squaring formulas.
func (z *Fp12) CyclotomicSquare(x *Fp12) *Fp12 {
	// Pair (a0, a3): A = a3² , B = a0² , tA = 2·a0·a3
	var t0, t1, t2, t3, t4, t5, t6, t7, t8 Fp2
	t0.Square(&x.C1.B1)
	t1.Square(&x.C0.B0)
	t6.Add(&x.C1.B1, &x.C0.B0)
	t6.Square(&t6)
	t6.Sub(&t6, &t0)
	t6.Sub(&t6, &t1) // 2·a0·a3

	// Pair (a4, a1): C = a4², D = a1², tB = 2·a4·a1
	t2.Square(&x.C0.B2)
	t3.Square(&x.C1.B0)
	t7.Add(&x.C0.B2, &x.C1.B0)
	t7.Square(&t7)
	t7.Sub(&t7, &t2)
	t7.Sub(&t7, &t3) // 2·a4·a1

	// Pair (a5, a2): E = a5², F = a2², tC = 2·a5·a2·ξ
	t4.Square(&x.C1.B2)
	t5.Square(&x.C0.B1)
	t8.Add(&x.C1.B2, &x.C0.B1)
	t8.Square(&t8)
	t8.Sub(&t8, &t4)
	t8.Sub(&t8, &t5)
	t8.MulByNonResidue(&t8) // 2·a5·a2·ξ

	t0.MulByNonResidue(&t0)
	t0.Add(&t0, &t1) // ξ·a3² + a0²
	t2.MulByNonResidue(&t2)
	t2.Add(&t2, &t3) // ξ·a4² + a1²
	t4.MulByNonResidue(&t4)
	t4.Add(&t4, &t5) // ξ·a5² + a2²

	// zᵢ = 3·tᵢ - 2·aᵢ on the even part, 3·tᵢ + 2·aᵢ on the odd part.
	var u Fp2
	u.Sub(&t0, &x.C0.B0)
	u.Double(&u)
	z.C0.B0.Add(&u, &t0)

	u.Sub(&t2, &x.C0.B1)
	u.Double(&u)
	z.C0.B1.Add(&u, &t2)

	u.Sub(&t4, &x.C0.B2)
	u.Double(&u)
	z.C0.B2.Add(&u, &t4)

	u.Add(&t8, &x.C1.B0)
	u.Double(&u)
	z.C1.B0.Add(&u, &t8)

	u.Add(&t6, &x.C1.B1)
	u.Double(&u)
	z.C1.B1.Add(&u, &t6)

	u.Add(&t7, &x.C1.B2)
	u.Double(&u)
	z.C1.B2.Add(&u, &t7)
	return z
}

// nafDigits returns the non-adjacent form of e, least significant digit
// first. Each digit is in {-1, 0, 1} and no two adjacent digits are both
// nonzero, so roughly 1/3 of digits trigger a multiply (versus 1/2 for
// plain binary).
func nafDigits(e *big.Int) []int8 {
	n := new(big.Int).Set(e)
	three := big.NewInt(3)
	var out []int8
	for n.Sign() > 0 {
		if n.Bit(0) == 1 {
			// d = 2 - (n mod 4), i.e. ±1 chosen so (n - d) ≡ 0 mod 4.
			m := new(big.Int).And(n, three)
			if m.Cmp(big.NewInt(1)) == 0 {
				out = append(out, 1)
				n.Sub(n, big.NewInt(1))
			} else {
				out = append(out, -1)
				n.Add(n, big.NewInt(1))
			}
		} else {
			out = append(out, 0)
		}
		n.Rsh(n, 1)
	}
	return out
}

// tNAF caches the NAF digits of the BN parameter t.
var tNAF = sync.OnceValue(func() []int8 {
	return nafDigits(new(big.Int).SetUint64(4965661367192848881))
})

// expByT sets z = x^t (the 63-bit BN parameter) for cyclotomic x.
func (z *Fp12) expByT(x *Fp12) *Fp12 { return z.expCyclotomic(x, tNAF()) }

// hardPart raises a cyclotomic element to (p⁴-p²+1)/r using the
// Devegili–Scott–Dahab decomposition: writing the exponent modulo the
// subgroup order p⁴-p²+1 as
//
//	(p+p²+p³) - 2 + 6·t²p² - 12·tp - 18·(t+t²p) - 30·t² - 36·(t³+t³p)
//
// only three exponentiations by the 63-bit t remain (everything else is a
// Frobenius, a conjugate, or one of the ~13 multiplies of the Olivos
// vector-addition chain), versus a 762-bit generic exponentiation. The two
// exponents agree modulo the cyclotomic subgroup order — an identity
// checked against the generic path by tests — so the result is
// bit-identical to f^((p⁴-p²+1)/r).
func hardPart(f *Fp12) Fp12 {
	var fu, fu2, fu3 Fp12
	fu.expByT(f)
	fu2.expByT(&fu)
	fu3.expByT(&fu2)

	// y0 = f^p · f^(p²) · f^(p³), y1 = f⁻¹, y2 = (f^(t²))^(p²),
	// y3 = ((f^t)^p)⁻¹, y4 = (f^t · (f^(t²))^p)⁻¹, y5 = (f^(t²))⁻¹,
	// y6 = (f^(t³) · (f^(t³))^p)⁻¹; inverses are conjugates.
	var y0, y1, y2, y3, y4, y5, y6, tmp Fp12
	y0.Frobenius(f)
	tmp.FrobeniusSquare(f)
	y0.Mul(&y0, &tmp)
	tmp.Frobenius(&tmp)
	y0.Mul(&y0, &tmp)
	y1.Conjugate(f)
	y2.FrobeniusSquare(&fu2)
	y3.Frobenius(&fu)
	y3.Conjugate(&y3)
	y4.Frobenius(&fu2)
	y4.Mul(&y4, &fu)
	y4.Conjugate(&y4)
	y5.Conjugate(&fu2)
	y6.Frobenius(&fu3)
	y6.Mul(&y6, &fu3)
	y6.Conjugate(&y6)

	// Olivos chain for y0 · y1² · y2⁶ · y3¹² · y4¹⁸ · y5³⁰ · y6³⁶.
	var t0, t1 Fp12
	t0.CyclotomicSquare(&y6)
	t0.Mul(&t0, &y4)
	t0.Mul(&t0, &y5)
	t1.Mul(&y3, &y5)
	t1.Mul(&t1, &t0)
	t0.Mul(&t0, &y2)
	t1.CyclotomicSquare(&t1)
	t1.Mul(&t1, &t0)
	t1.CyclotomicSquare(&t1)
	t0.Mul(&t1, &y1)
	t1.Mul(&t1, &y0)
	t0.CyclotomicSquare(&t0)
	t0.Mul(&t0, &t1)
	return t0
}

// expCyclotomic sets z = x^e for x in the cyclotomic subgroup, using NAF
// digits with the conjugate as inverse and cyclotomic squarings.
func (z *Fp12) expCyclotomic(x *Fp12, digits []int8) *Fp12 {
	var xInv Fp12
	xInv.Conjugate(x)
	res := fp12One()
	base := *x
	for i := len(digits) - 1; i >= 0; i-- {
		res.CyclotomicSquare(&res)
		switch digits[i] {
		case 1:
			res.Mul(&res, &base)
		case -1:
			res.Mul(&res, &xInv)
		}
	}
	*z = res
	return z
}

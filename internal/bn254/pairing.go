package bn254

import (
	"errors"
	"math/big"
	"sync"
)

// The optimal ate pairing for BN curves with parameter
// t = 4965661367192848881 iterates over 6t+2 and finishes with two
// Frobenius-twisted line evaluations, followed by the final exponentiation
// f^((p¹²-1)/r).
//
// The engine (Pair/PairingCheck/PairingCheckPrecomp, see lines.go and
// cyclotomic.go) exploits line sparsity, precomputed G2 line tables, a
// shared Miller loop across pairs, and cyclotomic arithmetic in the final
// exponentiation. Its correctness reference — a textbook affine Miller loop
// on the untwisted curve over Fp12 and a square-and-multiply final
// exponentiation — lives in pairing_naive_test.go; property tests pin the
// two bit-identical.

// ErrPairingInput reports invalid pairing inputs.
var ErrPairingInput = errors.New("bn254: mismatched pairing input lengths")

// loopCounter returns 6t+2 for the BN254 parameter t.
var loopCounter = sync.OnceValue(func() *big.Int {
	t := new(big.Int).SetUint64(4965661367192848881)
	s := new(big.Int).Mul(t, big.NewInt(6))
	return s.Add(s, big.NewInt(2))
})

// hardExponent returns (p⁴ - p² + 1)/r, the "hard part" exponent of the
// final exponentiation.
var hardExponent = sync.OnceValue(func() *big.Int {
	p := FpModulus()
	p2 := new(big.Int).Mul(p, p)
	p4 := new(big.Int).Mul(p2, p2)
	h := new(big.Int).Sub(p4, p2)
	h.Add(h, big.NewInt(1))
	h.Div(h, frModulusBig())
	return h
})

func frModulusBig() *big.Int {
	r, _ := new(big.Int).SetString("21888242871839275222246405745257275088548364400416034343698204186575808495617", 10)
	return r
}

// easyPart raises f to (p⁶-1)(p²+1), landing in the cyclotomic subgroup.
func easyPart(f *Fp12) Fp12 {
	var r, inv Fp12
	r.Conjugate(f) // f^(p⁶)
	inv.Inverse(f)
	r.Mul(&r, &inv) // f^(p⁶-1)
	var r2 Fp12
	r2.FrobeniusSquare(&r)
	r.Mul(&r2, &r) // ^(p²+1)
	return r
}

// finalExponentiation raises f to (p¹²-1)/r, mapping Miller-loop outputs
// into the order-r subgroup GT. The hard part runs in the cyclotomic
// subgroup via the Devegili–Scott–Dahab chain: three exponentiations by
// the 63-bit BN parameter with Granger–Scott squarings (see cyclotomic.go).
func finalExponentiation(f *Fp12) Fp12 {
	if f.IsZero() {
		return Fp12{}
	}
	r := easyPart(f)
	return hardPart(&r)
}

// Pair computes the optimal ate pairing e(p, q) using the sparse engine:
// the G2 line coefficients are derived once in Fp2 and folded into the
// accumulator with sparse multiplies. Either input at infinity yields the
// identity of GT.
func Pair(p *G1Affine, q *G2Affine) Fp12 {
	pc := NewG2LinePrecomp(q)
	return PairFixed(p, pc)
}

// PairFixed computes e(p, Q) against a precomputed G2 line table,
// skipping all G2 arithmetic.
func PairFixed(p *G1Affine, pc *G2LinePrecomp) Fp12 {
	f := millerLoopPrecomp([]G1Affine{*p}, []*G2LinePrecomp{pc})
	return finalExponentiation(&f)
}

// PairingCheck reports whether ∏ e(ps[i], qs[i]) == 1. All pairs run in
// one shared Miller loop (the accumulator is squared once per bit for the
// whole product) followed by a single final exponentiation, which is how
// verifiers should evaluate products of pairings.
func PairingCheck(ps []G1Affine, qs []G2Affine) (bool, error) {
	if len(ps) != len(qs) {
		return false, ErrPairingInput
	}
	pcs := make([]*G2LinePrecomp, len(qs))
	for i := range qs {
		pcs[i] = NewG2LinePrecomp(&qs[i])
	}
	return PairingCheckPrecomp(ps, pcs)
}

// PairingCheckPrecomp is PairingCheck against precomputed G2 line tables:
// the per-call cost is one shared sparse Miller loop and one final
// exponentiation, with no G2 arithmetic at all. This is the hot path for
// verifiers, whose G2 inputs are fixed SRS elements.
func PairingCheckPrecomp(ps []G1Affine, pcs []*G2LinePrecomp) (bool, error) {
	if len(ps) != len(pcs) {
		return false, ErrPairingInput
	}
	for _, pc := range pcs {
		if pc == nil {
			return false, ErrPairingInput
		}
	}
	f := millerLoopPrecomp(ps, pcs)
	res := finalExponentiation(&f)
	return res.IsOne(), nil
}

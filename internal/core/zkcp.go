package core

import (
	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
)

// This file holds the Zero-Knowledge Contingent Payment baseline of §III-C,
// against which ZKDET is compared (Figure 7), as far as a program runs it:
// its verifier's cost model. The ZKCP protocol itself — seller, buyer's
// verification, the judge's Open check and the key leak that follows — is
// executed by TestZKCPFlowAndLeak (zkcp_test.go).

// ZKCPVerifierCost models the paper's Figure 7 ZKCP verifier: the original
// protocol uses a Groth16-style verifier whose work grows with the number
// of public inputs ℓ — 3 pairings plus ℓ exponentiations in G1 (§VI-B3).
// It executes that group arithmetic for real so measured times are honest,
// returning a nonsense-but-unoptimizable accumulator.
func ZKCPVerifierCost(ell int) bn254.G1Affine {
	g1 := bn254.G1Generator()
	g2 := bn254.G2Generator()
	// ℓ exponentiations in G1.
	var acc bn254.G1Jac
	acc.SetInfinity()
	for i := 0; i < ell; i++ {
		s := fr.NewElement(uint64(i)*0x9e3779b97f4a7c15 + 1)
		var t bn254.G1Jac
		t.ScalarMul(&g1, &s)
		acc.AddAssign(&t)
	}
	// 3 pairings.
	for i := 0; i < 3; i++ {
		bn254.Pair(&g1, &g2)
	}
	var out bn254.G1Affine
	out.FromJacobian(&acc)
	return out
}

package plonk

import (
	"errors"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/poly"
)

// TestPermutationCosetsDisjoint checks, for every legal domain size of both
// families, what the permutation argument needs of permK1 and permK2: H,
// k1·H and k2·H are pairwise disjoint exactly when none of k1, k2 and k2/k1
// lies in H, i.e. when none of their N-th powers is 1.
func TestPermutationCosetsDisjoint(t *testing.T) {
	k1, k2 := fr.NewElement(permK1), fr.NewElement(permK2)
	var ratio fr.Element
	ratio.Inverse(&k1)
	ratio.Mul(&ratio, &k2)
	one := fr.One()
	sizes := 0
	for p := uint64(1); p <= poly.MaxDomainSize; p <<= 1 {
		for _, n := range []uint64{p, 3 * p} {
			if n > poly.MaxDomainSize {
				continue
			}
			d, err := poly.NewDomain(n)
			if err != nil || d.N != n {
				t.Fatalf("size %d is not a legal domain: %v", n, err)
			}
			sizes++
			for _, k := range []fr.Element{k1, k2, ratio} {
				var x fr.Element
				if x.ExpUint64(&k, n); x.Equal(&one) {
					t.Fatalf("N=%d: %s lies in H", n, k.String())
				}
			}
		}
	}
	if sizes != 29+27 {
		t.Fatalf("walked %d sizes, want 2^0..2^28 and 3·2^0..3·2^26", sizes)
	}
}

// TestVerifyRejectsIllegalDomainSize: a key whose N is not a supported size
// must be refused, not verified against the ω of the next size up while its
// Z_H still uses N.
func TestVerifyRejectsIllegalDomainSize(t *testing.T) {
	for _, n := range []uint64{1000, 5 << 6} {
		cs, witness := buildMulAddCircuit()
		pk, vk, err := Setup(cs, testSRSOnce())
		if err != nil {
			t.Fatal(err)
		}
		proof, err := Prove(pk, witness)
		if err != nil {
			t.Fatal(err)
		}
		vk.N = n // before the verifier cache is built
		if err := Verify(vk, proof, witness[:2]); !errors.Is(err, ErrDomainSize) {
			t.Fatalf("N=%d: Verify returned %v, want ErrDomainSize", n, err)
		}
		if err := BatchVerify(vk, []*Proof{proof}, [][]fr.Element{witness[:2]}); !errors.Is(err, ErrDomainSize) {
			t.Fatalf("N=%d: BatchVerify returned %v, want ErrDomainSize", n, err)
		}
		if _, err := exactDomain(n); !errors.Is(err, ErrDomainSize) {
			t.Fatalf("exactDomain(%d) returned %v, want ErrDomainSize", n, err)
		}
	}
	// 6n is not a size when n = 3·2^k; Setup asks for 8n there and would
	// refuse a quotient domain that came back rounded.
	if _, err := exactDomain(6 * 768); !errors.Is(err, ErrDomainSize) {
		t.Fatalf("exactDomain(6·768) returned %v, want ErrDomainSize", err)
	}
}

// TestCustomGateQuotientCoset pins which coset a custom-gate key evaluates
// its quotient on — 6n over a power-of-two domain, 8n over a 3·2^k one — and
// that on either an unsatisfied witness is refused by the prover's degree
// check (coefficients from 5n+6 up must vanish), not handed out as a proof
// that fails later.
func TestCustomGateQuotientCoset(t *testing.T) {
	for _, tc := range []struct {
		rounds  int
		n, mult uint64
	}{
		{4, 8, 6}, {50, 64, 6}, {40, 48, 8}, {250, 256, 6}, {300, 384, 8},
	} {
		cs, witness := buildPoseidonCustomCircuit(tc.rounds)
		pk, vk, err := Setup(cs, testSRSOnce())
		if err != nil {
			t.Fatal(err)
		}
		if domainE := pk.quotient; vk.N != tc.n || domainE.N != tc.mult*tc.n {
			t.Fatalf("%d rounds: %d-point domain, %d-point coset; want %d, %d",
				tc.rounds, vk.N, domainE.N, tc.n, tc.mult*tc.n)
		}
		proof, err := Prove(pk, witness)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(vk, proof, witness[:1]); err != nil {
			t.Fatalf("%d rounds: %v", tc.rounds, err)
		}
		bad := append([]fr.Element(nil), witness...)
		bad[4].Add(&bad[4], &bad[0]) // lane a of the state after the first round
		if _, err := Prove(pk, bad); !errors.Is(err, ErrUnsatisfied) {
			t.Fatalf("%d rounds: Prove on a corrupted witness returned %v, want ErrUnsatisfied", tc.rounds, err)
		}
	}
}

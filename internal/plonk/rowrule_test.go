package plonk

import (
	"errors"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// TestPoseidonRowRuleRefusesOtherRules: a Poseidon row holds when the next
// row carries MDS·w^5 + K, K being the constants of the round after it. A
// witness built on another rule — each row's constants added before its
// S-box, as rounds were written before the constants moved after the MDS,
// or the constants dropped — fails IsSatisfied, the honest prover refuses
// it, and a cheating prover that commits the quotient anyway (its division
// by Z_H left inexact) is refused by Verify and by a Batch.
func TestPoseidonRowRuleRefusesOtherRules(t *testing.T) {
	ownRound := func(mds [3][3]fr.Element, w, k [3]fr.Element, full bool) [3]fr.Element {
		for j := range w {
			w[j].Add(&w[j], &k[j])
		}
		return poseidonRoundRef(mds, w, [3]fr.Element{}, full)
	}
	dropK := func(mds [3][3]fr.Element, w, _ [3]fr.Element, full bool) [3]fr.Element {
		return poseidonRoundRef(mds, w, [3]fr.Element{}, full)
	}
	for name, round := range map[string]func([3][3]fr.Element, [3]fr.Element, [3]fr.Element, bool) [3]fr.Element{
		"own round's constants": ownRound, "no constants": dropK,
	} {
		t.Run(name, func(t *testing.T) {
			cs, witness := buildPoseidonChain(4, round)
			if err := cs.IsSatisfied(witness); !errors.Is(err, ErrUnsatisfied) {
				t.Fatalf("IsSatisfied: %v, want ErrUnsatisfied", err)
			}
			pk, vk, err := Setup(cs, testSRSOnce())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Prove(pk, witness); !errors.Is(err, ErrUnsatisfied) {
				t.Fatalf("Prove: %v, want ErrUnsatisfied", err)
			}
			checkDegree = false
			proof, err := Prove(pk, witness)
			checkDegree = true
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(vk, proof, witness[:1]); !errors.Is(err, ErrProofInvalid) {
				t.Fatalf("Verify: %v, want ErrProofInvalid", err)
			}
			b := NewBatch(vk)
			if err := b.Add(proof, witness[:1]); err != nil {
				t.Fatal(err)
			}
			if err := b.Check(); !errors.Is(err, ErrProofInvalid) {
				t.Fatalf("Batch.Check: %v, want ErrProofInvalid", err)
			}
		})
	}
}

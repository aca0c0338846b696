package plonk

import (
	"bytes"
	"sync"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// proveSeeded proves under the seeded blinding stream of the goldens.
func proveSeeded(t *testing.T, pk *ProvingKey, witness []fr.Element) *Proof {
	t.Helper()
	restore := randScalar
	randScalar = seededScalarsForTest(0x90_1d)
	defer func() { randScalar = restore }()
	proof, err := Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	return proof
}

// TestProveOnUsedWorkspace pins that a key's workspace carries nothing from
// one proof into the next: for an arithmetic-only key (the subtest keeps the
// name it had when that was the classic shape), a Poseidon round chain and a
// lookup + custom key, a proof made after the key has proved another witness
// of its circuit is byte-identical, under the seeded blinding stream, to the
// proof a freshly set-up key makes of the same witness.
func TestProveOnUsedWorkspace(t *testing.T) {
	cases := []struct {
		name         string
		build        func() (*ConstraintSystem, []fr.Element)
		otherWitness func() []fr.Element
	}{
		{"classic", buildMulAddCircuit, func() []fr.Element {
			// x·y = 12 and x + y = 8 with x = 2, y = 6.
			return []fr.Element{fr.NewElement(12), fr.NewElement(8), fr.NewElement(2), fr.NewElement(6)}
		}},
		{"custom", func() (*ConstraintSystem, []fr.Element) { return buildPoseidonCustomCircuit(6) }, func() []fr.Element {
			start := [3]fr.Element{fr.NewElement(11), fr.NewElement(22), fr.NewElement(33)}
			_, w := buildPoseidonChainFrom(start, 6, poseidonRoundRef)
			return w
		}},
		{"lookup+custom", buildMixedCircuit, func() []fr.Element {
			_, w := buildLookupCircuit(3, 6, []uint64{5, 1, 63, 0})
			return w
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs, witness := tc.build()
			other := tc.otherWitness()
			if err := cs.IsSatisfied(other); err != nil {
				t.Fatalf("the other witness does not satisfy the circuit: %v", err)
			}
			fresh, vk, err := Setup(cs, testSRSOnce())
			if err != nil {
				t.Fatal(err)
			}
			want := proveSeeded(t, fresh, witness)

			used, _, err := Setup(cs, testSRSOnce())
			if err != nil {
				t.Fatal(err)
			}
			first, err := Prove(used, other)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(vk, first, other[:cs.nbPublic]); err != nil {
				t.Fatalf("proof of the other witness rejected: %v", err)
			}
			if len(used.idle) != 1 {
				t.Fatalf("the key holds %d idle workspaces after one proof, want 1", len(used.idle))
			}
			got := proveSeeded(t, used, witness)
			if !bytes.Equal(digestProofForTest(got), digestProofForTest(want)) {
				t.Fatal("a proof on a used workspace differs from the same proof on a fresh key")
			}
			if err := Verify(vk, got, witness[:cs.nbPublic]); err != nil {
				t.Fatalf("proof on a used workspace rejected: %v", err)
			}
		})
	}
}

// TestConcurrentProofsOnOneKey proves on one lookup + custom key from four
// goroutines at once (run it under -race): each takes its own workspace,
// every proof verifies, and the key then keeps one idle workspace.
func TestConcurrentProofsOnOneKey(t *testing.T) {
	cs, witness := buildMixedCircuit()
	pk, vk, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	const provers = 4
	proofs := make([]*Proof, provers)
	errs := make([]error, provers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range provers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			proofs[i], errs[i] = Prove(pk, witness)
		}()
	}
	close(start)
	wg.Wait()
	for i := range provers {
		if errs[i] != nil {
			t.Fatalf("prover %d: %v", i, errs[i])
		}
		if err := Verify(vk, proofs[i], witness[:1]); err != nil {
			t.Fatalf("prover %d's proof rejected: %v", i, err)
		}
	}
	if idle := len(pk.idle); idle != 1 {
		t.Fatalf("the key holds %d idle workspaces, want 1", idle)
	}
}

// TestPhasesRecorded checks that Setup observes each of its phases once and
// every proof each of Prove's, and that a refused witness records nothing.
func TestPhasesRecorded(t *testing.T) {
	cs, witness := buildMixedCircuit()
	pk, _, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	for p := PhaseSetupInterpolate; p < NbPhases; p++ {
		if pk.Phase(p).Quantile(1) == 0 {
			t.Errorf("Setup recorded no %s time", p)
		}
	}
	for p := PhaseWitness; p < PhaseSetupInterpolate; p++ {
		if pk.Phase(p).Quantile(1) != 0 {
			t.Errorf("Prove's %s phase has a time before any proof", p)
		}
	}
	bad := append([]fr.Element(nil), witness...)
	bad[0] = fr.NewElement(1) // the public input no longer matches the chain
	if _, err := Prove(pk, bad); err == nil {
		t.Fatal("an unsatisfied witness proved")
	}
	for p := PhaseWitness; p < PhaseSetupInterpolate; p++ {
		if pk.Phase(p).Quantile(1) != 0 {
			t.Errorf("a refused witness recorded a %s time", p)
		}
	}
	if _, err := Prove(pk, witness); err != nil {
		t.Fatal(err)
	}
	for p := PhaseWitness; p < PhaseSetupInterpolate; p++ {
		if pk.Phase(p).Quantile(1) == 0 {
			t.Errorf("a proof recorded no %s time", p)
		}
	}
}

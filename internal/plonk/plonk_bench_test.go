package plonk

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
)

// benchSquareChain builds a circuit with exactly 2^logN gates computing the
// repeated-squaring chain x_{i+1} = x_i², plus its witness.
func benchSquareChain(logN int) (*ConstraintSystem, []fr.Element) {
	cs := NewConstraintSystem(1)
	x := 0
	witness := []fr.Element{fr.NewElement(3)}
	var negOne fr.Element
	one := fr.One()
	negOne.Neg(&one)
	for cs.NbGates() < 1<<logN {
		y := cs.NewVariable()
		cs.MustAddGate(Gate{QM: one, QO: negOne, A: x, B: x, C: y})
		var sq fr.Element
		sq.Square(&witness[x])
		witness = append(witness, sq)
		x = y
	}
	return cs, witness
}

func BenchmarkProve(b *testing.B) {
	for _, logN := range []int{10, 12, 13, 14} {
		cs, witness := benchSquareChain(logN)
		tau := fr.NewElement(0xbeef)
		srs, err := kzg.NewSRSFromSecret(3*(1<<logN)+6, &tau)
		if err != nil {
			b.Fatal(err)
		}
		pk, _, err := Setup(cs, srs)
		if err != nil {
			b.Fatal(err)
		}
		// Warm the proving key's lazy domain caches so the benchmark
		// measures steady-state proving.
		if _, err := Prove(pk, witness); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("2^%d", logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Prove(pk, witness); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// proveParentBytesPerProof is what one warm Prove at 2^13 gates allocated
// before the MSM's scratch was pooled (BenchmarkProve/2^13 -benchmem at
// PR 18).
const proveParentBytesPerProof = 16113870

// TestProveSteadyStateAllocation guards the prover's allocation per proof,
// which the repository benchmark bounds to 3 %: a warm Prove at 2^13 gates
// must not allocate more than it did before the MSM kernel took pooled
// scratch. The quietest of three proofs is checked, because a garbage
// collection may empty the pool under any single one.
func TestProveSteadyStateAllocation(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("proves at 2^13 gates; sync.Pool drops Puts under the race detector")
	}
	const logN = 13
	cs, witness := benchSquareChain(logN)
	tau := fr.NewElement(0xbeef)
	srs, err := kzg.NewSRSFromSecret(3*(1<<logN)+6, &tau)
	if err != nil {
		t.Fatal(err)
	}
	pk, _, err := Setup(cs, srs)
	if err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 4; i++ {
		runtime.ReadMemStats(&before)
		if _, err := Prove(pk, witness); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i > 0 {
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	if least > proveParentBytesPerProof {
		t.Fatalf("a warm Prove at 2^13 gates allocated %d bytes, more than the %d before the MSM scratch was pooled", least, proveParentBytesPerProof)
	}
	t.Logf("warm Prove at 2^13 gates: %d bytes allocated (before pooling: %d)", least, proveParentBytesPerProof)
}

func BenchmarkSetup(b *testing.B) {
	for _, logN := range []int{10, 12} {
		cs, _ := benchSquareChain(logN)
		tau := fr.NewElement(0xbeef)
		srs, err := kzg.NewSRSFromSecret(3*(1<<logN)+6, &tau)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("2^%d", logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Setup(cs, srs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package plonk

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
)

// benchSquareChain builds a circuit with 2^logN − 1 gates computing the
// repeated-squaring chain x_{i+1} = x_i², plus its witness: with the padding
// row every key keeps, it fills the 2^logN-row domain exactly.
func benchSquareChain(logN int) (*ConstraintSystem, []fr.Element) {
	cs := NewConstraintSystem(1)
	x := 0
	witness := []fr.Element{fr.NewElement(3)}
	var negOne fr.Element
	one := fr.One()
	negOne.Neg(&one)
	for cs.NbGates() < 1<<logN-1 {
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

// proveBytesPerProof is what one warm Prove at 2^13 rows allocates once
// every buffer a proof fills is the key's (50 440–50 648 B at two workers
// on a 2-vCPU host): little more than the Proof, the transcript and the
// worker pool's closures. It read 11 651 816 B when each proof allocated
// its own wire, coset and fold buffers, and 16 113 870 B before the MSM's
// scratch was pooled (BenchmarkProve/2^13 -benchmem at PR 18).
// On the custom shape, which every key has taken since the classic one was
// deleted, it reads 50 824–50 840 B (2^13 − 1 gates and the padding row, a
// second quotient piece committed after the first, and round 5's column
// and coefficient lists in the workspace).
const proveBytesPerProof = 50_456

// proveParentBytesPerProof is what one warm Prove at 2^13 rows allocated
// before the MSM's scratch was pooled (BenchmarkProve/2^13 -benchmem at
// PR 18): the bound at any worker count, where the MSM's pooled scratch
// may still grow with the width.
const proveParentBytesPerProof = 16_113_870

// TestProveSteadyStateAllocation guards the prover's allocation per proof,
// which the repository benchmark bounds to 3 %. At two workers, with
// garbage collection off (a collection empties the domains' pooled
// buffers, and how much of them a proof must then allocate again depends
// on scheduling), a warm Prove at 2^13 rows must allocate no more than
// proveBytesPerProof + 10 %; at four and eight workers, no more than that
// per two workers. Before G1MSM's scratch left its sync.Pool, a warm proof
// read 2.4 MB at four workers and 7.9 MB at eight. At the host's own width,
// with garbage collection on, it must allocate no more than
// proveParentBytesPerProof.
// Each check takes the quietest of three proofs.
func TestProveSteadyStateAllocation(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("proves at 2^13 rows; sync.Pool drops Puts under the race detector")
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
	warmProveBytes := func() uint64 {
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
		return least
	}

	native := warmProveBytes()
	if native > proveParentBytesPerProof {
		t.Fatalf("a warm Prove at 2^13 rows on %d workers allocated %d bytes, more than the %d before the MSM scratch was pooled",
			runtime.GOMAXPROCS(0), native, proveParentBytesPerProof)
	}
	t.Logf("warm Prove at 2^13 rows on %d workers: %d bytes allocated (before pooling: %d)",
		runtime.GOMAXPROCS(0), native, proveParentBytesPerProof)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	two := warmProveBytes()
	if limit := uint64(proveBytesPerProof + proveBytesPerProof/10); two > limit {
		t.Fatalf("a warm Prove at 2^13 rows on 2 workers allocated %d bytes, more than %d + 10 %%", two, proveBytesPerProof)
	}
	t.Logf("warm Prove at 2^13 rows on 2 workers: %d bytes allocated (recorded: %d)", two, proveBytesPerProof)

	// Wider, the MSM scratch must not grow: only the fan-out's goroutines
	// and closures do, so the bound is the two-worker figure per two
	// workers, + 10 %.
	for _, workers := range []int{4, 8} {
		runtime.GOMAXPROCS(workers)
		got := warmProveBytes()
		if limit := uint64(workers/2) * (proveBytesPerProof + proveBytesPerProof/10); got > limit {
			t.Fatalf("a warm Prove at 2^13 rows on %d workers allocated %d bytes, more than %d", workers, got, limit)
		}
		t.Logf("warm Prove at 2^13 rows on %d workers: %d bytes allocated", workers, got)
	}
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

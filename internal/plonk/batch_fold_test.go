package plonk

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// buildAddMulCircuit is buildMulAddCircuit with its two gates swapped
// (x + y = pub0, x·y = pub1): a different key with the same shape and
// public-input count, so its proofs pass every check Add makes against the
// mul-add key and only the pairing can refuse them.
func buildAddMulCircuit() (*ConstraintSystem, []fr.Element) {
	cs := NewConstraintSystem(2)
	x := cs.NewVariable()
	y := cs.NewVariable()
	minusOne := neg(1)
	cs.MustAddGate(Gate{QL: fr.One(), QR: fr.One(), QO: minusOne, A: x, B: y, C: 0})
	cs.MustAddGate(Gate{QM: fr.One(), QO: minusOne, A: x, B: y, C: 1})
	witness := []fr.Element{fr.NewElement(12), fr.NewElement(35), fr.NewElement(5), fr.NewElement(7)}
	return cs, witness
}

// statementOf returns the deferred statement Add (or, for a key other than
// the batch key, AddFor) keeps for one proof.
func statementOf(t *testing.T, batchVK, vk *VerifyingKey, proof *Proof, public []fr.Element) opening {
	t.Helper()
	b := NewBatch(batchVK)
	if err := b.AddFor(vk, proof, public); err != nil {
		t.Fatal(err)
	}
	return b.stmts[0]
}

// TestBatchFoldNamesEachBadPosition is the fold's soundness at every width
// the seal meets: with one bad statement at each position of a fold of n,
// Check refuses the fold and Bisect names exactly that position. The bad
// statements are a corrupted W_ζ, a flipped public input and a proof of a
// different key (same SRS, shape and public-input count) entered via AddFor.
func TestBatchFoldNamesEachBadPosition(t *testing.T) {
	const distinct = 8
	vk, proofs, publics := proveN(t, distinct)
	good := make([]opening, distinct)
	for i := range good {
		good[i] = statementOf(t, vk, vk, proofs[i], publics[i])
	}

	corrupt := *proofs[0]
	corruptOpening(&corrupt)
	flipped := slices.Clone(publics[0])
	one := fr.One()
	flipped[0].Add(&flipped[0], &one)
	csF, wF := buildAddMulCircuit()
	pkF, vkF, err := Setup(csF, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := Prove(pkF, wF)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vkF, foreign, wF[:2]); err != nil {
		t.Fatalf("the foreign proof is not valid for its own key: %v", err)
	}
	bads := []struct {
		name string
		stmt opening
	}{
		{"corrupted W_ζ", statementOf(t, vk, vk, &corrupt, publics[0])},
		{"flipped public input", statementOf(t, vk, vk, proofs[0], flipped)},
		{"foreign key via AddFor", statementOf(t, vk, vk, foreign, wF[:2])},
	}

	for _, n := range []int{1, 2, 3, 8, 64} {
		positions := n
		if testing.Short() && n > 8 {
			positions = 4 // the ends and the middle two
		}
		for _, bad := range bads {
			for k := 0; k < positions; k++ {
				pos := k
				if positions < n {
					pos = []int{0, n/2 - 1, n / 2, n - 1}[k]
				}
				b := &Batch{vk: vk, stmts: make([]opening, n)}
				for i := range b.stmts {
					b.stmts[i] = good[i%distinct]
				}
				b.stmts[pos] = bad.stmt
				if err := b.Check(); !errors.Is(err, ErrProofInvalid) {
					t.Fatalf("n = %d, %s at %d: Check = %v, want ErrProofInvalid", n, bad.name, pos, err)
				}
				named, err := b.Bisect()
				if err != nil {
					t.Fatal(err)
				}
				if len(named) != 1 || named[0] != pos {
					t.Fatalf("n = %d, %s at %d: Bisect = %v", n, bad.name, pos, named)
				}
			}
		}
		b := &Batch{vk: vk, stmts: make([]opening, n)}
		for i := range b.stmts {
			b.stmts[i] = good[i%distinct]
		}
		if err := b.Check(); err != nil {
			t.Fatalf("n = %d: a fold of valid statements refused: %v", n, err)
		}
	}
}

// TestBatchFoldDuplicates: the seal folds the same proof more than once (the
// settle load cycles 16 fixtures). A valid proof added many times passes; a
// corrupted one added twice is refused, and Bisect names both positions.
func TestBatchFoldDuplicates(t *testing.T) {
	vk, proofs, publics := proveN(t, 2)
	b := NewBatch(vk)
	for i := 0; i < 16; i++ {
		if err := b.Add(proofs[0], publics[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Check(); err != nil {
		t.Fatalf("one valid proof folded 16 times refused: %v", err)
	}

	bad := *proofs[1]
	corruptOpening(&bad)
	b = NewBatch(vk)
	for i := 0; i < 8; i++ {
		p := proofs[0]
		if i == 2 || i == 5 {
			p = &bad
		}
		if err := b.Add(p, publics[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Check(); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("a corrupted proof folded twice: Check = %v, want ErrProofInvalid", err)
	}
	named, err := b.Bisect()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(named, []int{2, 5}) {
		t.Fatalf("Bisect = %v, want [2 5]", named)
	}
}

// TestBatchFoldMatchesVerify is the differential test of the fold against
// Verify: over folds that mix arithmetic-only, round-chain and lookup +
// custom keys,
// with a random set of statements corrupted (W_ζ, a public input or an
// opening), the positions Bisect names are exactly those Verify refuses one
// by one.
func TestBatchFoldMatchesVerify(t *testing.T) {
	fx := mixedBatchFixtures(t)
	rng := rand.New(rand.NewSource(52))
	trials, n := 6, 24
	if testing.Short() {
		trials = 2
	}
	one := fr.One()
	for trial := 0; trial < trials; trial++ {
		b := NewBatch(fx[0].vk)
		var want []int
		for i := 0; i < n; i++ {
			f := fx[rng.Intn(len(fx))]
			proof, public := f.proof, f.public
			switch rng.Intn(5) {
			case 0:
				cp := *proof
				corruptOpening(&cp)
				proof = &cp
			case 1:
				public = slices.Clone(public)
				public[0].Add(&public[0], &one)
			case 2:
				cp := *proof
				cp.Evals.A.Add(&cp.Evals.A, &one)
				proof = &cp
			}
			if Verify(f.vk, proof, public) != nil {
				want = append(want, i)
			}
			if err := b.AddFor(f.vk, proof, public); err != nil {
				t.Fatal(err)
			}
		}
		got, err := b.Bisect()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: Bisect = %v, Verify refuses %v", trial, got, want)
		}
		if err := b.Check(); (err == nil) != (len(want) == 0) {
			t.Fatalf("trial %d: Check = %v with %d bad statements", trial, err, len(want))
		}
	}
}

// TestBatchRhoBindsEveryU: ρ is derived from the statements' u alone (with
// the subset's size and indices), so changing any single statement's u must
// change it.
func TestBatchRhoBindsEveryU(t *testing.T) {
	vk, proofs, publics := proveN(t, 4)
	b := NewBatch(vk)
	for i := range proofs {
		if err := b.Add(proofs[i], publics[i]); err != nil {
			t.Fatal(err)
		}
	}
	idxs := []int{0, 1, 2, 3}
	rho := b.batchRho(idxs)
	one := fr.One()
	for i := range b.stmts {
		u := b.stmts[i].u
		b.stmts[i].u.Add(&u, &one)
		if got := b.batchRho(idxs); got.Equal(&rho) {
			t.Fatalf("ρ did not change with statement %d's u", i)
		}
		b.stmts[i].u = u
	}
	if got := b.batchRho(idxs); !got.Equal(&rho) {
		t.Fatal("ρ is not a function of the statements")
	}
	if got := b.batchRho(idxs[:3]); got.Equal(&rho) {
		t.Fatal("ρ did not change with the subset")
	}
}

// Before the fold became one MSM, a warm Add + Check at n = 64 on the
// mul-add circuit allocated 143.6–153.9 times and 12.6–12.7 KB per proof (two
// measurements on a 2-vCPU host): an 18-point MSM and a u·W_ζω scalar
// multiplication per proof. One MSM per fold brought it to 126.0 allocations
// and 10 884 bytes; a transcript that hashes out of one reused preimage
// buffer to 43.5–43.9 and 8 026–8 034 (five runs, same host), guarded at 46
// and 8 400. Decoding field elements without math/big (every challenge
// squeeze was a big.Int) and keeping a prepared statement by value brought
// the mul-add fold to 27.8 allocations and 5 868 bytes, and a custom-gate
// fold reads 35.8 and 6 926 (same host): the guard, one for both, sits just
// above the custom reading. The repository
// benchmark bounds alloc_mb_per_op to 3 %, and every block fold runs this.
const (
	batchAllocsPerProof = 38
	batchBytesPerProof  = 7_300
)

// TestBatchSteadyStateAllocation guards the fold's allocation per proof:
// a warm key, 64 proofs, Add for each and one Check. The quietest of a few
// folds is checked, because a garbage collection may empty the MSM's
// scratch pool under any single one. Both keys are on the custom shape every
// key proves on: the mul-add circuit, without Poseidon rows (the subtest
// keeps the name "classic" from when it was a classic key, whose proof
// carried one point and one opening fewer and its linearization five
// columns fewer), and the mimc Poseidon round chain.
func TestBatchSteadyStateAllocation(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const n = 64
	for _, tc := range []struct {
		name  string
		prove func() (*VerifyingKey, []*Proof, [][]fr.Element)
	}{
		{"classic", func() (*VerifyingKey, []*Proof, [][]fr.Element) { return proveN(t, n) }},
		{"custom", func() (*VerifyingKey, []*Proof, [][]fr.Element) {
			cs, witness := goldenCircuit(t, "mimc")
			pk, vk, err := Setup(cs, testSRSOnce())
			if err != nil {
				t.Fatal(err)
			}
			proofs := make([]*Proof, n)
			publics := make([][]fr.Element, n)
			for i := range proofs {
				if proofs[i], err = Prove(pk, witness); err != nil {
					t.Fatal(err)
				}
				publics[i] = witness[:cs.nbPublic]
			}
			return vk, proofs, publics
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vk, proofs, publics := tc.prove()
			fold := func() {
				b := NewBatch(vk)
				for i := range proofs {
					if err := b.Add(proofs[i], publics[i]); err != nil {
						t.Fatal(err)
					}
				}
				if err := b.Check(); err != nil {
					t.Fatal(err)
				}
			}
			leastAllocs, leastBytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
			var before, after runtime.MemStats
			for i := 0; i < 5; i++ {
				runtime.ReadMemStats(&before)
				fold()
				runtime.ReadMemStats(&after)
				if i > 0 {
					leastAllocs = min(leastAllocs, after.Mallocs-before.Mallocs)
					leastBytes = min(leastBytes, after.TotalAlloc-before.TotalAlloc)
				}
			}
			allocs, bytes := float64(leastAllocs)/n, float64(leastBytes)/n
			if allocs > batchAllocsPerProof || bytes > batchBytesPerProof {
				t.Fatalf("a warm fold of %d proofs allocated %.1f times and %.0f bytes per proof, more than the %d and %d guarded",
					n, allocs, bytes, batchAllocsPerProof, batchBytesPerProof)
			}
			t.Logf("warm fold of %d proofs: %.1f allocations, %.0f bytes per proof (guard: %d, %d)",
				n, allocs, bytes, batchAllocsPerProof, batchBytesPerProof)
		})
	}
}

package plonk

import (
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

// TestBatchFoldNamesEachBadPosition is the fold's soundness at every width
// the seal meets: with one bad statement at each position of a fold of n,
// Check refuses the fold and names exactly that position. The bad
// statements are a corrupted W_ζ, a flipped public input and a proof of a
// different key (same SRS, shape and public-input count) entered via AddFor.
func TestBatchFoldNamesEachBadPosition(t *testing.T) {
	const distinct = 8
	vk, proofs, publics := proveN(t, distinct)

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
		name   string
		proof  *Proof
		public []fr.Element
	}{
		{"corrupted W_ζ", &corrupt, publics[0]},
		{"flipped public input", proofs[0], flipped},
		{"foreign key via AddFor", foreign, wF[:2]},
	}
	fold := func(n, pos int, proof *Proof, public []fr.Element) error {
		b := NewBatch(vk)
		for i := 0; i < n; i++ {
			p, pub := proofs[i%distinct], publics[i%distinct]
			if i == pos {
				p, pub = proof, public
			}
			if err := b.AddFor(vk, p, pub); err != nil {
				t.Fatal(err)
			}
		}
		return b.Check()
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
				if named := offendersOf(t, fold(n, pos, bad.proof, bad.public)); len(named) != 1 || named[0] != pos {
					t.Fatalf("n = %d, %s at %d: Check names %v", n, bad.name, pos, named)
				}
			}
		}
		if err := fold(n, -1, nil, nil); err != nil {
			t.Fatalf("n = %d: a fold of valid statements refused: %v", n, err)
		}
	}
}

// TestBatchFoldDuplicates: the seal folds the same proof more than once (the
// settle load cycles 16 fixtures). A valid proof added many times passes; a
// corrupted one added twice is refused, and Check names both positions.
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
	if named := offendersOf(t, b.Check()); !slices.Equal(named, []int{2, 5}) {
		t.Fatalf("Check names %v, want [2 5]", named)
	}
}

// TestBatchFoldMatchesVerify is the differential test of the fold against
// Verify: over folds that mix arithmetic-only, round-chain and lookup +
// custom keys,
// with a random set of statements corrupted (W_ζ, a public input or an
// opening), the positions Check names are exactly those Verify refuses one
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
		err := b.Check()
		if len(want) == 0 {
			if err != nil {
				t.Fatalf("trial %d: Check = %v with no bad statement", trial, err)
			}
			continue
		}
		if got := offendersOf(t, err); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Check names %v, Verify refuses %v", trial, got, want)
		}
	}
}

// TestBatchCheckBisectsFromTheHalves counts the pairing checks of a failed
// fold: with one invalid statement among n = 2^k, Check folds the batch
// once, then each half of every failing subset down to single statements —
// 1 + 2k folds, never the refused batch a second time. A valid batch is
// folded once.
func TestBatchCheckBisectsFromTheHalves(t *testing.T) {
	vk, proofs, publics := proveN(t, 4)
	bad := *proofs[0]
	corruptOpening(&bad)
	for k := 0; k <= 6; k++ {
		n := 1 << k
		for _, pos := range []int{-1, 0, n / 3, n - 1} {
			b := NewBatch(vk)
			for i := 0; i < n; i++ {
				p := proofs[i%len(proofs)]
				if i == pos {
					p = &bad
				}
				if err := b.Add(p, publics[0]); err != nil {
					t.Fatal(err)
				}
			}
			err := b.Check()
			want := 1
			if pos >= 0 {
				if named := offendersOf(t, err); !slices.Equal(named, []int{pos}) {
					t.Fatalf("n = %d: Check names %v, want [%d]", n, named, pos)
				}
				want = 1 + 2*k
			} else if err != nil {
				t.Fatalf("n = %d: a valid batch refused: %v", n, err)
			}
			if b.folds != want {
				t.Fatalf("n = %d, bad at %d: %d pairing checks, want %d", n, pos, b.folds, want)
			}
		}
	}
}

// TestBatchCheckMatchesVerifyAtEveryWidth: at every width from 1 to 64,
// over statements drawn from valid proofs and three corruptions of them (W_ζ,
// a public input, an opening), the positions Check names are exactly those
// Verify refuses one by one, and Check passes when Verify refuses none.
func TestBatchCheckMatchesVerifyAtEveryWidth(t *testing.T) {
	vk, proofs, publics := proveN(t, 4)
	type candidate struct {
		proof  *Proof
		public []fr.Element
		valid  bool // Verify's verdict on it alone
	}
	one := fr.One()
	var pool []candidate
	for i := range proofs {
		w := *proofs[i]
		corruptOpening(&w)
		e := *proofs[i]
		e.Evals.B.Add(&e.Evals.B, &one)
		flipped := slices.Clone(publics[i])
		flipped[1].Add(&flipped[1], &one)
		pool = append(pool,
			candidate{proof: proofs[i], public: publics[i]},
			candidate{proof: &w, public: publics[i]},
			candidate{proof: &e, public: publics[i]},
			candidate{proof: proofs[i], public: flipped})
	}
	for i := range pool {
		pool[i].valid = Verify(vk, pool[i].proof, pool[i].public) == nil
	}
	rng := rand.New(rand.NewSource(60))
	for n := 1; n <= 64; n++ {
		if testing.Short() && n > 8 && n&(n-1) != 0 {
			continue
		}
		b := NewBatch(vk)
		var want []int
		for i := 0; i < n; i++ {
			c := pool[4*rng.Intn(len(proofs))] // a valid proof, mostly
			if rng.Intn(6) == 0 {
				c = pool[rng.Intn(len(pool))]
			}
			if !c.valid {
				want = append(want, i)
			}
			if err := b.Add(c.proof, c.public); err != nil {
				t.Fatal(err)
			}
		}
		err := b.Check()
		if len(want) == 0 {
			if err != nil {
				t.Fatalf("n = %d: Check = %v, Verify refuses none", n, err)
			}
			continue
		}
		if got := offendersOf(t, err); !slices.Equal(got, want) {
			t.Fatalf("n = %d: Check names %v, Verify refuses %v", n, got, want)
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
	if err := b.Check(); err != nil { // prepares b.stmts
		t.Fatal(err)
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

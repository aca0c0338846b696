package plonk

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/parallel"
)

// proveN makes N distinct proofs of the same circuit (Prove is randomised
// by blinding, so each proof is unique) along with their public inputs.
func proveN(t testing.TB, n int) (*VerifyingKey, []*Proof, [][]fr.Element) {
	t.Helper()
	cs, witness := buildMulAddCircuit()
	pk, vk, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	proofs := make([]*Proof, n)
	publics := make([][]fr.Element, n)
	for i := range proofs {
		proofs[i], err = Prove(pk, witness)
		if err != nil {
			t.Fatal(err)
		}
		publics[i] = witness[:2]
	}
	return vk, proofs, publics
}

// corruptOpening swaps the proof's ζ-opening commitment for an unrelated
// point. The transcript replay and quotient identity still pass — the
// corruption is only caught by the pairing — which is exactly the case
// batch folding must not let slip through.
func corruptOpening(p *Proof) {
	s := fr.NewElement(0xbad)
	g := bn254.G1Generator()
	p.WZeta = bn254.G1ScalarMul(&g, &s)
}

func TestBatchVerifyAllValid(t *testing.T) {
	vk, proofs, publics := proveN(t, 5)
	if err := BatchVerify(vk, proofs, publics); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
}

func TestBatchVerifyEmptyAndMismatch(t *testing.T) {
	vk, proofs, publics := proveN(t, 1)
	if err := BatchVerify(vk, nil, nil); err != nil {
		t.Fatalf("empty batch must pass vacuously: %v", err)
	}
	if err := BatchVerify(vk, proofs, publics[:0]); err == nil {
		t.Fatal("length mismatch must be rejected")
	}
	if err := NewBatch(vk).Check(); err != nil {
		t.Fatalf("empty Batch.Check must pass: %v", err)
	}
}

// TestBatchVerifyRejectsCorrupted is the acceptance property: one corrupted
// proof in a batch of N is rejected, bisection names exactly that proof,
// and the other N-1 still verify individually.
func TestBatchVerifyRejectsCorrupted(t *testing.T) {
	const n, bad = 6, 2
	vk, proofs, publics := proveN(t, n)
	corruptOpening(proofs[bad])

	err := BatchVerify(vk, proofs, publics)
	if !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("corrupted batch accepted or wrong error: %v", err)
	}
	if !strings.Contains(err.Error(), "[2]") {
		t.Fatalf("error does not name the offending index: %v", err)
	}

	// The same through the incremental API.
	b := NewBatch(vk)
	for i := range proofs {
		if err := b.Add(proofs[i], publics[i]); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	if b.Len() != n {
		t.Fatalf("Len = %d, want %d", b.Len(), n)
	}
	if err := b.Check(); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("Check on corrupted batch: %v", err)
	}
	offenders, err := b.Bisect()
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 1 || offenders[0] != bad {
		t.Fatalf("Bisect = %v, want [%d]", offenders, bad)
	}

	// Every other proof still passes on its own.
	for i := range proofs {
		if i == bad {
			continue
		}
		if err := Verify(vk, proofs[i], publics[i]); err != nil {
			t.Fatalf("survivor %d rejected: %v", i, err)
		}
	}
}

// TestBatchBisectAllCorrupt is the bisection worst case: every proof in
// the batch is corrupt, so every split fails all the way down and the
// offender list must name each index exactly once, in order.
func TestBatchBisectAllCorrupt(t *testing.T) {
	const n = 5
	vk, proofs, publics := proveN(t, n)
	for i := range proofs {
		corruptOpening(proofs[i])
	}

	if err := BatchVerify(vk, proofs, publics); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("all-corrupt batch accepted or wrong error: %v", err)
	}

	b := NewBatch(vk)
	for i := range proofs {
		if err := b.Add(proofs[i], publics[i]); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	offenders, err := b.Bisect()
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != n {
		t.Fatalf("Bisect found %d offenders, want all %d: %v", len(offenders), n, offenders)
	}
	for i, off := range offenders {
		if off != i {
			t.Fatalf("Bisect = %v, want [0..%d] in order", offenders, n-1)
		}
	}
}

func TestBatchBisectMultipleOffenders(t *testing.T) {
	const n = 8
	vk, proofs, publics := proveN(t, n)
	corruptOpening(proofs[1])
	corruptOpening(proofs[6])

	b := NewBatch(vk)
	for i := range proofs {
		if err := b.Add(proofs[i], publics[i]); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	offenders, err := b.Bisect()
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) != 2 || offenders[0] != 1 || offenders[1] != 6 {
		t.Fatalf("Bisect = %v, want [1 6]", offenders)
	}
}

// TestBatchAddRejectsEarly pins that a proof failing the cheap checks
// (here: wrong public inputs breaking the quotient identity) is rejected
// at Add time and never pollutes the batch.
func TestBatchAddRejectsEarly(t *testing.T) {
	vk, proofs, publics := proveN(t, 1)
	b := NewBatch(vk)
	wrong := []fr.Element{fr.NewElement(36), fr.NewElement(12)}
	if err := b.Add(proofs[0], wrong); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("Add with wrong publics: %v", err)
	}
	if b.Len() != 0 {
		t.Fatalf("rejected proof entered the batch, Len = %d", b.Len())
	}
	if err := b.Add(proofs[0], publics[0]); err != nil {
		t.Fatal(err)
	}
	if err := b.Check(); err != nil {
		t.Fatalf("valid single-proof batch rejected: %v", err)
	}
}

// BenchmarkBatchVerify measures amortised per-proof verification cost at
// several batch sizes; ns/proof should flatten as N grows (near-O(1)
// marginal pairing cost).
func BenchmarkBatchVerify(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		vk, proofs, publics := proveN(b, n)
		b.Run("n="+itoa(n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := BatchVerify(vk, proofs, publics); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/proof")
		})
	}
}

// BatchVerify is the reference batch verifier the Batch accumulator is
// tested and benchmarked through: it checks N proofs against one verifying
// key with a single pairing check. Per-proof preparation (transcript replay and quotient
// identity) runs across all cores; the deferred pairing statements are
// then folded and checked at once. On a batch failure the offending
// proofs are isolated by bisection and reported by index.
//
// It is semantically equivalent to calling Verify on each proof — any
// error that Verify would return surfaces here, attributed to the proof's
// index — but the pairing cost is amortised to near-O(1) per proof.
func BatchVerify(vk *VerifyingKey, proofs []*Proof, publics [][]fr.Element) error {
	if len(proofs) != len(publics) {
		return fmt.Errorf("plonk: batch verify: %d proofs, %d public input sets", len(proofs), len(publics))
	}
	n := len(proofs)
	if n == 0 {
		return nil
	}
	// Build the verifier caches once before fanning out, so the workers
	// don't all stall on the same sync.Once.
	if _, _, _, err := vk.verifierCache(); err != nil {
		return err
	}

	terms := make([]pairingTerms, n)
	errs := make([]error, n)
	parallel.Execute(n, func(start, end int) {
		for i := start; i < end; i++ {
			terms[i], errs[i] = prepare(vk, proofs[i], publics[i])
		}
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("plonk: batch proof %d: %w", i, err)
		}
	}

	b := &Batch{vk: vk, terms: terms}
	if err := b.Check(); err == nil {
		return nil
	}
	bad, err := b.Bisect()
	if err != nil {
		return err
	}
	if len(bad) == 0 {
		// The folded check failed but every individual statement passes:
		// astronomically unlikely (a ρ collision), but report honestly.
		return fmt.Errorf("%w: batch fold rejected but no single proof failed", ErrProofInvalid)
	}
	return fmt.Errorf("%w: batch proofs %v failed pairing check", ErrProofInvalid, bad)
}

package plonk

import (
	"errors"
	"strings"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
)

// mixedBatchFixtures sets up one arithmetic-only, one lookup + custom and
// one Poseidon round-chain circuit over the shared test SRS, then an
// arithmetic-only and a round-chain one whose keys sit on 3·2^k domains,
// returning per-kind (vk, proof, public) triples.
type batchFixture struct {
	vk     *VerifyingKey
	proof  *Proof
	public []fr.Element
}

func mixedBatchFixtures(t testing.TB) []batchFixture {
	t.Helper()
	var out []batchFixture

	csC, wC := buildMulAddCircuit()
	pkC, vkC, err := Setup(csC, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	pC, err := Prove(pkC, wC)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, batchFixture{vkC, pC, wC[:2]})

	csL, wL := buildLookupCircuit(1, 8, []uint64{0, 42, 255, 17})
	pkL, vkL, err := Setup(csL, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	pL, err := Prove(pkL, wL)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, batchFixture{vkL, pL, wL[:1]})

	csM, wM := buildPoseidonCustomCircuit(4)
	pkM, vkM, err := Setup(csM, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	pM, err := Prove(pkM, wM)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, batchFixture{vkM, pM, wM[:1]})

	for _, shape := range []string{"power20", "poseidon"} {
		cs, w := goldenCircuit(t, shape)
		pk, vk, err := Setup(cs, testSRSOnce())
		if err != nil {
			t.Fatal(err)
		}
		if vk.N%3 != 0 {
			t.Fatalf("%s: domain of %d rows is not 3·2^k", shape, vk.N)
		}
		p, err := Prove(pk, w)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, batchFixture{vk, p, w[:cs.nbPublic]})
	}
	return out
}

// TestBatchMixedKinds folds custom and lookup + custom proofs — five
// different verifying keys on both domain-size families over one SRS — into
// a single pairing check via AddFor.
func TestBatchMixedKinds(t *testing.T) {
	fx := mixedBatchFixtures(t)
	b := NewBatch(fx[0].vk)
	if err := b.Add(fx[0].proof, fx[0].public); err != nil {
		t.Fatal(err)
	}
	for _, f := range fx[1:] {
		if err := b.AddFor(f.vk, f.proof, f.public); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != len(fx) {
		t.Fatalf("batch has %d statements, want %d", b.Len(), len(fx))
	}
	if err := b.Check(); err != nil {
		t.Fatalf("mixed batch rejected: %v", err)
	}
}

// TestBatchMixedBisectsCorruptedLookup corrupts the lookup proof's opening
// commitment inside a mixed batch: AddFor still accepts it (the corruption
// is pairing-only), Check fails, and Bisect isolates exactly the lookup
// statement.
func TestBatchMixedBisectsCorruptedLookup(t *testing.T) {
	fx := mixedBatchFixtures(t)
	corruptOpening(fx[1].proof) // the lookup proof

	b := NewBatch(fx[0].vk)
	if err := b.Add(fx[0].proof, fx[0].public); err != nil {
		t.Fatal(err)
	}
	for _, f := range fx[1:] {
		if err := b.AddFor(f.vk, f.proof, f.public); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Check(); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("corrupted mixed batch accepted or wrong error: %v", err)
	}
	bad, err := b.Bisect()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != 1 {
		t.Fatalf("Bisect = %v, want [1]", bad)
	}
}

// TestBatchMixedRejectsTamperedLookupEvals forges each LogUp opening of the
// lookup proof — the table at ζ, the running sum at ζω — in a mixed batch.
// The constraint identities are checked inside the pairing, so AddFor takes
// the proof; Check refuses the batch and Bisect names exactly that statement.
func TestBatchMixedRejectsTamperedLookupEvals(t *testing.T) {
	fx := mixedBatchFixtures(t)
	lk := fx[1]
	one := fr.One()
	for _, field := range lk.proof.Evals.lookupEvals() {
		field.Add(field, &one)
		b := NewBatch(fx[0].vk)
		for _, f := range fx {
			if err := b.AddFor(f.vk, f.proof, f.public); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Check(); !errors.Is(err, ErrProofInvalid) {
			t.Fatalf("batch with a forged LogUp opening: %v, want ErrProofInvalid", err)
		}
		if bad, err := b.Bisect(); err != nil || len(bad) != 1 || bad[0] != 1 {
			t.Fatalf("Bisect = %v, %v; want [1]", bad, err)
		}
		field.Sub(field, &one)
	}
}

// TestBatchAddForRejectsForeignSRS pins the safety check: a key from a
// different SRS must not contribute statements, since the batch pairing
// uses the batch key's G2 lines.
func TestBatchAddForRejectsForeignSRS(t *testing.T) {
	fx := mixedBatchFixtures(t)

	tau := fr.NewElement(0xd1ff)
	srs2, err := kzg.NewSRSFromSecret(1<<10, &tau)
	if err != nil {
		t.Fatal(err)
	}
	csC, wC := buildMulAddCircuit()
	pk2, vk2, err := Setup(csC, srs2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Prove(pk2, wC)
	if err != nil {
		t.Fatal(err)
	}

	b := NewBatch(fx[0].vk)
	err = b.AddFor(vk2, p2, wC[:2])
	if err == nil || !strings.Contains(err.Error(), "different SRS") {
		t.Fatalf("foreign-SRS key accepted: %v", err)
	}
}

package plonk

import (
	"errors"
	"fmt"
	"testing"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
)

// proofField names one commitment (pt) or one opening (ev) the verifier
// reads. unused marks a field of a feature the proof's shape lacks: no
// encoding has room for it and nothing binds it. key marks a commitment of
// the verifying key rather than of the proof.
type proofField struct {
	name   string
	pt     *bn254.G1Affine
	ev     *fr.Element
	unused bool
	key    bool
}

// proofFields lists, for a proof p against key vk, every commitment and
// opening p carries, the fields of a feature its shape lacks (unused), and
// one entry per column its linearization folds. Such a column is named after
// the opening proofs carried before the linearization; its entry is the
// commitment the verifier multiplies by the column's scalar — the key's for
// a selector or σ3, the proof's own for z, the LogUp columns and the
// quotient pieces.
func proofFields(p *Proof, vk *VerifyingKey) []proofField {
	ev := &p.Evals
	lookup, custom := p.shape().lookup(), p.shape().custom()
	fs := []proofField{
		{name: "A", pt: &p.A}, {name: "B", pt: &p.B}, {name: "C", pt: &p.C}, {name: "Z", pt: &p.Z},
		{name: "TLo", pt: &p.TLo}, {name: "TMid", pt: &p.TMid}, {name: "THi", pt: &p.THi},
		{name: "WZeta", pt: &p.WZeta}, {name: "WOmega", pt: &p.WZetaOmega},
		{name: "evalA", ev: &ev.A}, {name: "evalB", ev: &ev.B}, {name: "evalC", ev: &ev.C},
		{name: "evalS1", ev: &ev.S1}, {name: "evalS2", ev: &ev.S2}, {name: "zomega", ev: &ev.ZOmega},
		{name: "M commitment", pt: &p.M, unused: !lookup},
		{name: "H commitment", pt: &p.H, unused: !lookup},
		{name: "S commitment", pt: &p.S, unused: !lookup},
	}
	linear := []proofField{
		{name: "evalZ", pt: &p.Z},
		{name: "evalQL", pt: &vk.QL, key: true}, {name: "evalQR", pt: &vk.QR, key: true},
		{name: "evalQO", pt: &vk.QO, key: true}, {name: "evalQM", pt: &vk.QM, key: true},
		{name: "evalQC", pt: &vk.QC, key: true}, {name: "evalS3", pt: &vk.S3, key: true},
		{name: "evalT", pt: &p.TLo}, {name: "evalTMid", pt: &p.TMid}, {name: "evalTHi", pt: &p.THi},
	}
	if ex := ev.Ext; ex != nil {
		fs = append(fs, []proofField{
			{name: "table eval", ev: &ex.Tbl, unused: !lookup},
			{name: "SOmega eval", ev: &ex.SOmega, unused: !lookup},
			{name: "AOmega eval", ev: &ex.AOmega, unused: !custom},
			{name: "BOmega eval", ev: &ex.BOmega, unused: !custom},
			{name: "COmega eval", ev: &ex.COmega, unused: !custom},
			{name: "K0 eval", ev: &ex.K0, unused: !custom},
			{name: "K1 eval", ev: &ex.K1, unused: !custom},
			{name: "K2 eval", ev: &ex.K2, unused: !custom},
		}...)
		linear = append(linear, []proofField{
			{name: "M eval", pt: &p.M, unused: !lookup},
			{name: "H eval", pt: &p.H, unused: !lookup},
			{name: "S eval", pt: &p.S, unused: !lookup},
			{name: "lookup selector eval", pt: &vk.QLk, key: true},
			{name: "QMimc eval", pt: &vk.QMimc, key: true},
			{name: "QPosF eval", pt: &vk.QPosF, key: true},
			{name: "QPosP eval", pt: &vk.QPosP, key: true},
		}...)
	}
	for i := range p.TExtra {
		fs = append(fs, proofField{name: fmt.Sprintf("T%d commitment", 3+i), pt: &p.TExtra[i]})
		linear = append(linear, proofField{name: fmt.Sprintf("T%d eval", 3+i), pt: &p.TExtra[i]})
	}
	return append(fs, linear...)
}

// rejectEveryCorruption proves each named golden shape once, then moves
// each commitment to another curve point and each opening to another
// scalar, one field at a time, and requires both verifier entry points to
// turn the proof away: Verify, and Batch.AddFor followed by Check (the
// constraint identities are checked inside the pairing, so most corruptions
// pass AddFor and fail Check). A field a proof's shape does not carry is set
// in memory instead, and must be refused as ErrProofShape rather than
// ignored. A linearized column's entry corrupts the commitment its scalar
// multiplies; a key commitment is corrupted on a fresh key from Setup.
// Subtests run field first, then every shape whose proofs have the field.
func rejectEveryCorruption(t *testing.T, shapes ...string) {
	type proven struct {
		shape  string
		cs     *ConstraintSystem
		vk     *VerifyingKey
		good   []byte
		public []fr.Element
		key    bool
	}
	var order []string
	byField := map[string][]proven{}
	for _, shape := range shapes {
		cs, witness := goldenCircuit(t, shape)
		pk, vk, err := Setup(cs, testSRSOnce())
		if err != nil {
			t.Fatal(err)
		}
		proof, err := Prove(pk, witness)
		if err != nil {
			t.Fatal(err)
		}
		pr := proven{shape: shape, cs: cs, vk: vk, good: proof.Bytes(), public: witness[:cs.nbPublic]}
		if err := Verify(vk, proof, pr.public); err != nil {
			t.Fatalf("%s: honest proof rejected: %v", shape, err)
		}
		for _, f := range proofFields(proof, vk) {
			if _, seen := byField[f.name]; !seen {
				order = append(order, f.name)
			}
			pr.key = f.key
			byField[f.name] = append(byField[f.name], pr)
		}
	}

	g := bn254.G1Generator()
	one := fr.One()
	for _, name := range order {
		t.Run(name, func(t *testing.T) {
			for _, pr := range byField[name] {
				t.Run(pr.shape, func(t *testing.T) {
					bad, err := ProofFromBytes(pr.good) // a deep copy
					if err != nil {
						t.Fatal(err)
					}
					vk := pr.vk
					if pr.key {
						if _, vk, err = Setup(pr.cs, testSRSOnce()); err != nil {
							t.Fatal(err)
						}
					}
					unused := false
					for _, f := range proofFields(bad, vk) {
						switch {
						case f.name != name:
						case f.pt != nil:
							var j bn254.G1Jac
							j.FromAffine(f.pt)
							j.AddMixed(&g)
							f.pt.FromJacobian(&j)
							unused = f.unused
						default:
							f.ev.Add(f.ev, &one)
							unused = f.unused
						}
					}
					refused := func(err error) bool {
						if unused {
							return errors.Is(err, ErrProofShape)
						}
						return err != nil
					}
					if err := Verify(vk, bad, pr.public); !refused(err) {
						t.Errorf("Verify returned %v for the corrupted proof (unused field: %v)", err, unused)
					}
					b := NewBatch(vk)
					err = b.AddFor(vk, bad, pr.public)
					if err == nil {
						err = b.Check()
					}
					if !refused(err) {
						t.Errorf("Batch.AddFor + Check returned %v for the corrupted proof (unused field: %v)", err, unused)
					}
				})
			}
		})
	}
}

// TestVerifyRejectsEveryCorruption covers the classic proof shape, on a
// power-of-two and on a 3·2^k domain; its unused fields are [M], [H], [S].
func TestVerifyRejectsEveryCorruption(t *testing.T) {
	rejectEveryCorruption(t, "muladd", "power20")
}

// TestExtendedProofTamperRejected covers the three extended shapes — lookup
// only, custom only (mimc, and poseidon on a 3·2^k domain) and both (mixed):
// forged multiplicities, helper columns, running sums, table and next-row
// openings, round constants and extra quotient pieces. A custom-only proof
// carries 12 points and 12 openings; its [M], [H], [S] and two LogUp
// openings are refused as ErrProofShape, as are a lookup-only proof's six
// custom-gate openings.
func TestExtendedProofTamperRejected(t *testing.T) {
	rejectEveryCorruption(t, "lookup", "mimc", "poseidon", "mixed")
}

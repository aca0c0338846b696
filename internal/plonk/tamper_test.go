package plonk

import (
	"fmt"
	"testing"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
)

// proofField names one commitment (pt) or one evaluation (ev) of a proof.
type proofField struct {
	name string
	pt   *bn254.G1Affine
	ev   *fr.Element
}

// proofFields lists every commitment and every evaluation p carries.
func proofFields(p *Proof) []proofField {
	ev := &p.Evals
	fs := []proofField{
		{name: "A", pt: &p.A}, {name: "B", pt: &p.B}, {name: "C", pt: &p.C}, {name: "Z", pt: &p.Z},
		{name: "TLo", pt: &p.TLo}, {name: "TMid", pt: &p.TMid}, {name: "THi", pt: &p.THi},
		{name: "WZeta", pt: &p.WZeta}, {name: "WOmega", pt: &p.WZetaOmega},
		{name: "evalA", ev: &ev.A}, {name: "evalB", ev: &ev.B}, {name: "evalC", ev: &ev.C},
		{name: "evalZ", ev: &ev.Z}, {name: "zomega", ev: &ev.ZOmega},
		{name: "evalQL", ev: &ev.QL}, {name: "evalQR", ev: &ev.QR}, {name: "evalQO", ev: &ev.QO},
		{name: "evalQM", ev: &ev.QM}, {name: "evalQC", ev: &ev.QC},
		{name: "evalS1", ev: &ev.S1}, {name: "evalS2", ev: &ev.S2}, {name: "evalS3", ev: &ev.S3},
		{name: "evalT", ev: &ev.TLo}, {name: "evalTMid", ev: &ev.TMid}, {name: "evalTHi", ev: &ev.THi},
	}
	ex := ev.Ext
	if ex == nil {
		return fs
	}
	fs = append(fs, []proofField{
		{name: "M commitment", pt: &p.M}, {name: "H commitment", pt: &p.H}, {name: "S commitment", pt: &p.S},
		{name: "M eval", ev: &ex.M}, {name: "H eval", ev: &ex.H}, {name: "S eval", ev: &ex.S},
		{name: "SOmega eval", ev: &ex.SOmega}, {name: "AOmega eval", ev: &ex.AOmega},
		{name: "BOmega eval", ev: &ex.BOmega}, {name: "COmega eval", ev: &ex.COmega},
		{name: "lookup selector eval", ev: &ex.QLk}, {name: "table eval", ev: &ex.Tbl},
		{name: "QMimc eval", ev: &ex.QMimc}, {name: "QPosF eval", ev: &ex.QPosF}, {name: "QPosP eval", ev: &ex.QPosP},
		{name: "K0 eval", ev: &ex.K0}, {name: "K1 eval", ev: &ex.K1}, {name: "K2 eval", ev: &ex.K2},
	}...)
	for i := range p.TExtra {
		fs = append(fs,
			proofField{name: fmt.Sprintf("T%d commitment", 3+i), pt: &p.TExtra[i]},
			proofField{name: fmt.Sprintf("T%d eval", 3+i), ev: &ex.TExtra[i]})
	}
	return fs
}

// rejectEveryCorruption proves each named golden shape once, then moves
// each commitment to another curve point and each evaluation to another
// scalar, one field at a time, and requires both verifier entry points to
// turn the proof away: Verify, and Batch.AddFor followed by Check (a
// corruption the quotient identity cannot see — an opening of a selector
// the circuit never switches on, say — only fails at the pairing).
// Subtests run field first, then every shape whose proofs carry the field.
func rejectEveryCorruption(t *testing.T, shapes ...string) {
	type proven struct {
		shape  string
		vk     *VerifyingKey
		good   []byte
		public []fr.Element
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
		pr := proven{shape, vk, proof.Bytes(), witness[:cs.NbPublic()]}
		if err := Verify(vk, proof, pr.public); err != nil {
			t.Fatalf("%s: honest proof rejected: %v", shape, err)
		}
		for _, f := range proofFields(proof) {
			if _, seen := byField[f.name]; !seen {
				order = append(order, f.name)
			}
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
					for _, f := range proofFields(bad) {
						switch {
						case f.name != name:
						case f.pt != nil:
							var j bn254.G1Jac
							j.FromAffine(f.pt)
							j.AddMixed(&g)
							f.pt.FromJacobian(&j)
						default:
							f.ev.Add(f.ev, &one)
						}
					}
					if err := Verify(pr.vk, bad, pr.public); err == nil {
						t.Error("Verify accepted the corrupted proof")
					}
					b := NewBatch(pr.vk)
					err = b.AddFor(pr.vk, bad, pr.public)
					if err == nil {
						err = b.Check()
					}
					if err == nil {
						t.Error("Batch.AddFor + Check accepted the corrupted proof")
					}
				})
			}
		})
	}
}

// TestVerifyRejectsEveryCorruption covers the classic proof shape, on a
// power-of-two and on a 3·2^k domain.
func TestVerifyRejectsEveryCorruption(t *testing.T) {
	rejectEveryCorruption(t, "muladd", "power20")
}

// TestExtendedProofTamperRejected covers the four extended shapes (poseidon
// is the custom-gate key on a 3·2^k domain): forged
// multiplicities, helper columns, running sums, next-row wires, selector
// and round-constant openings and extra quotient pieces.
func TestExtendedProofTamperRejected(t *testing.T) {
	rejectEveryCorruption(t, "lookup", "mimc", "poseidon", "mixed")
}

package plonk

import (
	"errors"
	"fmt"
	"testing"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
)

// proofField names one commitment (pt) or one evaluation (ev) of a proof.
// unused marks a LogUp field of a proof without lookups: its shape does not
// carry it, so no encoding has room for it and nothing binds it.
type proofField struct {
	name   string
	pt     *bn254.G1Affine
	ev     *fr.Element
	unused bool
}

// logUpFields lists [M], [H], [S] and, on an extended proof, the six LogUp
// openings.
func logUpFields(p *Proof, unused bool) []proofField {
	fs := []proofField{
		{name: "M commitment", pt: &p.M}, {name: "H commitment", pt: &p.H}, {name: "S commitment", pt: &p.S},
	}
	if ex := p.Evals.Ext; ex != nil {
		fs = append(fs, []proofField{
			{name: "M eval", ev: &ex.M}, {name: "H eval", ev: &ex.H}, {name: "S eval", ev: &ex.S},
			{name: "SOmega eval", ev: &ex.SOmega},
			{name: "lookup selector eval", ev: &ex.QLk}, {name: "table eval", ev: &ex.Tbl},
		}...)
	}
	for i := range fs {
		fs[i].unused = unused
	}
	return fs
}

// proofFields lists every commitment and every evaluation p carries and, on
// a proof without lookups, the LogUp fields it does not (marked unused).
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
	fs = append(fs, logUpFields(p, !p.Lookup)...)
	ex := ev.Ext
	if ex == nil {
		return fs
	}
	fs = append(fs, []proofField{
		{name: "AOmega eval", ev: &ex.AOmega}, {name: "BOmega eval", ev: &ex.BOmega}, {name: "COmega eval", ev: &ex.COmega},
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
// the circuit never switches on, say — only fails at the pairing). A LogUp
// field that a proof without lookups does not carry is set in memory instead,
// and must be refused as ErrProofShape rather than ignored. Subtests run
// field first, then every shape whose proofs have the field.
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
					unused := false
					for _, f := range proofFields(bad) {
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
					if err := Verify(pr.vk, bad, pr.public); !refused(err) {
						t.Errorf("Verify returned %v for the corrupted proof (unused field: %v)", err, unused)
					}
					b := NewBatch(pr.vk)
					err = b.AddFor(pr.vk, bad, pr.public)
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
// forged multiplicities, helper columns, running sums, next-row wires,
// selector and round-constant openings and extra quotient pieces. A
// custom-only proof carries 12 points and 28 evaluations; its nine unused
// LogUp fields are refused as ErrProofShape.
func TestExtendedProofTamperRejected(t *testing.T) {
	rejectEveryCorruption(t, "lookup", "mimc", "poseidon", "mixed")
}

// TestLookupProofCustomOpeningsBound turns the argument that lets a
// lookup-only key skip C6–C13 into a test. Its custom-gate selectors and
// round constants commit to zero polynomials, so those identities were zero
// at every point; skipping them leaves the QMimc, QPosF and K0 openings out
// of the quotient identity, but the batched opening still binds them to the
// committed zeros. Each tampered proof passes prepare's identity and is
// refused at the pairing: the accept set did not move.
func TestLookupProofCustomOpeningsBound(t *testing.T) {
	cs, witness := goldenCircuit(t, "lookup")
	pk, vk, err := Setup(cs, testSRSOnce())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(pk, witness)
	if err != nil {
		t.Fatal(err)
	}
	public := witness[:cs.NbPublic()]
	good := proof.Bytes()
	one := fr.One()
	for _, tc := range []struct {
		name  string
		field func(*ExtEvals) *fr.Element
	}{
		{"QMimc", func(x *ExtEvals) *fr.Element { return &x.QMimc }},
		{"QPosF", func(x *ExtEvals) *fr.Element { return &x.QPosF }},
		{"K0", func(x *ExtEvals) *fr.Element { return &x.K0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad, err := ProofFromBytes(good)
			if err != nil {
				t.Fatal(err)
			}
			f := tc.field(bad.Evals.Ext)
			f.Add(f, &one)
			if _, err := prepare(vk, bad, public); err != nil {
				t.Fatalf("prepare: %v; a lookup-only key's quotient identity should not read this opening", err)
			}
			if err := Verify(vk, bad, public); !errors.Is(err, ErrProofInvalid) {
				t.Fatalf("Verify: %v, want ErrProofInvalid from the pairing", err)
			}
		})
	}
}

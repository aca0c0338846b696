package plonk

import (
	"errors"
	"testing"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/transcript"
)

// proofField names one commitment (pt) or one opening (ev) the verifier
// reads. unused marks a field of a feature the proof's shape lacks: no
// encoding has room for it and nothing binds it. key marks a commitment of
// the verifying key rather than of the proof; unread marks a key column the
// key's shape does not commit, which nothing absorbs or reads. The
// corruption moves pt by G1 and ev by one, or by byPt or byEv when set.
type proofField struct {
	name   string
	pt     *bn254.G1Affine
	ev     *fr.Element
	byPt   bn254.G1Affine
	byEv   fr.Element
	unused bool
	key    bool
	unread bool
}

// proofFields lists, for a proof p of public inputs public against key vk,
// every commitment and opening p carries, the fields of a feature its shape
// lacks (unused), and one entry per column its linearization folds. Such a
// column is named after the opening proofs carried before the
// linearization; its entry is the commitment the verifier multiplies by the
// column's scalar — the key's for a selector, σ3 or a round-constant column
// K0–K2, the proof's own for z, the LogUp columns and the quotient pieces.
//
// The quotient's n-coefficient ranges keep the names of the pieces that
// held them when each was a commitment of its own — TLo, TMid and THi (and,
// linearized, evalT, evalTMid and evalTHi), then T3–T5: each is corrupted
// by adding [τ^k]G1 to the 3n-coefficient piece that now holds it, k the
// range's first coefficient there. Likewise the next-row wires keep their
// names: a lie about lane a, b or c at ζω moves Y by that lane's weight α^6,
// α^7 or α^8.
func proofFields(p *Proof, vk *VerifyingKey, public []fr.Element) []proofField {
	ev := &p.Evals
	lookup := p.Lookup
	g := bn254.G1Generator()
	n := int(vk.N)
	srs := testSRSOnce()
	piece := func(name string, i, k int) proofField {
		return proofField{name: name, pt: &p.T[i], byPt: srs.G1[k]}
	}
	fs := []proofField{
		{name: "A", pt: &p.A}, {name: "B", pt: &p.B}, {name: "C", pt: &p.C}, {name: "Z", pt: &p.Z},
		piece("TLo", 0, 0), piece("TMid", 0, n), piece("THi", 0, 2*n),
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
		piece("evalT", 0, 0), piece("evalTMid", 0, n), piece("evalTHi", 0, 2*n),
	}
	// The lane weights are α^6…α^8 of p's own transcript; Y enters it only
	// after α.
	tr := transcript.New("zkdet/plonk")
	bindTranscript(tr, vk, public)
	ch := p.absorbRound1(tr)
	ch.mds = vk.MDS
	p.absorbRound2(tr, ch)
	fs = append(fs, []proofField{
		{name: "table eval", ev: &ev.Tbl, unused: !lookup},
		{name: "SOmega eval", ev: &ev.SOmega, unused: !lookup},
		{name: "Y eval", ev: &ev.Y},
		{name: "AOmega eval", ev: &ev.Y, byEv: ch.alphaPow[6]},
		{name: "BOmega eval", ev: &ev.Y, byEv: ch.alphaPow[7]},
		{name: "COmega eval", ev: &ev.Y, byEv: ch.alphaPow[8]},
		piece("T3 commitment", 1, 0), piece("T4 commitment", 1, n), piece("T5 commitment", 1, 2*n),
	}...)
	linear = append(linear, []proofField{
		{name: "M eval", pt: &p.M, unused: !lookup},
		{name: "H eval", pt: &p.H, unused: !lookup},
		{name: "S eval", pt: &p.S, unused: !lookup},
		{name: "lookup selector eval", pt: &vk.QLk, key: true, unread: !vk.Lookup},
		{name: "QPosF eval", pt: &vk.QPosF, key: true},
		{name: "QPosP eval", pt: &vk.QPosP, key: true},
		{name: "K0 eval", pt: &vk.KC0, key: true},
		{name: "K1 eval", pt: &vk.KC1, key: true},
		{name: "K2 eval", pt: &vk.KC2, key: true},
		piece("T3 eval", 1, 0), piece("T4 eval", 1, n), piece("T5 eval", 1, 2*n),
	}...)
	for i := range fs {
		if fs[i].pt != nil && fs[i].byPt.IsInfinity() {
			fs[i].byPt = g
		}
		if fs[i].ev != nil && fs[i].byEv.IsZero() {
			fs[i].byEv = fr.One()
		}
	}
	for i := range linear {
		if linear[i].byPt.IsInfinity() {
			linear[i].byPt = g
		}
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
// multiplies; a key commitment is corrupted on a fresh key from Setup. A key
// column the shape does not commit is corrupted too and must change nothing:
// the honest proof still verifies.
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
		for _, f := range proofFields(proof, vk, pr.public) {
			if _, seen := byField[f.name]; !seen {
				order = append(order, f.name)
			}
			pr.key = f.key
			byField[f.name] = append(byField[f.name], pr)
		}
	}

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
					unused, unread := false, false
					for _, f := range proofFields(bad, vk, pr.public) {
						switch {
						case f.name != name:
						case f.pt != nil:
							var j bn254.G1Jac
							j.FromAffine(f.pt)
							j.AddMixed(&f.byPt)
							f.pt.FromJacobian(&j)
							unused, unread = f.unused, f.unread
						default:
							f.ev.Add(f.ev, &f.byEv)
							unused = f.unused
						}
					}
					refused := func(err error) bool {
						switch {
						case unread:
							return err == nil
						case unused:
							return errors.Is(err, ErrProofShape)
						}
						return err != nil
					}
					if err := Verify(vk, bad, pr.public); !refused(err) {
						t.Errorf("Verify returned %v for the corrupted proof (unused field: %v, unread key column: %v)", err, unused, unread)
					}
					b := NewBatch(vk)
					err = b.AddFor(vk, bad, pr.public)
					if err == nil {
						err = b.Check()
					}
					if !refused(err) {
						t.Errorf("Batch.AddFor + Check returned %v for the corrupted proof (unused field: %v, unread key column: %v)", err, unused, unread)
					}
				})
			}
		})
	}
}

// TestVerifyRejectsEveryCorruption covers circuits without Poseidon rows,
// which were on the classic shape until it was deleted and now prove on the
// custom one, on a power-of-two and on a 3·2^k domain: both quotient pieces
// in every range they hold, Y and each lane inside it, and the zero Poseidon
// columns, which the key commits and the transcript binds; the unused
// fields are [M], [H], [S] and the two LogUp openings.
func TestVerifyRejectsEveryCorruption(t *testing.T) {
	rejectEveryCorruption(t, "muladd", "power20")
}

// TestExtendedProofTamperRejected covers the two extended shapes — custom
// only (the Poseidon round chains mimc, on a power-of-two domain, and
// poseidon, on a 3·2^k one) and lookup + custom (lookup, on its table's
// 256-row domain, and mixed): forged multiplicities, helper columns, running
// sums, the table opening, Y and each lane inside it, the linearized round
// constants and both quotient pieces in every range they hold. A
// custom-only proof carries 8 points and 7 openings; its [M], [H], [S] and
// two LogUp openings are refused as ErrProofShape.
func TestExtendedProofTamperRejected(t *testing.T) {
	rejectEveryCorruption(t, "lookup", "mimc", "poseidon", "mixed")
}

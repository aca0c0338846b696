package plonk

import (
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// randomPoint fills every field of a pointVals with a random scalar.
func randomPoint() pointVals {
	var p pointVals
	for _, e := range []*fr.Element{
		&p.x, &p.a, &p.b, &p.c, &p.z, &p.zw, &p.ql, &p.qr, &p.qo, &p.qm, &p.qc, &p.pi,
		&p.s1, &p.s2, &p.s3, &p.l1, &p.y, &p.m, &p.h, &p.s, &p.sw,
		&p.qlk, &p.tbl, &p.qposf, &p.qposp, &p.k0, &p.k1c, &p.k2c,
	} {
		*e = fr.MustRandom()
	}
	return p
}

// randomChallenges draws every challenge and key constant at random.
func randomChallenges() *challenges {
	ch := &challenges{
		beta: fr.MustRandom(), gamma: fr.MustRandom(), betaL: fr.MustRandom(),
		k1: fr.MustRandom(), k2: fr.MustRandom(),
	}
	for l := range ch.mds {
		for j := range ch.mds[l] {
			ch.mds[l][j] = fr.MustRandom()
		}
	}
	alpha := fr.MustRandom()
	ch.setAlpha(&alpha)
	return ch
}

// TestLinearizationIsAffine: for each shape, at random point values and
// challenges, quotientNumerator equals linearize's constant term plus
// Σ scalar·value over the linear columns — the two round selectors and the
// round-constant columns K0–K2 among them.
// linearize reads each scalar off one unit vector, so this holds at random
// values only if the numerator is jointly affine in those columns — no
// product of two of them — which is what lets a proof fold them into one
// commitment instead of opening them.
func TestLinearizationIsAffine(t *testing.T) {
	for _, sh := range []shape{shapeCustom, shapeLookup | shapeCustom} {
		for trial := 0; trial < 20; trial++ {
			p, ch := randomPoint(), randomChallenges()
			c0, scalars := linearize(p, ch, sh)
			cols := p.linearColumns(sh)
			if len(scalars) != len(cols) {
				t.Fatalf("shape %#02x: %d scalars for %d linear columns", byte(sh), len(scalars), len(cols))
			}
			if tail := cols[len(cols)-3:]; tail[0] != &p.k0 || tail[1] != &p.k1c || tail[2] != &p.k2c {
				t.Fatalf("shape %#02x: the round-constant columns are not the last linear columns", byte(sh))
			}
			want := quotientNumerator(&p, ch, sh)
			got := c0
			for j, c := range cols {
				var term fr.Element
				term.Mul(&scalars[j], c)
				got.Add(&got, &term)
			}
			if !got.Equal(&want) {
				t.Fatalf("shape %#02x, trial %d: c0 + Σ s_j·col_j differs from the numerator", byte(sh), trial)
			}
		}
	}
}

// TestOpeningMSMWidth counts the points of the verifier's one MSM per shape.
// A custom key's 22 — 12 linearized columns (the five selectors, σ3, z, the
// two Poseidon round selectors and [K0]–[K2]), 2 quotient pieces, 5 ζ
// openings, W_ζ, W_ζω and G1, with [z] shared by the linearization and the
// ζω opening and Y's commitment the wires', which the MSM already holds —
// are four more than the paper's 18 exponentiations, which
// contracts.VerificationGas still charges. A circuit without Poseidon rows
// (muladd) pays the same 22: its round columns are zero commitments, still
// in the MSM. A lookup + custom key adds [M], [H], [S], [q_Lk] and [T] (27).
func TestOpeningMSMWidth(t *testing.T) {
	for name, want := range map[string]int{
		"muladd": 22, "mimc": 22, "poseidon": 22, "lookup": 27, "mixed": 27,
	} {
		cs, witness := goldenCircuit(t, name)
		pk, vk, err := Setup(cs, testSRSOnce())
		if err != nil {
			t.Fatal(err)
		}
		proof, err := Prove(pk, witness)
		if err != nil {
			t.Fatal(err)
		}
		o, err := openingMSM(vk, proof, witness[:cs.nbPublic])
		if err != nil {
			t.Fatal(err)
		}
		// The proof's points, the key's columns and the generator.
		if got := len(o.pts) + len(o.key) + 1; got != want {
			t.Errorf("%s: the verifier's MSM has %d points, want %d", name, got, want)
		}
	}
}

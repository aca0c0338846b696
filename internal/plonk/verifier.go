package plonk

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/transcript"
)

// lagrangePrefix evaluates L_0(ζ) … L_{len(omega)-1}(ζ) with one batched
// inversion: L_i(ζ) = ω^i · Z_H(ζ) / (N · (ζ - ω^i)).
func lagrangePrefix(omega []fr.Element, n uint64, zeta, zh *fr.Element) []fr.Element {
	dens := make([]fr.Element, len(omega))
	nEl := fr.NewElement(n)
	for i := range omega {
		dens[i].Sub(zeta, &omega[i])
		dens[i].Mul(&dens[i], &nEl)
	}
	fr.BatchInvert(dens)
	out := make([]fr.Element, len(omega))
	for i := range omega {
		out[i].Mul(zh, &omega[i])
		out[i].Mul(&out[i], &dens[i])
	}
	return out
}

// opening is one proof's deferred pairing statement
//
//	e(L, G2) · e(−(Wζ + u·Wζω), τG2) == 1
//
// kept as the terms of L's MSM rather than as the point: one scalar per key
// column, the proof's own points with theirs, and the generator's. Batch
// weights many openings into one MSM for L and one for W, in which each
// key's columns and the generator enter once. A commitment that enters more
// than once — [z] is linearized and opened at ζω, [S] likewise on a lookup
// key, the wires are opened at ζ and inside Y at ζω — is one term whose
// scalars add.
type opening struct {
	vk   *VerifyingKey
	cols []*kzg.Commitment // vk.columns()
	key  []fr.Element      // one scalar per cols entry
	pts  []*kzg.Commitment // the proof's points, each once
	scs  []fr.Element      // their scalars
	g1   fr.Element        // the generator's scalar, −E's
	// Wζ, Wζω and u, the last challenge of the proof's transcript, which
	// binds everything above.
	wZeta, wZetaOmega bn254.G1Affine
	u                 fr.Element
}

func (o *opening) add(pt *kzg.Commitment, s *fr.Element) {
	for j, c := range o.cols {
		if c == pt {
			o.key[j].Add(&o.key[j], s)
			return
		}
	}
	for i, q := range o.pts {
		if q == pt {
			o.scs[i].Add(&o.scs[i], s)
			return
		}
	}
	o.pts = append(o.pts, pt)
	o.scs = append(o.scs, *s)
}

// openingMSM checks the proof's shape against the key, replays the
// transcript and returns the terms of the pairing statement's left-hand
// point together with the challenge u:
//
//	e(F + ζ·Wζ + u·(Fω + ζω·Wζω) − E, G2) · e(−(Wζ + u·Wζω), τG2) == 1
//
// F folds the linearization commitment
//
//	[r] = Σ_j s_j·[col_j] − Z_H(ζ)·Σ_p ζ^{3n·p}·[t_p]
//
// (s_j from linearize, opened to −c0: Σ_j s_j·col_j(ζ) = numerator(ζ) − c0
// and Z_H(ζ)·t(ζ) = numerator(ζ)) with the ζ openings at v, v², …; Fω folds
// the ζω openings at 1, v, …, Y's commitment being Σ_l α^{6+l}·[w_l], built
// from the wire commitments the proof already carries; E = (valζ +
// u·valω)·G1. A custom proof's terms are 22 points, a lookup + custom one's
// 27 (TestOpeningMSMWidth). It runs no group operation, and it takes a
// statement checkStatement passed, on a key whose domain is legal. The
// opening points into proof: it is read until the batch's Check returns.
func openingMSM(vk *VerifyingKey, proof *Proof, public []fr.Element) (opening, error) {
	sh := vk.shape()
	// Reconstruct the challenges.
	tr := transcript.New("zkdet/plonk")
	bindTranscript(tr, vk, public)
	ch := proof.absorbRound1(tr)
	ch.k1, ch.k2, ch.mds = vk.K1, vk.K2, vk.MDS
	proof.absorbRound2(tr, ch)
	zeta := proof.absorbRound3(tr)
	v := proof.absorbRound4(tr)
	tr.AppendPoint("w_zeta", &proof.WZeta)
	tr.AppendPoint("w_zeta_omega", &proof.WZetaOmega)
	u := tr.ChallengeScalar("u")

	domain, lagOmega, _, err := vk.verifierCache()
	if err != nil {
		return opening{}, err
	}

	// Z_H(ζ), then L_0(ζ) … L_{ℓ-1}(ζ) in one batched inversion.
	one := fr.One()
	var zetaN fr.Element
	zetaN.ExpUint64(&zeta, vk.N)
	var zh fr.Element
	zh.Sub(&zetaN, &one)
	if zh.IsZero() {
		// ζ landed inside the domain (probability ~ N/r): reject rather
		// than divide by zero.
		return opening{}, ErrProofInvalid
	}
	lag := lagrangePrefix(lagOmega, vk.N, &zeta, &zh)
	var pi fr.Element
	for i := range public {
		var t fr.Element
		t.Mul(&lag[i], &public[i])
		pi.Sub(&pi, &t)
	}

	// [r], in pointVals.linearColumns order, then the quotient pieces.
	c0, scalars := linearize(proof.zetaPoint(&zeta, &lag[0], &pi), ch, sh)
	linear := []*kzg.Commitment{&vk.QL, &vk.QR, &vk.QO, &vk.QM, &vk.QC, &vk.S3, &proof.Z}
	if vk.Lookup {
		linear = append(linear, &proof.M, &proof.H, &proof.S, &vk.QLk)
	}
	linear = append(linear, &vk.QPosF, &vk.QPosP, &vk.KC0, &vk.KC1, &vk.KC2)
	// The openings, in Proof.openings order: at ζ after [r] with v, v², …,
	// at ζω with 1, v, … inside the u-weighted term; Y, the last, has the
	// wires' commitments under the lane weights.
	openZeta := []*kzg.Commitment{&proof.A, &proof.B, &proof.C, &vk.S1, &vk.S2}
	openOmega := []*kzg.Commitment{&proof.Z}
	if vk.Lookup {
		openZeta = append(openZeta, &vk.Tbl)
		openOmega = append(openOmega, &proof.S)
	}

	cols := vk.columns()
	nb := len(linear) + len(proof.T) + len(openZeta) + len(openOmega) + 2 - len(cols)
	o := opening{
		vk: vk, cols: cols, key: make([]fr.Element, len(cols)),
		pts: make([]*kzg.Commitment, 0, nb), scs: make([]fr.Element, 0, nb),
		wZeta: proof.WZeta, wZetaOmega: proof.WZetaOmega, u: u,
	}
	for j := range linear {
		o.add(linear[j], &scalars[j])
	}
	var w, zeta3N fr.Element
	w.Neg(&zh)
	zeta3N.ExpUint64(&zetaN, 3)
	for i := range proof.T {
		o.add(&proof.T[i], &w)
		w.Mul(&w, &zeta3N)
	}
	atZeta, atOmega := proof.openings()
	vPowers := fr.Powers(&v, len(openZeta)+1)
	var valZeta, valOmega, t fr.Element
	valZeta.Neg(&c0)
	for i, c := range openZeta {
		o.add(c, &vPowers[i+1])
		t.Mul(atZeta[i], &vPowers[i+1])
		valZeta.Add(&valZeta, &t)
	}
	for i, c := range openOmega {
		t.Mul(&u, &vPowers[i])
		o.add(c, &t)
		t.Mul(atOmega[i], &vPowers[i])
		valOmega.Add(&valOmega, &t)
	}
	k := len(openOmega)
	var uv fr.Element
	uv.Mul(&u, &vPowers[k])
	for l, c := range []*kzg.Commitment{&proof.A, &proof.B, &proof.C} {
		t.Mul(&uv, &ch.alphaPow[6+l])
		o.add(c, &t)
	}
	t.Mul(atOmega[k], &vPowers[k])
	valOmega.Add(&valOmega, &t)

	// ζ·Wζ, u·ζω·Wζω and −E.
	o.add(&proof.WZeta, &zeta)
	var zetaOmega fr.Element
	zetaOmega.Mul(&zeta, &domain.Gen)
	t.Mul(&u, &zetaOmega)
	o.add(&proof.WZetaOmega, &t)
	o.g1.Mul(&u, &valOmega)
	o.g1.Add(&o.g1, &valZeta)
	o.g1.Neg(&o.g1)
	return o, nil
}

// checkStatement refuses a public-input count other than the key's
// (ErrWrongPublic) and a proof whose fields or quotient pieces are not
// what the key's lookup bit fixes (ErrProofShape).
func checkStatement(vk *VerifyingKey, proof *Proof, public []fr.Element) error {
	if len(public) != vk.NbPublic {
		return fmt.Errorf("%w: got %d, want %d", ErrWrongPublic, len(public), vk.NbPublic)
	}
	sh := vk.shape()
	if got := proof.shape(); got != sh {
		return fmt.Errorf("%w: proof shape %#02x, key shape %#02x", ErrProofShape, byte(got), byte(sh))
	}
	if len(proof.T) != quotientPieces {
		return fmt.Errorf("%w: %d quotient pieces, want %d", ErrProofShape, len(proof.T), quotientPieces)
	}
	if proof.strayFields(sh) {
		return fmt.Errorf("%w: fields set that a %#02x proof does not carry", ErrProofShape, byte(sh))
	}
	return nil
}

// CheckDomain reports whether proofs can be checked against vk at all: it
// returns an error wrapping ErrDomainSize when vk.N is not a supported
// evaluation-domain size, and otherwise builds the verifier's caches.
func (vk *VerifyingKey) CheckDomain() error {
	_, _, _, err := vk.verifierCache()
	return err
}

// Verify checks a proof against the verifying key and public inputs: it is
// the Batch fold of one. Its cost is one two-pair pairing check (against
// precomputed G2 line tables cached on the verifying key), the 22- or
// 27-point MSM of the left-hand point and u·Wζω — independent of the
// circuit size except for the O(ℓ) public-input Lagrange terms, which share
// a single batched inversion.
func Verify(vk *VerifyingKey, proof *Proof, public []fr.Element) error {
	b := NewBatch(vk)
	if err := b.Add(proof, public); err != nil {
		return err
	}
	return b.Check()
}

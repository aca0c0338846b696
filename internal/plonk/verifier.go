package plonk

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/transcript"
)

// pairingTerms is the deferred pairing statement of one verified proof:
// the proof is valid iff e(L, G2[0]) · e(-W, [τ]G2) == 1. prepare derives
// the terms; Verify checks one statement, Batch folds many into a single
// multi-pairing.
type pairingTerms struct {
	L bn254.G1Affine
	W bn254.G1Affine
}

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

// msmTerms is the verifier's one MSM, built term by term. A commitment that
// enters more than once — [z] is linearized and opened at ζω, [S] likewise
// on a lookup key, the wires are opened at ζ and, on a custom-gate key, at
// ζω — is one point whose scalars add.
type msmTerms struct {
	pts []*kzg.Commitment
	scs []fr.Element
}

func (m *msmTerms) add(pt *kzg.Commitment, s *fr.Element) {
	for i, q := range m.pts {
		if q == pt {
			m.scs[i].Add(&m.scs[i], s)
			return
		}
	}
	m.pts = append(m.pts, pt)
	m.scs = append(m.scs, *s)
}

// prepare replays the transcript and reduces the proof to a single pairing
// statement: the two KZG opening checks, combined with u, whose left-hand
// point is one MSM (openingMSM). It is everything Verify does except the
// pairing itself, so batch verification can run it per proof and fold the
// statements. prepare refuses a proof of the wrong shape or public-input
// count; every other false proof is refused by the pairing, since the
// constraint identities are checked there, through the linearization.
func prepare(vk *VerifyingKey, proof *Proof, public []fr.Element) (pairingTerms, error) {
	m, u, err := openingMSM(vk, proof, public)
	if err != nil {
		return pairingTerms{}, err
	}
	pts := make([]bn254.G1Affine, len(m.pts))
	for i, p := range m.pts {
		pts[i] = *p
	}
	var terms pairingTerms
	if terms.L, err = bn254.G1MSM(pts, m.scs); err != nil {
		return pairingTerms{}, fmt.Errorf("plonk: %w", err)
	}
	var wJ, tj bn254.G1Jac
	wJ.FromAffine(&proof.WZeta)
	tj.ScalarMul(&proof.WZetaOmega, &u)
	wJ.AddAssign(&tj)
	terms.W.FromJacobian(&wJ)
	return terms, nil
}

// openingMSM checks the proof's shape against the key, replays the
// transcript and returns the MSM of the pairing statement's left-hand point
// together with the challenge u:
//
//	e(F + ζ·Wζ + u·(Fω + ζω·Wζω) − E, G2) · e(−(Wζ + u·Wζω), τG2) == 1
//
// F folds the linearization commitment
//
//	[r] = Σ_j s_j·[col_j] − Z_H(ζ)·Σ_p ζ^{p·n}·[t_p]
//
// (s_j from linearize, opened to −c0: Σ_j s_j·col_j(ζ) = numerator(ζ) − c0
// and Z_H(ζ)·t(ζ) = numerator(ζ)) with the ζ openings at v, v², …; Fω folds
// the ζω openings at 1, v, …; E = (valζ + u·valω)·G1. A classic key's MSM
// has 18 points, a custom one 26, a lookup + custom one 31
// (TestOpeningMSMWidth). The key's shape fixes what the proof must carry; a proof carrying any other set of
// fields is refused with ErrProofShape.
func openingMSM(vk *VerifyingKey, proof *Proof, public []fr.Element) (*msmTerms, fr.Element, error) {
	var u fr.Element
	if len(public) != vk.NbPublic {
		return nil, u, fmt.Errorf("%w: got %d, want %d", ErrWrongPublic, len(public), vk.NbPublic)
	}
	sh := vk.shape()
	if got, ext := proof.shape(), proof.Evals.Ext != nil; got != sh || ext != (sh != 0) {
		return nil, u, fmt.Errorf("%w: proof shape %#02x (extended=%v), key shape %#02x",
			ErrProofShape, byte(got), ext, byte(sh))
	}
	nbExtra := 0
	if vk.Custom {
		nbExtra = 3
	}
	if len(proof.TExtra) != nbExtra {
		return nil, u, fmt.Errorf("%w: %d extra quotient pieces, want %d",
			ErrProofShape, len(proof.TExtra), nbExtra)
	}
	if proof.strayFields(sh) {
		return nil, u, fmt.Errorf("%w: fields set that a %#02x proof does not carry", ErrProofShape, byte(sh))
	}

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
	u = tr.ChallengeScalar("u")

	domain, lagOmega, _, err := vk.verifierCache()
	if err != nil {
		return nil, u, err
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
		return nil, u, ErrProofInvalid
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
	if vk.Custom {
		linear = append(linear, &vk.QPosF, &vk.QPosP)
	}
	m := &msmTerms{}
	for j := range linear {
		m.add(linear[j], &scalars[j])
	}
	pieces := []*kzg.Commitment{&proof.TLo, &proof.TMid, &proof.THi}
	for i := range proof.TExtra {
		pieces = append(pieces, &proof.TExtra[i])
	}
	var w fr.Element
	w.Neg(&zh)
	for _, t := range pieces {
		m.add(t, &w)
		w.Mul(&w, &zetaN)
	}

	// The openings, in Proof.openings order: at ζ after [r] with v, v², …,
	// at ζω with 1, v, … inside the u-weighted term.
	openZeta := []*kzg.Commitment{&proof.A, &proof.B, &proof.C, &vk.S1, &vk.S2}
	openOmega := []*kzg.Commitment{&proof.Z}
	if vk.Lookup {
		openZeta = append(openZeta, &vk.Tbl)
		openOmega = append(openOmega, &proof.S)
	}
	if vk.Custom {
		openZeta = append(openZeta, &vk.KC0, &vk.KC1, &vk.KC2)
		openOmega = append(openOmega, &proof.A, &proof.B, &proof.C)
	}
	atZeta, atOmega := proof.openings()
	vPowers := fr.Powers(&v, len(openZeta)+1)
	var valZeta, valOmega, t fr.Element
	valZeta.Neg(&c0)
	for i, c := range openZeta {
		m.add(c, &vPowers[i+1])
		t.Mul(atZeta[i], &vPowers[i+1])
		valZeta.Add(&valZeta, &t)
	}
	for i, c := range openOmega {
		t.Mul(&u, &vPowers[i])
		m.add(c, &t)
		t.Mul(atOmega[i], &vPowers[i])
		valOmega.Add(&valOmega, &t)
	}

	// ζ·Wζ, u·ζω·Wζω and −E.
	m.add(&proof.WZeta, &zeta)
	var zetaOmega fr.Element
	zetaOmega.Mul(&zeta, &domain.Gen)
	t.Mul(&u, &zetaOmega)
	m.add(&proof.WZetaOmega, &t)
	g1 := bn254.G1Generator()
	t.Mul(&u, &valOmega)
	t.Add(&t, &valZeta)
	t.Neg(&t)
	m.add(&g1, &t)
	return m, u, nil
}

// Verify checks a proof against the verifying key and public inputs. Its
// cost is one two-pair pairing check (against precomputed G2 line tables
// cached on the verifying key) plus a handful of scalar multiplications —
// independent of the circuit size except for the O(ℓ) public-input
// Lagrange terms, which share a single batched inversion.
func Verify(vk *VerifyingKey, proof *Proof, public []fr.Element) error {
	terms, err := prepare(vk, proof, public)
	if err != nil {
		return err
	}
	_, _, lines, err := vk.verifierCache()
	if err != nil {
		return err
	}
	var negW bn254.G1Affine
	negW.Neg(&terms.W)
	ok, err := bn254.PairingCheckPrecomp(
		[]bn254.G1Affine{terms.L, negW},
		lines[:],
	)
	if err != nil {
		return fmt.Errorf("plonk: %w", err)
	}
	if !ok {
		return fmt.Errorf("%w: pairing check", ErrProofInvalid)
	}
	return nil
}

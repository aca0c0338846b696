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

// foldScalars returns ∑ vals[i]·coeffs[i]; coeffs may be longer than vals.
func foldScalars(vals, coeffs []fr.Element) fr.Element {
	var acc, t fr.Element
	for i := range vals {
		t.Mul(&vals[i], &coeffs[i])
		acc.Add(&acc, &t)
	}
	return acc
}

// prepare replays the transcript, checks the quotient identity at ζ — the
// same quotientNumerator the prover ran on the coset — and reduces the two
// KZG opening checks to a single pairing statement. It is everything Verify
// does except the pairing itself, so batch verification can run it per
// proof and fold the statements. The key's shape fixes which columns the
// proof must open: an extended key adds the custom-gate selectors and
// round constants at ζ and (a, b, c) at ζω, a lookup key the LogUp columns,
// lookup selector and table at ζ and S at ζω, a custom-gate key three more
// quotient pieces. A proof carrying any other set is refused with
// ErrProofShape, and so is one whose unused LogUp fields are set: no
// transcript absorb or opening would bind them.
func prepare(vk *VerifyingKey, proof *Proof, public []fr.Element) (pairingTerms, error) {
	if len(public) != vk.NbPublic {
		return pairingTerms{}, fmt.Errorf("%w: got %d, want %d", ErrWrongPublic, len(public), vk.NbPublic)
	}
	ev := &proof.Evals
	ex := ev.Ext
	sh := vk.shape()
	if got := proof.shape(); got != sh || (ex != nil) != (sh != 0) {
		return pairingTerms{}, fmt.Errorf("%w: proof shape %#02x (extended=%v), key shape %#02x",
			ErrProofShape, byte(got), ex != nil, byte(sh))
	}
	nbExtra := 0
	if vk.Custom {
		nbExtra = 3
	}
	if len(proof.TExtra) != nbExtra || (ex != nil && len(ex.TExtra) != nbExtra) {
		return pairingTerms{}, fmt.Errorf("%w: %d extra quotient pieces, want %d",
			ErrProofShape, len(proof.TExtra), nbExtra)
	}
	if !vk.Lookup && !proof.logUpUnset() {
		return pairingTerms{}, fmt.Errorf("%w: LogUp commitments or openings set for a key without lookups",
			ErrProofShape)
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
	u := tr.ChallengeScalar("u")

	domain, lagOmega, _, err := vk.verifierCache()
	if err != nil {
		return pairingTerms{}, err
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
		return pairingTerms{}, ErrProofInvalid
	}
	lag := lagrangePrefix(lagOmega, vk.N, &zeta, &zh)
	var pi fr.Element
	for i := range public {
		var t fr.Element
		t.Mul(&lag[i], &public[i])
		pi.Sub(&pi, &t)
	}

	// The constraint stack at ζ.
	pv := &pointVals{
		x: zeta,
		a: ev.A, b: ev.B, c: ev.C,
		z: ev.Z, zw: ev.ZOmega,
		ql: ev.QL, qr: ev.QR, qo: ev.QO, qm: ev.QM, qc: ev.QC, pi: pi,
		s1: ev.S1, s2: ev.S2, s3: ev.S3,
		l1: lag[0],
	}
	pieceEvals := []fr.Element{ev.TLo, ev.TMid, ev.THi}
	if ex != nil {
		pv.aw, pv.bw, pv.cw = ex.AOmega, ex.BOmega, ex.COmega
		pv.m, pv.h, pv.s, pv.sw = ex.M, ex.H, ex.S, ex.SOmega
		pv.qlk, pv.tbl = ex.QLk, ex.Tbl
		pv.qmimc, pv.qposf, pv.qposp = ex.QMimc, ex.QPosF, ex.QPosP
		pv.k0, pv.k1c, pv.k2c = ex.K0, ex.K1, ex.K2
		pieceEvals = append(pieceEvals, ex.TExtra...)
	}
	rhs := quotientNumerator(pv, ch, sh)

	// t(ζ) = Σ_p ζ^{p·n}·t_p(ζ).
	var tEval fr.Element
	zetaPow := one
	for p := range pieceEvals {
		var t fr.Element
		t.Mul(&zetaPow, &pieceEvals[p])
		tEval.Add(&tEval, &t)
		zetaPow.Mul(&zetaPow, &zetaN)
	}
	var lhs fr.Element
	lhs.Mul(&tEval, &zh)
	if !lhs.Equal(&rhs) {
		return pairingTerms{}, fmt.Errorf("%w: quotient identity", ErrProofInvalid)
	}

	// Batched KZG check: fold the ζ-opened commitments and values with v,
	// the ζω-opened ones with v inside the u-weighted term. Both lists
	// follow Proof.zetaList and omegaList.
	cms := []kzg.Commitment{
		proof.A, proof.B, proof.C, proof.Z,
		vk.QL, vk.QR, vk.QO, vk.QM, vk.QC,
		vk.S1, vk.S2, vk.S3,
		proof.TLo, proof.TMid, proof.THi,
	}
	omegaCms := []kzg.Commitment{proof.Z}
	if vk.Lookup {
		cms = append(cms, proof.M, proof.H, proof.S, vk.QLk, vk.Tbl)
		omegaCms = append(omegaCms, proof.S)
	}
	if ex != nil {
		cms = append(cms, vk.QMimc, vk.QPosF, vk.QPosP, vk.KC0, vk.KC1, vk.KC2)
		cms = append(cms, proof.TExtra...)
		omegaCms = append(omegaCms, proof.A, proof.B, proof.C)
	}
	vPowers := fr.Powers(&v, len(cms))
	foldVal := foldScalars(proof.zetaList(), vPowers)
	foldValOmega := foldScalars(proof.omegaList(), vPowers)

	// Combine the two opening checks with u:
	// e(Fζ + ζ·Wζ + u·(Fζω + ζω·Wζω) - E, G2) · e(-(Wζ + u·Wζω), τG2) == 1
	// where E = (valζ + u·valζω)·G1 and Fζω = [z] (+ v[S] on a lookup key,
	// then the next powers of v on [a], [b], [c]). The whole left-hand G1
	// point — both folds plus the correction terms — is one MSM instead of a
	// scalar multiplication per term.
	g1 := bn254.G1Generator()
	var zetaOmega fr.Element
	zetaOmega.Mul(&zeta, &domain.Gen)
	var uZOmega fr.Element
	uZOmega.Mul(&u, &zetaOmega)
	var eScalar fr.Element
	eScalar.Mul(&u, &foldValOmega)
	eScalar.Add(&eScalar, &foldVal)
	eScalar.Neg(&eScalar)

	pts := make([]bn254.G1Affine, 0, len(cms)+len(omegaCms)+3)
	scs := make([]fr.Element, 0, cap(pts))
	pts = append(pts, cms...)
	scs = append(scs, vPowers...)
	pts = append(pts, proof.WZeta)
	scs = append(scs, zeta)
	for i := range omegaCms {
		var s fr.Element
		s.Mul(&u, &vPowers[i])
		pts = append(pts, omegaCms[i])
		scs = append(scs, s)
	}
	pts = append(pts, proof.WZetaOmega, g1)
	scs = append(scs, uZOmega, eScalar)

	var terms pairingTerms
	L, err := bn254.G1MSM(pts, scs)
	if err != nil {
		return pairingTerms{}, fmt.Errorf("plonk: %w", err)
	}
	terms.L = L

	var wJ bn254.G1Jac
	var tj bn254.G1Jac
	wJ.FromAffine(&proof.WZeta)
	tj.ScalarMul(&proof.WZetaOmega, &u)
	wJ.AddAssign(&tj)
	terms.W.FromJacobian(&wJ)
	return terms, nil
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

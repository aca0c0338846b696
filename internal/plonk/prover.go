package plonk

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/parallel"
	"github.com/zkdet/zkdet/internal/poly"
	"github.com/zkdet/zkdet/internal/transcript"
)

// randScalar produces the prover's blinding scalars. It is a variable so
// the bit-identity property tests can pin proofs by injecting a seeded
// source; production code never reassigns it.
var randScalar = fr.MustRandom

// commitParallel runs independent KZG commitments concurrently, writing
// each result through its output pointer. The fan-out is bounded by the
// repo-wide worker pool (GOMAXPROCS) like every other prover hot loop, so
// a large batch of polynomials can't spawn an unbounded goroutine herd.
func commitParallel(srs *kzg.SRS, ps []poly.Polynomial, outs []*kzg.Commitment) error {
	errs := make([]error, len(ps))
	parallel.Execute(len(ps), func(start, end int) {
		for i := start; i < end; i++ {
			c, err := kzg.Commit(srs, ps[i])
			if err != nil {
				errs[i] = err
				continue
			}
			*outs[i] = c
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Proof is a Plonk proof: 9 G1 points and the openings of every committed
// polynomial at the challenge ζ (plus z at ζω). Its size is independent of
// the circuit. A proof for a lookup circuit additionally carries the three
// LogUp polynomials M (multiplicities), H (per-row log-derivative helper)
// and S (running sum); one for a custom-gate circuit three extra quotient
// pieces. Either one carries the extension's openings (Evals.Ext).
type Proof struct {
	A, B, C           kzg.Commitment
	Z                 kzg.Commitment
	TLo, TMid, THi    kzg.Commitment
	WZeta, WZetaOmega kzg.Commitment
	// Lookup marks a proof carrying the LogUp argument: [M], [H], [S] and
	// their openings. Without it those fields stay zero (infinity), and a
	// verifier refuses the proof if they are not.
	Lookup  bool
	M, H, S kzg.Commitment
	// TExtra holds quotient pieces 4–6 when custom gates push the
	// quotient degree past 3n.
	TExtra []kzg.Commitment
	Evals  ProofEvals
}

// shape returns the feature bits the proof's contents claim: none without
// extension openings, else lookup when it carries the LogUp argument and
// custom when it carries extra quotient pieces.
func (p *Proof) shape() shape {
	if p.Evals.Ext == nil {
		return 0
	}
	return newShape(p.Lookup, len(p.TExtra) > 0)
}

// logUpUnset reports whether every LogUp field — [M], [H], [S] and the six
// openings only a lookup proof carries — is at its zero value.
func (p *Proof) logUpUnset() bool {
	for _, c := range []*kzg.Commitment{&p.M, &p.H, &p.S} {
		if !c.IsInfinity() {
			return false
		}
	}
	if x := p.Evals.Ext; x != nil {
		for _, e := range x.logUp() {
			if !e.IsZero() {
				return false
			}
		}
	}
	return true
}

// ProofEvals carries the claimed polynomial evaluations at ζ (and z at ζω).
type ProofEvals struct {
	A, B, C, Z, ZOmega fr.Element
	QL, QR, QO, QM, QC fr.Element
	S1, S2, S3         fr.Element
	TLo, TMid, THi     fr.Element
	// Ext carries the extension's evaluations; nil for classic proofs.
	Ext *ExtEvals
}

// ExtEvals are the extra openings an extended proof carries: the shifted
// wires at ζω (custom gates read the next row), the custom-gate selectors
// and round-constant columns at ζ and, on a custom-gate proof, the extra
// quotient pieces at ζ. A lookup proof adds the LogUp polynomials and the
// lookup selector and table at ζ and the running sum at ζω; the other
// shapes leave those six zero.
type ExtEvals struct {
	M, H, S                        fr.Element
	SOmega, AOmega, BOmega, COmega fr.Element
	QLk, Tbl, QMimc, QPosF, QPosP  fr.Element
	K0, K1, K2                     fr.Element
	TExtra                         []fr.Element
}

// logUp lists the six openings only a lookup proof carries.
func (x *ExtEvals) logUp() []*fr.Element {
	return []*fr.Element{&x.M, &x.H, &x.S, &x.SOmega, &x.QLk, &x.Tbl}
}

// evalList returns the evaluations at ζ every proof carries, in the
// canonical folding order used by both prover and verifier for the batched
// KZG opening.
func (e *ProofEvals) evalList() []fr.Element {
	return []fr.Element{
		e.A, e.B, e.C, e.Z,
		e.QL, e.QR, e.QO, e.QM, e.QC,
		e.S1, e.S2, e.S3,
		e.TLo, e.TMid, e.THi,
	}
}

// zetaList returns every evaluation at ζ in the canonical folding order:
// evalList, then the extension's evaluations when the proof carries them.
func (p *Proof) zetaList() []fr.Element {
	out := p.Evals.evalList()
	if x := p.Evals.Ext; x != nil {
		if p.Lookup {
			out = append(out, x.M, x.H, x.S, x.QLk, x.Tbl)
		}
		out = append(out, x.QMimc, x.QPosF, x.QPosP, x.K0, x.K1, x.K2)
		out = append(out, x.TExtra...)
	}
	return out
}

// omegaList returns the evaluations opened at ζω in the canonical folding
// order: z(ζω), then the extension's shifted openings.
func (p *Proof) omegaList() []fr.Element {
	out := []fr.Element{p.Evals.ZOmega}
	if x := p.Evals.Ext; x != nil {
		if p.Lookup {
			out = append(out, x.SOmega)
		}
		out = append(out, x.AOmega, x.BOmega, x.COmega)
	}
	return out
}

// bindTranscript absorbs the verifying key and public inputs so challenges
// are bound to the exact statement being proved. Extended keys absorb the
// extension data after the classic fields, so classic transcripts are
// byte-identical to the pre-lookup prover.
func bindTranscript(t *transcript.Transcript, vk *VerifyingKey, public []fr.Element) {
	n := fr.NewElement(vk.N)
	t.AppendScalar("domain-size", &n)
	np := fr.NewElement(uint64(vk.NbPublic))
	t.AppendScalar("nb-public", &np)
	for _, c := range []kzg.Commitment{vk.QL, vk.QR, vk.QO, vk.QM, vk.QC, vk.S1, vk.S2, vk.S3} {
		cc := c
		t.AppendPoint("vk", &cc)
	}
	t.AppendScalars("public-inputs", public)
	if sh := vk.shape(); sh != 0 {
		fl := fr.NewElement(uint64(sh))
		t.AppendScalar("ext-flags", &fl)
		tb := fr.NewElement(uint64(vk.TableBits))
		t.AppendScalar("table-bits", &tb)
		for _, c := range []kzg.Commitment{vk.QLk, vk.Tbl, vk.QMimc, vk.QPosF, vk.QPosP, vk.KC0, vk.KC1, vk.KC2} {
			cc := c
			t.AppendPoint("vk-ext", &cc)
		}
		for l := 0; l < 3; l++ {
			t.AppendScalars("mds", vk.MDS[l][:])
		}
	}
}

// The absorbRound methods are the proof's half of the Fiat–Shamir
// transcript, written once for the prover (which calls each as soon as the
// round's commitments exist) and the verifier (which replays them in
// order). A lookup proof inserts "m" and β_L into round 1 and "h" and "s"
// into round 2, a custom-gate proof the extra quotient pieces into round 3,
// and either one the extension's openings into round 4; a classic proof's
// label sequence is untouched by them.

// absorbRound1 absorbs the wire commitments and squeezes β, γ and, for a
// lookup proof, the lookup challenge β_L.
func (p *Proof) absorbRound1(tr *transcript.Transcript) *challenges {
	ch := &challenges{}
	tr.AppendPoint("a", &p.A)
	tr.AppendPoint("b", &p.B)
	tr.AppendPoint("c", &p.C)
	if p.Lookup {
		tr.AppendPoint("m", &p.M)
	}
	ch.beta = tr.ChallengeScalar("beta")
	ch.gamma = tr.ChallengeScalar("gamma")
	if p.Lookup {
		ch.betaL = tr.ChallengeScalar("beta_l")
	}
	return ch
}

// absorbRound2 absorbs [z] (and [H], [S]) and squeezes α.
func (p *Proof) absorbRound2(tr *transcript.Transcript, ch *challenges) {
	tr.AppendPoint("z", &p.Z)
	if p.Lookup {
		tr.AppendPoint("h", &p.H)
		tr.AppendPoint("s", &p.S)
	}
	alpha := tr.ChallengeScalar("alpha")
	ch.alphaPow = fr.Powers(&alpha, nbAlphaPowers)
}

// absorbRound3 absorbs the quotient pieces and squeezes ζ.
func (p *Proof) absorbRound3(tr *transcript.Transcript) fr.Element {
	tr.AppendPoint("t_lo", &p.TLo)
	tr.AppendPoint("t_mid", &p.TMid)
	tr.AppendPoint("t_hi", &p.THi)
	for i := range p.TExtra {
		tr.AppendPoint(fmt.Sprintf("t_%d", 3+i), &p.TExtra[i])
	}
	return tr.ChallengeScalar("zeta")
}

// absorbRound4 absorbs the evaluations and squeezes the opening fold v.
func (p *Proof) absorbRound4(tr *transcript.Transcript) fr.Element {
	tr.AppendScalars("evals", p.zetaList())
	tr.AppendScalar("z_omega", &p.Evals.ZOmega)
	if p.Evals.Ext != nil {
		tr.AppendScalars("evals-omega-ext", p.omegaList()[1:])
	}
	return tr.ChallengeScalar("v")
}

// foldPolys returns ∑ coeffs[k]·ps[k] in a single pass, range-splitting the
// coefficient index across workers.
func foldPolys(ps []poly.Polynomial, coeffs []fr.Element) poly.Polynomial {
	maxLen := 0
	for _, p := range ps {
		if len(p) > maxLen {
			maxLen = len(p)
		}
	}
	out := make(poly.Polynomial, maxLen)
	parallel.Execute(maxLen, func(start, end int) {
		for i := start; i < end; i++ {
			var acc, t fr.Element
			for k, p := range ps {
				if i >= len(p) {
					continue
				}
				t.Mul(&p[i], &coeffs[k])
				acc.Add(&acc, &t)
			}
			out[i] = acc
		}
	})
	return out
}

// Prove produces a proof that the witness satisfies the preprocessed
// circuit. The witness assigns every variable; its first NbPublic entries
// must equal the public inputs passed to Verify.
//
// The five rounds are the same for every circuit; the key's two shape bits
// (set by Setup from the constraint system) only grow the column lists. A
// lookup key adds the multiplicity commitment [M] before β/γ (so the lookup
// challenge β_L can respond to it), the LogUp columns [H], [S] alongside
// [z], their coset columns and identities C3–C5 and the ζω opening of S; a
// custom-gate key adds the next-row identities C6–C13, evaluates the
// quotient on a 6n (or 8n) coset and splits it into 6 pieces instead of 3.
// Either one opens the extension's selectors and the ζω wires. A classic
// key adds none of these, and its proofs are pinned byte-for-byte by
// TestClassicProverBitIdentity.
//
// Every O(n) and O(big) loop below is range-split across the bounded worker
// pool; the only serial remainders are the grand-product prefix scan, the
// LogUp running sum and the transcript, which are inherently sequential.
func Prove(pk *ProvingKey, witness []fr.Element) (*Proof, error) {
	if len(witness) != pk.nbVars {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrWitnessLength, len(witness), pk.nbVars)
	}
	n := pk.Domain.N
	nInt := int(n)
	public := make([]fr.Element, pk.nbPublic)
	copy(public, witness[:pk.nbPublic])

	// Wire value vectors over the domain rows.
	aV := make([]fr.Element, n)
	bV := make([]fr.Element, n)
	cV := make([]fr.Element, n)
	parallel.Execute(nInt, func(start, end int) {
		for i := start; i < end; i++ {
			var g Gate // padding rows wire to variable 0 with all selectors zero
			if i < len(pk.gates) {
				g = pk.gates[i]
			}
			aV[i] = witness[g.A]
			bV[i] = witness[g.B]
			cV[i] = witness[g.C]
		}
	})

	// Public-input polynomial: PI(ω^i) = -x_i.
	piPoly := make(poly.Polynomial, n)
	for i := range public {
		piPoly[i].Neg(&public[i])
	}
	if err := pk.Domain.IFFT(piPoly); err != nil {
		return nil, err
	}

	// blind adds nbBlinds random coefficients times (X^n − 1) to the
	// interpolation of evals, hiding as many evaluations of the
	// polynomial outside the domain.
	blind := func(evals []fr.Element, nbBlinds int) (poly.Polynomial, error) {
		p := make(poly.Polynomial, nInt+nbBlinds)
		copy(p, evals)
		if err := pk.Domain.IFFT(p[:n]); err != nil {
			return nil, err
		}
		for j := 0; j < nbBlinds; j++ {
			bj := randScalar()
			p[j].Sub(&p[j], &bj)
			p[nInt+j].Add(&p[nInt+j], &bj)
		}
		return p, nil
	}

	// Round 1: blinded wire polynomials and their commitments — independent
	// MSMs, the prover's dominant cost, run in parallel — plus, for a lookup
	// key, the multiplicity polynomial [M] (committed before β_L exists).
	aPoly, err := blind(aV, 2)
	if err != nil {
		return nil, err
	}
	bPoly, err := blind(bV, 2)
	if err != nil {
		return nil, err
	}
	cPoly, err := blind(cV, 2)
	if err != nil {
		return nil, err
	}
	lookup, custom := pk.shape.lookup(), pk.shape.custom()
	proof := &Proof{Lookup: lookup}
	if pk.shape != 0 {
		proof.Evals.Ext = &ExtEvals{}
	}
	round1 := []poly.Polynomial{aPoly, bPoly, cPoly}
	round1Cms := []*kzg.Commitment{&proof.A, &proof.B, &proof.C}
	var mV []fr.Element
	var mPoly poly.Polynomial
	if lookup {
		if mV, err = buildMultiplicities(pk.gates, witness, pk.tableBits, n); err != nil {
			return nil, err
		}
		if mPoly, err = blind(mV, 2); err != nil {
			return nil, err
		}
		round1 = append(round1, mPoly)
		round1Cms = append(round1Cms, &proof.M)
	}
	if err = commitParallel(pk.SRS, round1, round1Cms); err != nil {
		return nil, err
	}

	tr := transcript.New("zkdet/plonk")
	bindTranscript(tr, pk.VK, public)
	ch := proof.absorbRound1(tr)
	ch.k1, ch.k2, ch.mds = fr.NewElement(permK1), fr.NewElement(permK2), pk.mds

	// Round 2: grand-product polynomial z. The per-row numerator and
	// denominator products are independent; only the prefix scan that
	// turns them into z is serial.
	omega := pk.Domain.Elements()
	nums := make([]fr.Element, n)
	dens := make([]fr.Element, n)
	parallel.Execute(nInt, func(start, end int) {
		for i := start; i < end; i++ {
			var f1, f2, f3, t fr.Element
			// (a + β·ω^i + γ)(b + β·k1·ω^i + γ)(c + β·k2·ω^i + γ)
			f1.Mul(&ch.beta, &omega[i])
			f1.Add(&f1, &aV[i])
			f1.Add(&f1, &ch.gamma)
			t.Mul(&ch.beta, &omega[i])
			t.Mul(&t, &ch.k1)
			f2.Add(&bV[i], &t)
			f2.Add(&f2, &ch.gamma)
			t.Mul(&ch.beta, &omega[i])
			t.Mul(&t, &ch.k2)
			f3.Add(&cV[i], &t)
			f3.Add(&f3, &ch.gamma)
			nums[i].Mul(&f1, &f2)
			nums[i].Mul(&nums[i], &f3)

			// (a + β·sσ1 + γ)(b + β·sσ2 + γ)(c + β·sσ3 + γ)
			lbl := pk.sigmaLabel[i]
			t.Mul(&ch.beta, &lbl[0])
			f1.Add(&aV[i], &t)
			f1.Add(&f1, &ch.gamma)
			t.Mul(&ch.beta, &lbl[1])
			f2.Add(&bV[i], &t)
			f2.Add(&f2, &ch.gamma)
			t.Mul(&ch.beta, &lbl[2])
			f3.Add(&cV[i], &t)
			f3.Add(&f3, &ch.gamma)
			dens[i].Mul(&f1, &f2)
			dens[i].Mul(&dens[i], &f3)
		}
	})
	fr.BatchInvert(dens)
	zV := make([]fr.Element, n)
	zV[0] = fr.One()
	for i := 0; i < nInt-1; i++ {
		var step fr.Element
		step.Mul(&nums[i], &dens[i])
		zV[i+1].Mul(&zV[i], &step)
	}
	zPoly, err := blind(zV, 3)
	if err != nil {
		return nil, err
	}
	round2 := []poly.Polynomial{zPoly}
	round2Cms := []*kzg.Commitment{&proof.Z}

	// A lookup key adds the LogUp helper and running-sum columns H, S
	// (which need β_L).
	var hPoly, sPoly poly.Polynomial
	if lookup {
		tblV := rangeTableValues(pk.tableBits, n)
		hV, sV := buildLogUpColumns(pk.gates, aV, mV, tblV, ch.betaL)
		// The LogUp telescoping sum must close: S_{n-1} + H_{n-1} wraps to
		// S_0 = 0. If it doesn't, some lookup left the table.
		var total fr.Element
		total.Add(&sV[n-1], &hV[n-1])
		if !total.IsZero() {
			return nil, ErrUnsatisfied
		}
		if hPoly, err = blind(hV, 2); err != nil {
			return nil, err
		}
		if sPoly, err = blind(sV, 3); err != nil {
			return nil, err
		}
		round2 = append(round2, hPoly, sPoly)
		round2Cms = append(round2Cms, &proof.H, &proof.S)
	}
	if err = commitParallel(pk.SRS, round2, round2Cms); err != nil {
		return nil, err
	}
	proof.absorbRound2(tr, ch)

	// Round 3: quotient polynomial t over the key's quotient coset. The
	// coset evaluations of the selector and permutation polynomials, the
	// coset points, L1 and 1/Z_H on them are constants of the key (Setup
	// built them); only the witness-dependent columns — a, b, c, z, PI and,
	// for a lookup key, M, H, S — are transformed per proof.
	domainE, nbPieces := pk.quotientDomain()
	if domainE == nil || len(pk.fixedCoset) == 0 {
		return nil, fmt.Errorf("plonk: proving key missing coset domain")
	}
	big := domainE.N
	factor := big / n // coset index step corresponding to one ω step

	wireInputs := []poly.Polynomial{aPoly, bPoly, cPoly, zPoly, piPoly}
	if lookup {
		wireInputs = append(wireInputs, mPoly, hPoly, sPoly)
	}
	wire, err := cosetEvals(domainE, wireInputs)
	if err != nil {
		return nil, err
	}
	// fixed follows quotientColumns: the custom columns start after the
	// lookup pair when the key has both.
	fixed := pk.fixedCoset
	cu := 8
	if lookup {
		cu = 10
	}

	// The quotient evaluations are independent; range-split them.
	tPoly := make(poly.Polynomial, big)
	parallel.Execute(int(big), func(start, end int) {
		for ii := start; ii < end; ii++ {
			i := uint64(ii)
			j := (i + factor) % big // the coset index of ω·x_i
			pv := pointVals{
				x: pk.cosetX[i], l1: pk.cosetL1[i],
				a: wire[0][i], b: wire[1][i], c: wire[2][i],
				z: wire[3][i], zw: wire[3][j],
				pi: wire[4][i],
				ql: fixed[0][i], qr: fixed[1][i], qo: fixed[2][i], qm: fixed[3][i], qc: fixed[4][i],
				s1: fixed[5][i], s2: fixed[6][i], s3: fixed[7][i],
			}
			if lookup {
				pv.m, pv.h, pv.s, pv.sw = wire[5][i], wire[6][i], wire[7][i], wire[7][j]
				pv.qlk, pv.tbl = fixed[8][i], fixed[9][i]
			}
			if custom {
				pv.aw, pv.bw, pv.cw = wire[0][j], wire[1][j], wire[2][j]
				pv.qmimc, pv.qposf, pv.qposp = fixed[cu][i], fixed[cu+1][i], fixed[cu+2][i]
				pv.k0, pv.k1c, pv.k2c = fixed[cu+3][i], fixed[cu+4][i], fixed[cu+5][i]
			}
			num := quotientNumerator(&pv, ch, pk.shape)
			tPoly[i].Mul(&num, &pk.zhInv[i%factor])
		}
	})
	if err := domainE.IFFTCoset(tPoly); err != nil {
		return nil, err
	}

	// A satisfied circuit yields deg(t) ≤ 3n+5 (5n+5 with custom gates, whose
	// sixth piece is those last six coefficients); anything above signals an
	// unsatisfied witness (the division by Z_H was not exact).
	maxLen := 3*n + 6
	if custom {
		maxLen = 5*n + 6
	}
	for i := maxLen; i < big; i++ {
		if !tPoly[i].IsZero() {
			return nil, ErrUnsatisfied
		}
	}
	pieces := make([]poly.Polynomial, nbPieces)
	for p := 0; p < nbPieces-1; p++ {
		pieces[p] = poly.Polynomial(tPoly[uint64(p)*n : uint64(p+1)*n])
	}
	pieces[nbPieces-1] = poly.Polynomial(tPoly[uint64(nbPieces-1)*n : maxLen])

	proof.TExtra = make([]kzg.Commitment, nbPieces-3)
	pieceCms := []*kzg.Commitment{&proof.TLo, &proof.TMid, &proof.THi}
	for p := range proof.TExtra {
		pieceCms = append(pieceCms, &proof.TExtra[p])
	}
	if err = commitParallel(pk.SRS, pieces, pieceCms); err != nil {
		return nil, err
	}
	zeta := proof.absorbRound3(tr)

	// Round 4: evaluations at ζ (and ζω for z) — independent Horner walks,
	// run on the worker pool. An extended key adds its own columns at ζ and
	// the ω-shifted openings its constraints read (a/b/c for the next-row
	// custom gates and, on a lookup key, S for the running sum).
	var zetaOmega fr.Element
	zetaOmega.Mul(&zeta, &pk.Domain.Gen)
	ev := &proof.Evals
	type evalTask struct {
		p   poly.Polynomial
		at  *fr.Element
		out *fr.Element
	}
	evalTasks := []evalTask{
		{aPoly, &zeta, &ev.A}, {bPoly, &zeta, &ev.B}, {cPoly, &zeta, &ev.C},
		{zPoly, &zeta, &ev.Z}, {zPoly, &zetaOmega, &ev.ZOmega},
		{pk.QL, &zeta, &ev.QL}, {pk.QR, &zeta, &ev.QR}, {pk.QO, &zeta, &ev.QO},
		{pk.QM, &zeta, &ev.QM}, {pk.QC, &zeta, &ev.QC},
		{pk.S1, &zeta, &ev.S1}, {pk.S2, &zeta, &ev.S2}, {pk.S3, &zeta, &ev.S3},
		{pieces[0], &zeta, &ev.TLo}, {pieces[1], &zeta, &ev.TMid}, {pieces[2], &zeta, &ev.THi},
	}
	if ex := ev.Ext; ex != nil {
		ex.TExtra = make([]fr.Element, nbPieces-3)
		if lookup {
			evalTasks = append(evalTasks, []evalTask{
				{mPoly, &zeta, &ex.M}, {hPoly, &zeta, &ex.H}, {sPoly, &zeta, &ex.S},
				{sPoly, &zetaOmega, &ex.SOmega},
				{pk.QLk, &zeta, &ex.QLk}, {pk.Tbl, &zeta, &ex.Tbl},
			}...)
		}
		evalTasks = append(evalTasks, []evalTask{
			{aPoly, &zetaOmega, &ex.AOmega}, {bPoly, &zetaOmega, &ex.BOmega}, {cPoly, &zetaOmega, &ex.COmega},
			{pk.QMimc, &zeta, &ex.QMimc}, {pk.QPosF, &zeta, &ex.QPosF}, {pk.QPosP, &zeta, &ex.QPosP},
			{pk.KC0, &zeta, &ex.K0}, {pk.KC1, &zeta, &ex.K1}, {pk.KC2, &zeta, &ex.K2},
		}...)
		for p := range ex.TExtra {
			evalTasks = append(evalTasks, evalTask{pieces[3+p], &zeta, &ex.TExtra[p]})
		}
	}
	parallel.Execute(len(evalTasks), func(start, end int) {
		for i := start; i < end; i++ {
			*evalTasks[i].out = evalTasks[i].p.Eval(evalTasks[i].at)
		}
	})
	v := proof.absorbRound4(tr)

	// Round 5: batched opening at ζ, and a v-folded opening at ζω of z
	// (and, for an extended key, S on a lookup key, then a, b, c). The
	// polynomial lists follow the order of Proof.zetaList and omegaList.
	foldZeta := []poly.Polynomial{
		aPoly, bPoly, cPoly, zPoly,
		pk.QL, pk.QR, pk.QO, pk.QM, pk.QC,
		pk.S1, pk.S2, pk.S3,
		pieces[0], pieces[1], pieces[2],
	}
	foldOmega := []poly.Polynomial{zPoly}
	if lookup {
		foldZeta = append(foldZeta, mPoly, hPoly, sPoly, pk.QLk, pk.Tbl)
		foldOmega = append(foldOmega, sPoly)
	}
	if pk.shape != 0 {
		foldZeta = append(foldZeta, pk.QMimc, pk.QPosF, pk.QPosP, pk.KC0, pk.KC1, pk.KC2)
		foldZeta = append(foldZeta, pieces[3:]...)
		foldOmega = append(foldOmega, aPoly, bPoly, cPoly)
	}
	folded := foldPolys(foldZeta, fr.Powers(&v, len(foldZeta)))
	wZeta, _ := poly.DivideByLinear(folded, &zeta)
	foldedOmega := foldPolys(foldOmega, fr.Powers(&v, len(foldOmega)))
	wZetaOmega, _ := poly.DivideByLinear(foldedOmega, &zetaOmega)
	if err = commitParallel(pk.SRS,
		[]poly.Polynomial{wZeta, wZetaOmega},
		[]*kzg.Commitment{&proof.WZeta, &proof.WZetaOmega}); err != nil {
		return nil, err
	}
	return proof, nil
}

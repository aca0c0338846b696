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

// checkDegree makes Prove refuse a witness whose quotient does not divide
// by Z_H (ErrUnsatisfied). It is a variable so the identity tests can play
// a cheating prover that commits the truncated quotient anyway, to show the
// verifier refuses it; production code never reassigns it.
var checkDegree = true

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

// Proof is a Plonk proof: 8 G1 points and the openings the constraint
// identities read non-linearly — a, b, c, σ1, σ2 at the challenge ζ, z and
// the next-row wires Y at ζω; everything they read linearly is folded into
// the linearization. Its size is independent of the circuit. A proof for a
// lookup circuit additionally carries the three LogUp polynomials M
// (multiplicities), H (per-row log-derivative helper) and S (running sum)
// and their two openings.
type Proof struct {
	A, B, C kzg.Commitment
	Z       kzg.Commitment
	// T holds the quotient in its quotientPieces pieces of 3n coefficients,
	// the last taking the remainder.
	T                 []kzg.Commitment
	WZeta, WZetaOmega kzg.Commitment
	// Lookup marks a proof carrying the LogUp argument: [M], [H], [S] and
	// the LogUp openings. Without it those fields stay zero (infinity), and
	// a verifier refuses the proof if they are not.
	Lookup  bool
	M, H, S kzg.Commitment
	Evals   ProofEvals
}

// shape returns the flags byte the proof's contents claim: lookup + custom
// when it carries the LogUp argument, custom otherwise.
func (p *Proof) shape() shape { return newShape(p.Lookup) }

// strayFields reports whether p sets a field that shape sh does not carry:
// [M], [H], [S] or the LogUp openings without lookups. No encoding has room
// for them and no transcript absorb or opening would bind them.
func (p *Proof) strayFields(sh shape) bool {
	if sh.lookup() {
		return false
	}
	for _, e := range p.Evals.lookupEvals() {
		if !e.IsZero() {
			return true
		}
	}
	return !(p.M.IsInfinity() && p.H.IsInfinity() && p.S.IsInfinity())
}

// ProofEvals carries a proof's openings: the wires and the first two
// permutation columns at ζ; z at ζω, and the next-row wires there, once, as
// Y = Σ_l α^{6+l}·w_l(ζω): the combination C6–C8 read, which the verifier
// binds to Σ_l α^{6+l}·[w_l]. A lookup proof also opens the table at ζ (C3
// multiplies it by H) and the running sum at ζω; any other proof leaves
// those two zero.
type ProofEvals struct {
	A, B, C, S1, S2, ZOmega fr.Element
	Y                       fr.Element
	Tbl, SOmega             fr.Element
}

// lookupEvals lists the two openings only a lookup proof carries.
func (ev *ProofEvals) lookupEvals() []*fr.Element { return []*fr.Element{&ev.Tbl, &ev.SOmega} }

// openings returns the evaluations the proof carries, split by point: at ζ
// a, b, c, σ1, σ2, then T on a lookup proof; at ζω z, then S (lookup), then
// Y. This is the one order of the transcript, the wire encoding, the
// prover's round-4 evaluations and both v-folds.
func (p *Proof) openings() (atZeta, atOmega []*fr.Element) {
	ev := &p.Evals
	atZeta = []*fr.Element{&ev.A, &ev.B, &ev.C, &ev.S1, &ev.S2}
	atOmega = []*fr.Element{&ev.ZOmega}
	if p.Lookup {
		atZeta = append(atZeta, &ev.Tbl)
		atOmega = append(atOmega, &ev.SOmega)
	}
	return atZeta, append(atOmega, &ev.Y)
}

// zetaPoint fills the evaluation point ζ with the openings the proof
// carries, L1(ζ) and PI(ζ); linearize supplies the linear columns.
func (p *Proof) zetaPoint(zeta, l1, pi *fr.Element) pointVals {
	ev := &p.Evals
	return pointVals{
		x: *zeta, l1: *l1, pi: *pi,
		a: ev.A, b: ev.B, c: ev.C, s1: ev.S1, s2: ev.S2, zw: ev.ZOmega,
		y: ev.Y, tbl: ev.Tbl, sw: ev.SOmega,
	}
}

// values dereferences a list of openings.
func values(ps []*fr.Element) []fr.Element {
	out := make([]fr.Element, len(ps))
	for i, p := range ps {
		out[i] = *p
	}
	return out
}

// bindTranscript absorbs the verifying key and public inputs so challenges
// are bound to the exact statement being proved: the domain, the eight
// selector and permutation columns and the public inputs, then the flags
// byte, the table size, the lookup and custom-gate columns the key commits,
// in VerifyingKey.columns order, and the MDS matrix.
func bindTranscript(t *transcript.Transcript, vk *VerifyingKey, public []fr.Element) {
	n := fr.NewElement(vk.N)
	t.AppendScalar("domain-size", &n)
	np := fr.NewElement(uint64(vk.NbPublic))
	t.AppendScalar("nb-public", &np)
	cols := vk.columns()
	for _, c := range cols[:8] {
		t.AppendPoint("vk", c)
	}
	t.AppendScalars("public-inputs", public)
	fl := fr.NewElement(uint64(vk.shape()))
	t.AppendScalar("ext-flags", &fl)
	tb := fr.NewElement(uint64(vk.TableBits))
	t.AppendScalar("table-bits", &tb)
	for _, c := range cols[8:] {
		t.AppendPoint("vk-ext", c)
	}
	for l := 0; l < 3; l++ {
		t.AppendScalars("mds", vk.MDS[l][:])
	}
}

// The absorbRound methods are the proof's half of the Fiat–Shamir
// transcript, written once for the prover (which calls each as soon as the
// round's commitments exist) and the verifier (which replays them in
// order). A lookup proof inserts "m" and β_L into round 1, "h" and "s" into
// round 2 and its two LogUp openings into round 4.

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

// absorbRound2 absorbs [z] (and [H], [S]) and squeezes α; ch.mds must be
// set.
func (p *Proof) absorbRound2(tr *transcript.Transcript, ch *challenges) {
	tr.AppendPoint("z", &p.Z)
	if p.Lookup {
		tr.AppendPoint("h", &p.H)
		tr.AppendPoint("s", &p.S)
	}
	alpha := tr.ChallengeScalar("alpha")
	ch.setAlpha(&alpha)
}

// pieceLabels are the transcript labels of the quotient pieces; the verifier
// checks a proof carries quotientPieces of them before it replays the
// transcript.
var pieceLabels = [quotientPieces]string{"t_0", "t_1"}

// absorbRound3 absorbs the quotient pieces and squeezes ζ.
func (p *Proof) absorbRound3(tr *transcript.Transcript) fr.Element {
	for i := range p.T {
		tr.AppendPoint(pieceLabels[i], &p.T[i])
	}
	return tr.ChallengeScalar("zeta")
}

// absorbRound4 absorbs the openings and squeezes the opening fold v.
func (p *Proof) absorbRound4(tr *transcript.Transcript) fr.Element {
	atZeta, atOmega := p.openings()
	tr.AppendScalars("evals", values(atZeta))
	tr.AppendScalar("z_omega", atOmega[0])
	tr.AppendScalars("evals-omega-ext", values(atOmega[1:]))
	return tr.ChallengeScalar("v")
}

// foldPolys writes ∑ coeffs[k]·ps[k] into dst, which must hold the longest
// of ps, in a single pass, range-splitting the coefficient index across
// workers; it returns the written prefix of dst.
func foldPolys(dst poly.Polynomial, ps []poly.Polynomial, coeffs []fr.Element) poly.Polynomial {
	maxLen := 0
	for _, p := range ps {
		if len(p) > maxLen {
			maxLen = len(p)
		}
	}
	out := dst[:maxLen]
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

// blind writes into p, of n + k coefficients on the n-point domain d, the
// interpolation of evals plus k random coefficients times (X^n − 1),
// hiding k evaluations of the polynomial outside the domain.
func blind(d *poly.Domain, p poly.Polynomial, evals []fr.Element) error {
	n := int(d.N)
	copy(p, evals)
	clear(p[n:])
	if err := d.IFFT(p[:n]); err != nil {
		return err
	}
	for j := 0; j < len(p)-n; j++ {
		bj := randScalar()
		p[j].Sub(&p[j], &bj)
		p[n+j].Add(&p[n+j], &bj)
	}
	return nil
}

// Prove produces a proof that the witness satisfies the preprocessed
// circuit. The witness assigns every variable; its first NbPublic entries
// must equal the public inputs passed to Verify.
//
// The five rounds are the same for every circuit; the key's lookup bit (set
// by Setup from the constraint system) only grows the column lists. Every
// key carries the next-row identities C6–C8, evaluates the quotient on a 6n
// (or 8n) coset, commits it in 2 pieces and opens the α-weighted next-row
// wires Y at ζω. A lookup key adds the multiplicity commitment [M] before
// β/γ (so the lookup challenge β_L can respond to it), the LogUp columns
// [H], [S] alongside [z], their coset columns and identities C3–C5, the
// table's opening at ζ and S's at ζω. Every column the identities read
// linearly — the round constants among them — enters round 5's
// linearization instead. Both shapes' proofs are pinned byte-for-byte by
// TestClassicProverBitIdentity.
//
// Every buffer a proof fills is in a workspace the key owns (see
// workspace), so a warm proof allocates little beyond the Proof it
// returns; concurrent proofs on one key each take their own workspace.
// Each phase's duration goes into the key's histograms (ProvingKey.Phase).
//
// Every O(n) and O(big) loop below is range-split across the bounded worker
// pool; the only serial remainders are the grand-product prefix scan, the
// LogUp running sum and the transcript, which are inherently sequential.
func Prove(pk *ProvingKey, witness []fr.Element) (*Proof, error) {
	if len(witness) != pk.nbVars {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrWitnessLength, len(witness), pk.nbVars)
	}
	ws := pk.takeWorkspace()
	defer pk.putWorkspace(ws)
	sw := newStopwatch()
	proof, err := prove(pk, ws, witness, &sw)
	if err == nil {
		sw.record(pk, PhaseWitness, PhaseSetupInterpolate) // Prove's phases, not Setup's
	}
	return proof, err
}

// prove is Prove on the workspace ws, lapping sw at each phase's end.
func prove(pk *ProvingKey, ws *workspace, witness []fr.Element, sw *stopwatch) (*Proof, error) {
	n := pk.Domain.N
	nInt := int(n)
	public := witness[:pk.nbPublic]

	// Wire value vectors over the domain rows.
	aV, bV, cV := ws.aV, ws.bV, ws.cV
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
	piPoly := ws.pi
	clear(piPoly)
	for i := range public {
		piPoly[i].Neg(&public[i])
	}
	if err := pk.Domain.IFFT(piPoly); err != nil {
		return nil, err
	}

	// Round 1: blinded wire polynomials and their commitments — independent
	// MSMs, the prover's dominant cost, run in parallel — plus, for a lookup
	// key, the multiplicity polynomial [M] (committed before β_L exists).
	aPoly, bPoly, cPoly := ws.a, ws.b, ws.c
	if err := blind(pk.Domain, aPoly, aV); err != nil {
		return nil, err
	}
	if err := blind(pk.Domain, bPoly, bV); err != nil {
		return nil, err
	}
	if err := blind(pk.Domain, cPoly, cV); err != nil {
		return nil, err
	}
	lookup := pk.shape.lookup()
	proof := &Proof{Lookup: lookup}
	round1 := []poly.Polynomial{aPoly, bPoly, cPoly}
	round1Cms := []*kzg.Commitment{&proof.A, &proof.B, &proof.C}
	mV, mPoly := ws.mV, ws.m
	if lookup {
		if err := buildMultiplicities(mV, ws.counts, pk.gates, witness, pk.tableBits); err != nil {
			return nil, err
		}
		if err := blind(pk.Domain, mPoly, mV); err != nil {
			return nil, err
		}
		round1 = append(round1, mPoly)
		round1Cms = append(round1Cms, &proof.M)
	}
	sw.lap(PhaseWitness)
	if err := commitParallel(pk.SRS, round1, round1Cms); err != nil {
		return nil, err
	}
	sw.lap(PhaseCommit)

	tr := transcript.New("zkdet/plonk")
	bindTranscript(tr, pk.VK, public)
	ch := proof.absorbRound1(tr)
	ch.k1, ch.k2, ch.mds = fr.NewElement(permK1), fr.NewElement(permK2), pk.mds

	// Round 2: grand-product polynomial z. The per-row numerator and
	// denominator products are independent; only the prefix scan that
	// turns them into z is serial.
	omega := pk.Domain.Elements()
	nums, dens := ws.nums, ws.dens
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
	zV := ws.zV
	fr.BatchInvertWith(dens, zV) // zV is the inversion's scratch until the scan writes it
	zV[0] = fr.One()
	for i := 0; i < nInt-1; i++ {
		var step fr.Element
		step.Mul(&nums[i], &dens[i])
		zV[i+1].Mul(&zV[i], &step)
	}
	zPoly := ws.z
	if err := blind(pk.Domain, zPoly, zV); err != nil {
		return nil, err
	}
	round2 := []poly.Polynomial{zPoly}
	round2Cms := []*kzg.Commitment{&proof.Z}

	// A lookup key adds the LogUp helper and running-sum columns H, S
	// (which need β_L); nums and dens are free again and hold the two
	// inversions.
	hPoly, sPoly := ws.h, ws.s
	if lookup {
		hV, sV := ws.hV, ws.sV
		buildLogUpColumns(hV, sV, nums, dens, pk.gates, aV, mV, pk.tblValues, ch.betaL)
		// The LogUp telescoping sum must close: S_{n-1} + H_{n-1} wraps to
		// S_0 = 0. If it doesn't, some lookup left the table.
		var total fr.Element
		total.Add(&sV[n-1], &hV[n-1])
		if !total.IsZero() {
			return nil, ErrUnsatisfied
		}
		if err := blind(pk.Domain, hPoly, hV); err != nil {
			return nil, err
		}
		if err := blind(pk.Domain, sPoly, sV); err != nil {
			return nil, err
		}
		round2 = append(round2, hPoly, sPoly)
		round2Cms = append(round2Cms, &proof.H, &proof.S)
	}
	sw.lap(PhasePermutation)
	if err := commitParallel(pk.SRS, round2, round2Cms); err != nil {
		return nil, err
	}
	sw.lap(PhaseCommit)
	proof.absorbRound2(tr, ch)

	// Round 3: quotient polynomial t over the key's quotient coset. The
	// coset evaluations of the selector and permutation polynomials, the
	// coset points, L1 and 1/Z_H on them are constants of the key (Setup
	// built them); only the witness-dependent columns — a, b, c, z, PI and,
	// for a lookup key, M, H, S — are transformed per proof.
	domainE := pk.quotient
	if domainE == nil || len(pk.fixedCoset) == 0 {
		return nil, fmt.Errorf("plonk: proving key missing coset domain")
	}
	big := domainE.N
	factor := big / n // coset index step corresponding to one ω step

	wireInputs := []poly.Polynomial{aPoly, bPoly, cPoly, zPoly, piPoly}
	if lookup {
		wireInputs = append(wireInputs, mPoly, hPoly, sPoly)
	}
	wire := ws.wire
	if err := cosetEvals(domainE, wire, wireInputs); err != nil {
		return nil, err
	}
	// fixed follows ProvingKey.columns, whose last five are the custom
	// columns.
	fixed := pk.fixedCoset
	cu := len(fixed) - 5

	// The quotient evaluations are independent; range-split them.
	tPoly := ws.t
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
			pv.y = ch.nextRow(&wire[0][j], &wire[1][j], &wire[2][j])
			pv.qposf, pv.qposp = fixed[cu][i], fixed[cu+1][i]
			pv.k0, pv.k1c, pv.k2c = fixed[cu+2][i], fixed[cu+3][i], fixed[cu+4][i]
			num := quotientNumerator(&pv, ch, pk.shape)
			tPoly[i].Mul(&num, &pk.zhInv[i%factor])
		}
	})
	if err := domainE.IFFTCoset(tPoly); err != nil {
		return nil, err
	}

	// A satisfied circuit yields deg(t) ≤ 5n+5; anything above signals an
	// unsatisfied witness (the division by Z_H was not exact). The quotient
	// is committed in pieces of 3n coefficients, the last taking the
	// remainder.
	maxLen := 5*n + 6
	for i := maxLen; i < big && checkDegree; i++ {
		if !tPoly[i].IsZero() {
			return nil, ErrUnsatisfied
		}
	}
	pieces := ws.pieces
	for p := range pieces {
		hi := uint64(p+1) * 3 * n
		if p == quotientPieces-1 {
			hi = maxLen
		}
		pieces[p] = poly.Polynomial(tPoly[uint64(p)*3*n : hi])
	}
	sw.lap(PhaseQuotient)
	// The pieces are committed one after the other, not by commitParallel:
	// each MSM already spreads over every worker, and two MSMs of different
	// lengths at once hand their pooled scratch (bn254.G1MSM's, on domains
	// its window table does not cover) to each other from one proof to the
	// next, so the longer one grows it again.
	proof.T = make([]kzg.Commitment, quotientPieces)
	for p := range pieces {
		var err error
		if proof.T[p], err = kzg.Commit(pk.SRS, pieces[p]); err != nil {
			return nil, err
		}
	}
	sw.lap(PhaseCommit)
	zeta := proof.absorbRound3(tr)

	// Round 4: the openings, in Proof.openings order — independent Horner
	// walks, run on the worker pool. A lookup key adds the table at ζ and S
	// at ζω (the running sum's next row); last come the next-row wires at
	// ζω, as the one polynomial Σ_l α^{6+l}·w_l that Y opens.
	var zetaOmega fr.Element
	zetaOmega.Mul(&zeta, &pk.Domain.Gen)
	openZeta := []poly.Polynomial{aPoly, bPoly, cPoly, pk.S1, pk.S2}
	openOmega := []poly.Polynomial{zPoly}
	if lookup {
		openZeta = append(openZeta, pk.Tbl)
		openOmega = append(openOmega, sPoly)
	}
	openOmega = append(openOmega, foldPolys(ws.y, []poly.Polynomial{aPoly, bPoly, cPoly}, ch.alphaPow[6:9]))
	atZeta, atOmega := proof.openings()
	parallel.Execute(len(openZeta)+len(openOmega), func(start, end int) {
		for i := start; i < end; i++ {
			if i < len(openZeta) {
				*atZeta[i] = openZeta[i].Eval(&zeta)
			} else {
				*atOmega[i-len(openZeta)] = openOmega[i-len(openZeta)].Eval(&zetaOmega)
			}
		}
	})
	v := proof.absorbRound4(tr)

	// Round 5: one fold at ζ of the linearization
	//   r(X) = Σ_j s_j·col_j(X) − Z_H(ζ)·Σ_p ζ^{3n·p}·t_p(X),
	// whose value there the verifier computes itself, and the v-weighted
	// openings; and a v-folded opening at ζω. The linear columns follow
	// pointVals.linearColumns; PI(ζ) enters only linearize's constant term,
	// which the prover does not need. The column and coefficient lists are
	// the workspace's, like every other buffer of the proof.
	linear := append(ws.fold[:0], pk.QL, pk.QR, pk.QO, pk.QM, pk.QC, pk.S3, zPoly)
	if lookup {
		linear = append(linear, mPoly, hPoly, sPoly, pk.QLk)
	}
	linear = append(linear, pk.QPosF, pk.QPosP, pk.KC0, pk.KC1, pk.KC2)
	l1 := pk.Domain.LagrangeEval(0, &zeta)
	var noPI fr.Element
	_, scalars := linearize(proof.zetaPoint(&zeta, &l1, &noPI), ch, pk.shape)
	coeffs := append(ws.coeffs[:0], scalars...)
	var zeta3N, w fr.Element
	w.ExpUint64(&zeta, n)
	zeta3N.ExpUint64(&w, 3)
	one := fr.One()
	w.Sub(&one, &w) // −Z_H(ζ)
	for range pieces {
		coeffs = append(coeffs, w)
		w.Mul(&w, &zeta3N)
	}
	vPowers := fr.Powers(&v, len(openZeta)+1)
	coeffs = append(coeffs, vPowers[1:]...)
	sw.lap(PhaseOpen)

	// Both folds are divided in place: W_ζ's and W_ζω's coefficients are
	// the folds' own, shifted down one place.
	foldZeta := append(append(linear, pieces...), openZeta...)
	wZeta := poly.DivideByLinearInPlace(foldPolys(ws.foldZeta, foldZeta, coeffs), &zeta)
	wZetaOmega := poly.DivideByLinearInPlace(foldPolys(ws.foldOmega, openOmega, vPowers), &zetaOmega)
	if err := commitParallel(pk.SRS,
		[]poly.Polynomial{wZeta, wZetaOmega},
		[]*kzg.Commitment{&proof.WZeta, &proof.WZetaOmega}); err != nil {
		return nil, err
	}
	sw.lap(PhaseFold)
	return proof, nil
}

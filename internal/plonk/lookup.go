package plonk

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/fr"
)

// This file holds the machinery shared by the prover and the verifier:
// the point-wise evaluation of the aggregated constraint numerator (the
// same formula runs on every coset point in the prover and, split into its
// linearization, at ζ in both), and the LogUp witness builder.
//
// Every circuit carries C0–C2 (gate, permutation, L_1 boundary) and the
// custom-gate lanes C6–C8; a key with lookups adds C3–C5.
//
// The lookup argument is the log-derivative ("LogUp") formulation: for the
// range table T and the a-wire column a, with qLk the lookup selector and
// M the multiplicity column, soundness follows from
//
//	Σ_i qLk_i/(β_L + a_i)  ==  Σ_i M_i/(β_L + T_i)
//
// which the proof establishes via a helper column H and a running sum S:
//
//	C3: H·(β_L+a)·(β_L+T) − qLk·(β_L+T) + M·(β_L+a) = 0
//	C4: S(ωx) − S(x) − H(x) = 0
//	C5: L_1(x)·S(x) = 0
//
// β_L is derived by the transcript after [M] is committed. Custom gates
// (Poseidon full and partial rounds) add the lane constraints C6–C8, one per
// lane l, which both round kinds share:
//
//	C6+l: qPosF·(Σ_j M_lj·w_j^5 − w_l(ωx)) + qPosP·(M_l0·a^5 + M_l1·b + M_l2·c − w_l(ωx)) + K_l
//
// The wires carry the state after the round's constants, K_l adds the next
// round's (zero on every row that is not a round, so it needs no selector),
// and the Poseidon MDS matrix M lives in the verifying key. Weighted by
// α^{6+l}, the next-row wires enter only as y = Σ_l α^{6+l}·w_l(ωx), which a
// proof opens once at ζω; the selectors and K_l are linear.

// nbAlphaPowers is the number of α powers folding the constraint stack:
// C0 gate, C1 perm, C2 L1 boundary, C3–C5 LogUp, C6–C8 Poseidon lanes.
const nbAlphaPowers = 9

// pointVals carries every polynomial's value at one evaluation point. The
// LogUp fields, from m down to tbl, are read only for a lookup key.
type pointVals struct {
	x                      fr.Element // the point itself
	a, b, c                fr.Element
	z, zw                  fr.Element
	ql, qr, qo, qm, qc, pi fr.Element
	s1, s2, s3             fr.Element
	l1                     fr.Element // L_1(x)
	y                      fr.Element // Σ_l α^{6+l}·w_l(ω·x), the next row's wires
	m, h, s, sw            fr.Element // LogUp columns; sw = S(ω·x)
	qlk, tbl               fr.Element
	qposf, qposp           fr.Element
	k0, k1c, k2c           fr.Element // constants a round adds after its MDS
}

// challenges bundles the transcript challenges and fixed key data the
// constraint evaluation needs; β_L is used only with lookups.
type challenges struct {
	beta, gamma, betaL fr.Element
	alphaPow           []fr.Element // α^0 … α^8
	k1, k2             fr.Element   // permutation coset multipliers
	mds                [3][3]fr.Element
	// mdsAlpha[j] = Σ_l α^{6+l}·mds[l][j]: the MDS columns under the lane
	// weights, so C6–C8 read each S-box output once.
	mdsAlpha [3]fr.Element
}

// setAlpha fills the α powers and, from them and mds, mdsAlpha.
func (ch *challenges) setAlpha(alpha *fr.Element) {
	ch.alphaPow = fr.Powers(alpha, nbAlphaPowers)
	var t fr.Element
	for j := range ch.mdsAlpha {
		ch.mdsAlpha[j].SetZero()
		for l := 0; l < 3; l++ {
			t.Mul(&ch.mds[l][j], &ch.alphaPow[6+l])
			ch.mdsAlpha[j].Add(&ch.mdsAlpha[j], &t)
		}
	}
}

// nextRow returns y = Σ_l α^{6+l}·w_l for the next row's wires w.
func (ch *challenges) nextRow(a, b, c *fr.Element) fr.Element {
	var y, t fr.Element
	y.Mul(&ch.alphaPow[6], a)
	t.Mul(&ch.alphaPow[7], b)
	y.Add(&y, &t)
	t.Mul(&ch.alphaPow[8], c)
	y.Add(&y, &t)
	return y
}

// pow5 sets out = t^5.
func pow5(out, t *fr.Element) {
	var t2 fr.Element
	t2.Square(t)
	t2.Square(&t2)
	out.Mul(&t2, t)
}

// quotientNumerator evaluates the aggregated constraint numerator
// Σ_k α^k·C_k at one point. The prover divides this by Z_H on the coset;
// at ζ, linearize splits it into the linearization both sides fold. sh is
// the key's shape: the stack adds C3–C5 only with lookups.
func quotientNumerator(p *pointVals, ch *challenges, sh shape) fr.Element {
	var acc, t, t2 fr.Element

	// C0: gate + public input.
	t.Mul(&p.qm, &p.a)
	t.Mul(&t, &p.b)
	acc.Add(&acc, &t)
	t.Mul(&p.ql, &p.a)
	acc.Add(&acc, &t)
	t.Mul(&p.qr, &p.b)
	acc.Add(&acc, &t)
	t.Mul(&p.qo, &p.c)
	acc.Add(&acc, &t)
	acc.Add(&acc, &p.qc)
	acc.Add(&acc, &p.pi)

	// C1: permutation.
	var p1, p2, f fr.Element
	t.Mul(&ch.beta, &p.x)
	f.Add(&p.a, &t)
	f.Add(&f, &ch.gamma)
	p1 = f
	t.Mul(&ch.beta, &p.x)
	t.Mul(&t, &ch.k1)
	f.Add(&p.b, &t)
	f.Add(&f, &ch.gamma)
	p1.Mul(&p1, &f)
	t.Mul(&ch.beta, &p.x)
	t.Mul(&t, &ch.k2)
	f.Add(&p.c, &t)
	f.Add(&f, &ch.gamma)
	p1.Mul(&p1, &f)
	p1.Mul(&p1, &p.z)

	t.Mul(&ch.beta, &p.s1)
	f.Add(&p.a, &t)
	f.Add(&f, &ch.gamma)
	p2 = f
	t.Mul(&ch.beta, &p.s2)
	f.Add(&p.b, &t)
	f.Add(&f, &ch.gamma)
	p2.Mul(&p2, &f)
	t.Mul(&ch.beta, &p.s3)
	f.Add(&p.c, &t)
	f.Add(&f, &ch.gamma)
	p2.Mul(&p2, &f)
	p2.Mul(&p2, &p.zw)

	t.Sub(&p1, &p2)
	t.Mul(&t, &ch.alphaPow[1])
	acc.Add(&acc, &t)

	// C2: L1·(z − 1).
	one := fr.One()
	t.Sub(&p.z, &one)
	t.Mul(&t, &p.l1)
	t.Mul(&t, &ch.alphaPow[2])
	acc.Add(&acc, &t)

	if sh.lookup() {
		// C3: H·(βL+a)·(βL+T) − qLk·(βL+T) + M·(βL+a).
		var la, lt fr.Element
		la.Add(&ch.betaL, &p.a)
		lt.Add(&ch.betaL, &p.tbl)
		t.Mul(&p.h, &la)
		t.Mul(&t, &lt)
		t2.Mul(&p.qlk, &lt)
		t.Sub(&t, &t2)
		t2.Mul(&p.m, &la)
		t.Add(&t, &t2)
		t.Mul(&t, &ch.alphaPow[3])
		acc.Add(&acc, &t)

		// C4: S(ωx) − S(x) − H(x).
		t.Sub(&p.sw, &p.s)
		t.Sub(&t, &p.h)
		t.Mul(&t, &ch.alphaPow[4])
		acc.Add(&acc, &t)

		// C5: L1·S.
		t.Mul(&p.l1, &p.s)
		t.Mul(&t, &ch.alphaPow[5])
		acc.Add(&acc, &t)
	}

	// C6–C8, α^{6+l}-weighted and summed over the lanes: a full round is
	// Σ_j mdsAlpha_j·w_j^5 − y, a partial one mdsAlpha_0·a^5 + mdsAlpha_1·b +
	// mdsAlpha_2·c − y, each under its selector, plus Σ_l α^{6+l}·K_l.
	var a5, full, part fr.Element
	pow5(&a5, &p.a)
	t.Mul(&ch.mdsAlpha[0], &a5)
	full.Sub(&t, &p.y)
	part = full
	pow5(&t2, &p.b)
	t2.Mul(&t2, &ch.mdsAlpha[1])
	full.Add(&full, &t2)
	pow5(&t2, &p.c)
	t2.Mul(&t2, &ch.mdsAlpha[2])
	full.Add(&full, &t2)
	full.Mul(&full, &p.qposf)
	acc.Add(&acc, &full)
	t.Mul(&ch.mdsAlpha[1], &p.b)
	part.Add(&part, &t)
	t.Mul(&ch.mdsAlpha[2], &p.c)
	part.Add(&part, &t)
	part.Mul(&part, &p.qposp)
	acc.Add(&acc, &part)
	t = ch.nextRow(&p.k0, &p.k1c, &p.k2c)
	acc.Add(&acc, &t)
	return acc
}

// linearColumns lists the fields of p that quotientNumerator reads only
// linearly for shape sh — no product of two of them occurs in C0–C8 — so a
// proof folds them into its linearization instead of opening them: the five
// gate selectors, σ3 and z, then M, H, S and the lookup selector on a lookup
// key, then the two Poseidon round selectors and K0–K2.
// The prover's polynomials and the verifier's commitments follow this order.
func (p *pointVals) linearColumns(sh shape) []*fr.Element {
	cols := []*fr.Element{&p.ql, &p.qr, &p.qo, &p.qm, &p.qc, &p.s3, &p.z}
	if sh.lookup() {
		cols = append(cols, &p.m, &p.h, &p.s, &p.qlk)
	}
	return append(cols, &p.qposf, &p.qposp, &p.k0, &p.k1c, &p.k2c)
}

// linearize splits quotientNumerator at p into its constant term and one
// scalar per linear column: with the other fields of p fixed, the numerator
// is c0 + Σ_j scalars[j]·col_j. The split is read off quotientNumerator
// itself — c0 with every linear column at zero, scalars[j] from column j
// alone at one — so C0–C8 stay written once; TestLinearizationIsAffine
// checks the joint affinity that makes it exact. p's linear columns are
// ignored.
func linearize(p pointVals, ch *challenges, sh shape) (c0 fr.Element, scalars []fr.Element) {
	cols := p.linearColumns(sh)
	for _, c := range cols {
		c.SetZero()
	}
	c0 = quotientNumerator(&p, ch, sh)
	scalars = make([]fr.Element, len(cols))
	for j, c := range cols {
		c.SetOne()
		scalars[j] = quotientNumerator(&p, ch, sh)
		scalars[j].Sub(&scalars[j], &c0)
		c.SetZero()
	}
	return c0, scalars
}

// buildMultiplicities counts, for each range-table value, how many lookup
// rows carry it, writing the multiplicity column over the domain into mV
// (table value v lives on row v; every row is written) with counts, one
// slot per table value, as its tally. Witness values outside the table are
// rejected — this is the prover-side half of lookup soundness (the
// verifier-side half is the C3/C4/C5 identity, which an out-of-table value
// cannot satisfy for a random β_L).
func buildMultiplicities(mV []fr.Element, counts []uint64, gates []Gate, witness []fr.Element, tableBits int) error {
	clear(mV)
	if tableBits == 0 {
		return nil
	}
	size := uint64(1) << tableBits
	if size > uint64(len(mV)) {
		return fmt.Errorf("%w: 2^%d table exceeds domain size %d", ErrTableTooLarge, tableBits, len(mV))
	}
	counts = counts[:size]
	clear(counts)
	for i, g := range gates {
		if g.Kind != KindLookup {
			continue
		}
		v, ok := witness[g.A].Uint64()
		if !ok || v >= size {
			return fmt.Errorf("%w: gate %d", ErrLookupRange, i)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c != 0 {
			mV[v] = fr.NewElement(c)
		}
	}
	return nil
}

// buildLogUpColumns writes the H and S evaluation vectors into hV and sV
// from the wire column, multiplicities, table and lookup-selector rows,
// given β_L:
//
//	H_i = qLk_i/(β_L+a_i) − M_i/(β_L+T_i),  S_0 = 0, S_{i+1} = S_i + H_i.
//
// la and lt are scratch of the same length, and hV and sV are the two
// inversions' scratch before they are written. The two inversion batches
// dominate; everything else is linear.
func buildLogUpColumns(hV, sV, la, lt []fr.Element, gates []Gate, aV, mV, tblV []fr.Element, betaL fr.Element) {
	n := len(aV)
	for i := 0; i < n; i++ {
		la[i].Add(&betaL, &aV[i])
		lt[i].Add(&betaL, &tblV[i])
	}
	fr.BatchInvertWith(la, hV)
	fr.BatchInvertWith(lt, sV)
	for i := 0; i < n; i++ {
		var t fr.Element
		hV[i].SetZero()
		if i < len(gates) && gates[i].Kind == KindLookup {
			hV[i] = la[i]
		}
		t.Mul(&mV[i], &lt[i])
		hV[i].Sub(&hV[i], &t)
	}
	sV[0].SetZero()
	for i := 0; i < n-1; i++ {
		sV[i+1].Add(&sV[i], &hV[i])
	}
}

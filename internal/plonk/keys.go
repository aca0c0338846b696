package plonk

import (
	"errors"
	"fmt"
	"sync"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/obs"
	"github.com/zkdet/zkdet/internal/parallel"
	"github.com/zkdet/zkdet/internal/poly"
)

// Coset multipliers for the permutation argument. k1 and k2 must place
// k1·H and k2·H in cosets disjoint from H and from each other, i.e. none of
// k1, k2, k2/k1 may lie in H. 5 generates F_r*, so 5^e ∈ H only when
// (r-1)/|H| divides e: with e ∈ {1, 2} that needs |H| ≥ (r-1)/2, and every
// domain size (2^k or 3·2^k, ≤ 2^28) is far below it.
// TestPermutationCosetsDisjoint checks each legal size instead of trusting
// this.
const (
	permK1 = 5
	permK2 = 25
)

// shape is the proof encoding's flags byte. Every key proves on the
// custom-gate layout, so bit 1 is always set and the one feature bit is bit
// 0, lookups: there are two shapes, custom (0x02) and lookup + custom
// (0x03). ProofFromBytes refuses flags 0x00 and 0x01 (ErrProofShape).
type shape byte

const (
	// shapeLookup: the circuit has lookup rows, so proofs carry the LogUp
	// columns M, H, S and the quotient adds C3–C5.
	shapeLookup shape = 1 << 0
	// shapeCustom: the next-row custom-gate identities C6–C8, which every
	// key carries; a circuit without Poseidon rows has zero selectors there.
	shapeCustom shape = 1 << 1
)

func (s shape) lookup() bool { return s&shapeLookup != 0 }

func newShape(lookup bool) shape {
	if lookup {
		return shapeCustom | shapeLookup
	}
	return shapeCustom
}

// quotientPieces is how many pieces a proof commits its quotient in: pieces
// of 3n coefficients, the last taking the remainder of the 5n+6 the degree-5
// S-boxes give it.
const quotientPieces = 2

// ProvingKey holds everything the prover needs: the preprocessed selector
// and permutation polynomials (coefficient form), the evaluation domain,
// and the SRS.
type ProvingKey struct {
	Domain *poly.Domain
	// quotient is the coset evaluation domain of the round-3 quotient
	// build: the smallest supported multiple of n that holds the quotient's
	// degree (see quotientMultiple). It is preprocessed here so repeated
	// proofs (the marketplace/exchange flows in internal/core prove against
	// one key many times) don't pay domain construction — and, via the
	// domain's lazy caches, re-derive twiddle/coset tables — per proof.
	quotient *poly.Domain
	SRS      *kzg.SRS

	// Selector polynomials qL, qR, qO, qM, qC in coefficient form.
	QL, QR, QO, QM, QC poly.Polynomial
	// Permutation polynomials sσ1, sσ2, sσ3 in coefficient form.
	S1, S2, S3 poly.Polynomial

	// Lookup and custom-gate preprocessing (see columns): QLk is the lookup
	// selector and Tbl the range-table polynomial, present only on a lookup
	// key; QPosF/QPosP are the Poseidon round selectors and KC0..KC2 the
	// per-row constants a round adds after its MDS, zero on a circuit
	// without Poseidon rows.
	QLk, Tbl      poly.Polynomial
	QPosF, QPosP  poly.Polynomial
	KC0, KC1, KC2 poly.Polynomial
	shape         shape
	tableBits     int
	mds           [3][3]fr.Element

	// sigma maps each of the 3n wire slots to its permuted slot's field
	// label; used when building the grand-product polynomial z.
	sigmaLabel [][3]fr.Element // per-row labels for the three wires

	// Round-3 tables over the coset of quotient, x_i = g·ω_Eⁱ, which depend
	// on the key alone and not on any witness. Setup builds them eagerly and
	// nothing writes them afterwards: a key is shared between concurrently
	// proving goroutines (the marketplace caches one per circuit shape), so
	// they must never be filled lazily. fixedCoset holds the coset
	// evaluations of the preprocessed polynomials, in columns() order,
	// cosetX the points x_i, cosetL1 the values L1(x_i) and zhInv the
	// inverses of Z_H(x_i), which repeat with period |quotient|/n.
	fixedCoset [][]fr.Element
	cosetX     []fr.Element
	cosetL1    []fr.Element
	zhInv      []fr.Element

	// Gate wiring and counts, retained to evaluate witnesses.
	gates    []Gate
	nbPublic int
	nbVars   int

	// tblValues is the range table over the rows, t_i = min(i, 2^bits − 1),
	// which a lookup proof reads to build its LogUp columns; Tbl is its
	// interpolation.
	tblValues []fr.Element

	// idle holds the workspace of the last proof that is done, at most one
	// (see putWorkspace).
	idle chan *workspace
	// phases holds one histogram of durations per Phase.
	phases [NbPhases]obs.Histogram

	VK *VerifyingKey
}

// VerifyingKey is the succinct public key: one commitment per preprocessed
// polynomial plus the domain description.
type VerifyingKey struct {
	N        uint64
	NbPublic int

	QL, QR, QO, QM, QC kzg.Commitment
	S1, S2, S3         kzg.Commitment

	// Lookup is set when the circuit has lookup rows: its proofs carry the
	// LogUp polynomials M, H, S and the two LogUp openings, and the key
	// commits 15 preprocessed columns instead of 13.
	Lookup    bool
	TableBits int
	// MDS is the Poseidon matrix the custom rounds multiply by; the
	// verifier linearizes the round constraint at ζ and needs it.
	MDS [3][3]fr.Element
	// Commitments to the lookup and custom-gate columns; QLk and Tbl stay
	// the zero Commitment on a key without lookups and are never absorbed or
	// read.
	QLk, Tbl      kzg.Commitment
	QPosF, QPosP  kzg.Commitment
	KC0, KC1, KC2 kzg.Commitment

	// G2 points of the SRS needed for pairing checks.
	G2 [2]bn254.G2Affine

	// K1, K2 are the permutation coset multipliers.
	K1, K2 fr.Element

	// Verifier caches, built once on first verification: the evaluation
	// domain (so repeated Verify calls stop paying domain construction),
	// the ω-power prefix feeding the public-input Lagrange terms, and the
	// Miller-loop line tables for the two fixed G2 points.
	cacheOnce sync.Once
	domain    *poly.Domain
	domainErr error
	lagOmega  []fr.Element
	g2Lines   [2]*bn254.G2LinePrecomp
}

// verifierCache builds (once) and returns the cached evaluation domain,
// the ω-power prefix ω⁰ … ω^(max(1,NbPublic)-1), and the precomputed G2
// line tables for the pairing check.
func (vk *VerifyingKey) verifierCache() (*poly.Domain, []fr.Element, [2]*bn254.G2LinePrecomp, error) {
	vk.cacheOnce.Do(func() {
		vk.domain, vk.domainErr = exactDomain(vk.N)
		if vk.domainErr != nil {
			return
		}
		n := vk.NbPublic
		if n < 1 {
			n = 1 // L_1 is always needed for the grand-product boundary term
		}
		vk.lagOmega = make([]fr.Element, n)
		for i := range vk.lagOmega {
			vk.lagOmega[i] = vk.domain.Element(uint64(i))
		}
		vk.g2Lines[0] = bn254.NewG2LinePrecomp(&vk.G2[0])
		vk.g2Lines[1] = bn254.NewG2LinePrecomp(&vk.G2[1])
	})
	return vk.domain, vk.lagOmega, vk.g2Lines, vk.domainErr
}

// shape returns the key's flags byte.
func (vk *VerifyingKey) shape() shape { return newShape(vk.Lookup) }

// SameSRS reports whether two keys were set up over one SRS (equal G2
// points): only then can their proofs share a pairing check.
func (vk *VerifyingKey) SameSRS(o *VerifyingKey) bool {
	return vk.G2[0].Equal(&o.G2[0]) && vk.G2[1].Equal(&o.G2[1])
}

// columns lists the key's preprocessed polynomials, which are exactly the
// ones its shape's identities read: the eight selector and permutation
// columns, then QLk and Tbl on a lookup key, then the two Poseidon round
// selectors and the three round-constant columns — 13 or 15. It is the
// order of Setup's interpolation, of fixedCoset and the prover's column
// indices, and of VerifyingKey.columns, its mirror.
func (pk *ProvingKey) columns() []poly.Polynomial {
	ps := []poly.Polynomial{pk.QL, pk.QR, pk.QO, pk.QM, pk.QC, pk.S1, pk.S2, pk.S3}
	if pk.shape.lookup() {
		ps = append(ps, pk.QLk, pk.Tbl)
	}
	return append(ps, pk.QPosF, pk.QPosP, pk.KC0, pk.KC1, pk.KC2)
}

// columns lists the key's preprocessed commitments in ProvingKey.columns
// order: Setup's commitment targets and, after the first eight, the
// transcript's "vk-ext" absorbs.
func (vk *VerifyingKey) columns() []*kzg.Commitment {
	cs := []*kzg.Commitment{&vk.QL, &vk.QR, &vk.QO, &vk.QM, &vk.QC, &vk.S1, &vk.S2, &vk.S3}
	if vk.Lookup {
		cs = append(cs, &vk.QLk, &vk.Tbl)
	}
	return append(cs, &vk.QPosF, &vk.QPosP, &vk.KC0, &vk.KC1, &vk.KC2)
}

// exactDomain returns the domain of exactly n points. poly.NewDomain rounds
// up to the next supported size, and a key whose N is not one would have
// its ω taken from a different group than its Z_H = X^N − 1.
func exactDomain(n uint64) (*poly.Domain, error) {
	d, err := poly.NewDomain(n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDomainSize, err)
	}
	if d.N != n {
		return nil, fmt.Errorf("%w: %d (the next supported size is %d)", ErrDomainSize, n, d.N)
	}
	return d, nil
}

// quotientMultiple returns how many times larger than the n-point domain
// the quotient coset is. With every witness column blinded to degree ≤ n+2,
// the degree-5 S-boxes of the custom gates give the quotient degree ≤ 5n+5:
// 6n points when 6n is a supported size (n a power of two), 8n when it is
// not (n = 3·2^k, where 6n and 7n are neither 2^j nor 3·2^j).
func quotientMultiple(n uint64) uint64 {
	if n&(n-1) == 0 {
		return 6
	}
	return 8
}

// srsPowers is how many SRS powers a key on an n-row domain commits with:
// its longest polynomials are the quotient's first piece and round 5's fold
// at ζ, 3n coefficients each. The second piece is 2n+6, shorter on every
// domain (n ≥ 8); the blinded wires are n+2 and z and S n+3.
func srsPowers(n uint64) int { return 3 * int(n) }

// SRSPowers is how many SRS powers Setup asks of a circuit whose domain
// must hold rows rows: 3N, N the smallest supported domain size ≥ rows.
func SRSPowers(rows int) (int, error) {
	d, err := poly.NewDomain(uint64(max(rows, 1)))
	if err != nil {
		return 0, fmt.Errorf("plonk: %w", err)
	}
	return srsPowers(d.N), nil
}

// cosetEvals writes into cols[i], of d.N elements, the evaluations of ps[i]
// over the coset of d: independent FFTs, run on the bounded worker pool.
func cosetEvals(d *poly.Domain, cols [][]fr.Element, ps []poly.Polynomial) error {
	errs := make([]error, len(ps))
	parallel.Execute(len(ps), func(start, end int) {
		for i := start; i < end; i++ {
			e := cols[i]
			clear(e[copy(e, ps[i]):])
			errs[i] = d.FFTCoset(e)
		}
	})
	return errors.Join(errs...)
}

// buildQuotientTables fills the key-resident round-3 tables; Setup calls it
// once, before the key is published.
func (pk *ProvingKey) buildQuotientTables() error {
	domainE := pk.quotient
	cols := pk.columns()
	pk.fixedCoset = make([][]fr.Element, len(cols))
	for i := range cols {
		pk.fixedCoset[i] = make([]fr.Element, domainE.N)
	}
	if err := cosetEvals(domainE, pk.fixedCoset, cols); err != nil {
		return err
	}
	n, big := pk.Domain.N, domainE.N
	factor := big / n // coset index step corresponding to one ω step

	// Coset points x_i = g·ω_Eⁱ.
	pk.cosetX = fr.Powers(&domainE.Gen, int(big))
	parallel.Execute(int(big), func(start, end int) {
		for i := start; i < end; i++ {
			pk.cosetX[i].Mul(&pk.cosetX[i], &domainE.CosetShift)
		}
	})

	// Z_H(x_i) = gⁿ·ω_E^(n·i) − 1 takes only big/n distinct values.
	var cur fr.Element
	cur.ExpUint64(&domainE.CosetShift, n)
	wEn := domainE.Element(n) // primitive (big/n)-th root of unity
	one := fr.One()
	zh := make([]fr.Element, factor)
	for i := range zh {
		zh[i].Sub(&cur, &one)
		cur.Mul(&cur, &wEn)
	}
	pk.zhInv = append([]fr.Element(nil), zh...)
	fr.BatchInvert(pk.zhInv)

	// L1(x) = Z_H(x) / (n·(x−1)).
	pk.cosetL1 = make([]fr.Element, big)
	nEl := fr.NewElement(n)
	parallel.Execute(int(big), func(start, end int) {
		for i := start; i < end; i++ {
			pk.cosetL1[i].Sub(&pk.cosetX[i], &one)
			pk.cosetL1[i].Mul(&pk.cosetL1[i], &nEl)
		}
	})
	fr.BatchInvert(pk.cosetL1)
	parallel.Execute(int(big), func(start, end int) {
		for i := start; i < end; i++ {
			pk.cosetL1[i].Mul(&pk.cosetL1[i], &zh[uint64(i)%factor])
		}
	})
	return nil
}

// Setup preprocesses a constraint system against an SRS, producing the
// proving and verifying keys. This is circuit-specific but one-time; the
// universal SRS is reused across circuits (Plonk's "universal setup").
func Setup(cs *ConstraintSystem, srs *kzg.SRS) (*ProvingKey, *VerifyingKey, error) {
	if cs.nbVariables == 0 {
		return nil, nil, ErrEmptyCircuit
	}
	// The domain is the smallest supported size that holds every row and,
	// with lookups, the range table, which lives on the domain itself: one
	// row per value. A custom gate on the last domain row would read row 0
	// through the ω-shift, so every circuit keeps at least one padding row
	// for the next-row read to land on.
	rows := max(uint64(len(cs.gates))+1, 8)
	sh := newShape(cs.hasLookup)
	if cs.hasLookup && rows < uint64(1)<<cs.tableBits {
		rows = uint64(1) << cs.tableBits
	}
	domain, err := poly.NewDomain(rows)
	if err != nil {
		return nil, nil, fmt.Errorf("plonk: %w", err)
	}
	n := domain.N
	quotient, err := exactDomain(quotientMultiple(n) * n)
	if err != nil {
		return nil, nil, err
	}
	if len(srs.G1) < srsPowers(n) {
		return nil, nil, fmt.Errorf("%w: srs has %d powers, circuit needs %d",
			ErrSRSTooSmall, len(srs.G1), srsPowers(n))
	}

	// Selector evaluation vectors over the domain (zero-padded rows are
	// no-op gates): the arithmetic selectors, the Poseidon round selectors
	// and round-constant columns, and with lookups the lookup selector and
	// the range table t_i = min(i, max).
	col := func() []fr.Element { return make([]fr.Element, n) }
	pk := &ProvingKey{
		Domain: domain, quotient: quotient, SRS: srs,
		QL: col(), QR: col(), QO: col(), QM: col(), QC: col(),
		QPosF: col(), QPosP: col(), KC0: col(), KC1: col(), KC2: col(),
		shape: sh, tableBits: cs.tableBits, mds: cs.mds,
		gates:    append([]Gate(nil), cs.gates...),
		nbPublic: cs.nbPublic,
		nbVars:   cs.nbVariables,
		idle:     make(chan *workspace, 1),
	}
	if sh.lookup() {
		pk.tblValues = rangeTableValues(cs.tableBits, n)
		pk.QLk, pk.Tbl = col(), append(poly.Polynomial(nil), pk.tblValues...)
	}
	one := fr.One()
	for i, g := range cs.gates {
		pk.QL[i], pk.QR[i], pk.QO[i], pk.QM[i], pk.QC[i] = g.QL, g.QR, g.QO, g.QM, g.QC
		switch g.Kind {
		case KindLookup:
			pk.QLk[i] = one
		case KindPoseidonFull:
			pk.QPosF[i] = one
		case KindPoseidonPartial:
			pk.QPosP[i] = one
		}
		if g.Kind.IsCustom() {
			pk.KC0[i], pk.KC1[i], pk.KC2[i] = g.K[0], g.K[1], g.K[2]
		}
	}

	// Copy-constraint permutation over 3n slots. Slots sharing a variable
	// form one cycle; σ advances each slot to the next in its cycle.
	slotsPerVar := make([][]int, cs.nbVariables)
	varAt := func(slot int) int {
		wire, row := slot/int(n), slot%int(n)
		var g Gate
		if row < len(cs.gates) {
			g = cs.gates[row]
		} // padding rows wire all slots to variable 0
		switch wire {
		case 0:
			return g.A
		case 1:
			return g.B
		default:
			return g.C
		}
	}
	totalSlots := 3 * int(n)
	for s := 0; s < totalSlots; s++ {
		v := varAt(s)
		slotsPerVar[v] = append(slotsPerVar[v], s)
	}
	sigma := make([]int, totalSlots)
	for _, slots := range slotsPerVar {
		for i, s := range slots {
			sigma[s] = slots[(i+1)%len(slots)]
		}
	}

	// Field labels: slot s in wire column w, row r ↦ k_w · ω^r with
	// k_0 = 1, k_1 = permK1, k_2 = permK2.
	omega := domain.Elements()
	k1 := fr.NewElement(permK1)
	k2 := fr.NewElement(permK2)
	label := func(slot int) fr.Element {
		wire, row := slot/int(n), slot%int(n)
		l := omega[row]
		switch wire {
		case 1:
			l.Mul(&l, &k1)
		case 2:
			l.Mul(&l, &k2)
		}
		return l
	}
	pk.S1, pk.S2, pk.S3 = col(), col(), col()
	pk.sigmaLabel = make([][3]fr.Element, n)
	for r := 0; r < int(n); r++ {
		pk.S1[r] = label(sigma[r])
		pk.S2[r] = label(sigma[int(n)+r])
		pk.S3[r] = label(sigma[2*int(n)+r])
		pk.sigmaLabel[r] = [3]fr.Element{pk.S1[r], pk.S2[r], pk.S3[r]}
	}

	// Interpolate every column to coefficient form, in place.
	sw := newStopwatch()
	for _, c := range pk.columns() {
		if err := domain.IFFT(c); err != nil {
			return nil, nil, err
		}
	}
	sw.lap(PhaseSetupInterpolate)
	if err := pk.buildQuotientTables(); err != nil {
		return nil, nil, err
	}
	sw.lap(PhaseSetupCosets)

	vk := &VerifyingKey{
		N:         n,
		NbPublic:  cs.nbPublic,
		G2:        srs.G2,
		K1:        k1,
		K2:        k2,
		Lookup:    cs.hasLookup,
		TableBits: cs.tableBits,
		MDS:       cs.mds,
	}
	// The preprocessed commitments are independent MSMs.
	if err := commitParallel(srs, pk.columns(), vk.columns()); err != nil {
		return nil, nil, err
	}
	sw.lap(PhaseSetupCommit)
	sw.record(pk, PhaseSetupInterpolate, NbPhases)
	pk.VK = vk
	return pk, vk, nil
}

// rangeTableValues returns the domain-evaluation vector of the range
// table: t_i = i for i < 2^bits, then the last value repeated so padding
// rows stay inside the table (their multiplicity simply stays 0).
func rangeTableValues(bits int, n uint64) []fr.Element {
	t := make([]fr.Element, n)
	size := uint64(1) << bits
	for i := uint64(0); i < n; i++ {
		v := i
		if v >= size {
			v = size - 1
		}
		t[i] = fr.NewElement(v)
	}
	return t
}

// Package plonk implements the Plonk zkSNARK (Gabizon–Williamson–Ciobotaru,
// "PLONK: Permutations over Lagrange-bases for Oecumenical Noninteractive
// arguments of Knowledge") over BN254 with KZG commitments — the proof
// system ZKDET uses for every π_e, π_t, π_p and π_k.
//
// The implementation follows the paper's five-round protocol with its
// linearization: the prover opens at the evaluation challenge ζ only the
// polynomials the constraint identities read non-linearly, and every column
// they read linearly — the selectors, σ3, z and the quotient pieces — enters
// one linearization commitment the verifier forms inside its MSM. A classic
// proof is the paper's 9 G1 points — [a], [b], [c], [z], [t_lo], [t_mid],
// [t_hi], [W_ζ], [W_ζω] — and 6 field elements (a, b, c, σ1, σ2 at ζ and z
// at ζω), checked with 2 pairings and an 18-point MSM (§VI-B3).
package plonk

import (
	"errors"
	"fmt"

	"github.com/zkdet/zkdet/internal/fr"
)

// Common errors returned by this package.
var (
	ErrUnsatisfied   = errors.New("plonk: constraint system not satisfied")
	ErrProofInvalid  = errors.New("plonk: proof verification failed")
	ErrWrongPublic   = errors.New("plonk: wrong number of public inputs")
	ErrSRSTooSmall   = errors.New("plonk: SRS too small for circuit")
	ErrEmptyCircuit  = errors.New("plonk: circuit has no variables")
	ErrWitnessLength = errors.New("plonk: witness length mismatch")
	ErrLookupRange   = errors.New("plonk: lookup value outside range table")
	ErrNoRangeTable  = errors.New("plonk: lookup gate without a range table")
	ErrNoMDS         = errors.New("plonk: poseidon gate without an MDS matrix")
	ErrProofShape    = errors.New("plonk: proof shape does not match verifying key")
	ErrTableTooLarge = errors.New("plonk: range table bits out of range")
	ErrDomainSize    = errors.New("plonk: not a supported evaluation-domain size")
	// ErrProofVersion refuses a proof encoding of another format version,
	// such as a version-1 proof, which opened every committed polynomial.
	ErrProofVersion = errors.New("plonk: unsupported proof format version")
)

// GateKind selects the constraint family a gate row enforces. The zero
// value is the classic arithmetic gate; the other kinds are the custom
// gates and lookup rows of the plookup extension (DESIGN.md §15). Rows of
// any kind still carry the arithmetic selectors (zero for the generated
// gadgets) and participate in the copy-constraint permutation.
type GateKind uint8

const (
	// KindArith is the classic qL·a + qR·b + qO·c + qM·a·b + qC gate.
	KindArith GateKind = iota
	// KindLookup asserts that the a-wire's value appears in the range
	// table (i.e. 0 ≤ a < 2^TableBits), via the log-derivative lookup
	// argument instead of a bit decomposition.
	KindLookup
	// KindMiMC packs one MiMC round t' = (t+k+rc)^7 into a single row:
	// wires (a,b,c) = (t, k, u²) with u = a+b+K0, constraining c = u² and
	// nextrow.a = c³·u. The round constant rides in K[0].
	KindMiMC
	// KindPoseidonFull packs one full Poseidon round: wires carry the
	// state, K the round constants, and the next row's wires must equal
	// MDS·(w+K)^5 lane-wise.
	KindPoseidonFull
	// KindPoseidonPartial is the partial round: only lane a is S-boxed.
	KindPoseidonPartial
)

// isCustom reports whether the kind reads the next row's wires.
func (k GateKind) isCustom() bool {
	return k == KindMiMC || k == KindPoseidonFull || k == KindPoseidonPartial
}

// Gate is one Plonk gate row: for KindArith the constraint
//
//	qL·a + qR·b + qO·c + qM·a·b + qC + PI = 0
//
// where a, b, c are the values of the three wired variables and PI is the
// public-input polynomial (non-zero only on the first NbPublic rows).
// Other kinds add their family's constraint on top (the arithmetic
// selectors are still enforced and are normally zero on such rows).
type Gate struct {
	QL, QR, QO, QM, QC fr.Element
	// Kind selects the constraint family (zero value: arithmetic).
	Kind GateKind
	// K carries per-row custom-gate constants (round constants); unused
	// for arithmetic and lookup rows.
	K [3]fr.Element
	// A, B, C are variable indices wired into this gate's three slots.
	A, B, C int
}

// ConstraintSystem is a gate list plus wiring. Variables are dense integer
// indices; the first NbPublic variables are the public inputs, and the
// system's first NbPublic gates expose them (a-wire = input, qL = 1).
type ConstraintSystem struct {
	nbPublic    int
	nbVariables int
	gates       []Gate

	tableBits int              // range table covers [0, 2^tableBits)
	mds       [3][3]fr.Element // Poseidon MDS matrix for the custom rounds
	mdsSet    bool
	hasLookup bool
	hasCustom bool
}

// NewConstraintSystem creates a system with nbPublic public-input
// variables (variables 0 … nbPublic-1) and their exposure gates.
func NewConstraintSystem(nbPublic int) *ConstraintSystem {
	cs := &ConstraintSystem{nbPublic: nbPublic, nbVariables: nbPublic}
	for i := 0; i < nbPublic; i++ {
		cs.gates = append(cs.gates, Gate{QL: fr.One(), A: i, B: i, C: i})
	}
	return cs
}

// NbVariables returns the total number of variables.
func (cs *ConstraintSystem) NbVariables() int { return cs.nbVariables }

// NbGates returns the number of gates (including public-input gates).
//
//lint:ignore testonly the apps/logreg lookup test compares the classic and lookup constraint counts
func (cs *ConstraintSystem) NbGates() int { return len(cs.gates) }

// NewVariable allocates a fresh variable index.
func (cs *ConstraintSystem) NewVariable() int {
	v := cs.nbVariables
	cs.nbVariables++
	return v
}

// MaxTableBits caps the range table: 2^20 rows already dominates any
// circuit here, and the SRS must cover the table.
const MaxTableBits = 20

// UseRangeTable declares that this system's lookup rows check membership
// in the table {0, 1, …, 2^bits − 1}. Must be called before adding the
// first KindLookup gate.
func (cs *ConstraintSystem) UseRangeTable(bits int) error {
	if bits < 1 || bits > MaxTableBits {
		return fmt.Errorf("%w: %d bits", ErrTableTooLarge, bits)
	}
	cs.tableBits = bits
	return nil
}

// RangeTableBits returns the declared range-table width, 0 if none.
//
//lint:ignore testonly the circuit package's tests pin that a classic build declares no range table
func (cs *ConstraintSystem) RangeTableBits() int { return cs.tableBits }

// SetPoseidonMDS installs the MDS matrix the Poseidon custom gates
// multiply by. It becomes part of the verifying key.
func (cs *ConstraintSystem) SetPoseidonMDS(m [3][3]fr.Element) {
	cs.mds = m
	cs.mdsSet = true
}

// HasLookup reports whether any gate row is a lookup.
//
//lint:ignore testonly the circuit package's tests pin which builds emit lookup rows
func (cs *ConstraintSystem) HasLookup() bool { return cs.hasLookup }

// HasCustomGates reports whether any gate row uses a custom (next-row)
// constraint family.
//
//lint:ignore testonly the circuit, mimc and poseidon tests pin which builds emit custom rows
func (cs *ConstraintSystem) HasCustomGates() bool { return cs.hasCustom }

// AddGate appends a gate. Wire indices must reference existing variables.
func (cs *ConstraintSystem) AddGate(g Gate) error {
	for _, w := range []int{g.A, g.B, g.C} {
		if w < 0 || w >= cs.nbVariables {
			return fmt.Errorf("plonk: gate references unknown variable %d (have %d)", w, cs.nbVariables)
		}
	}
	switch {
	case g.Kind == KindLookup:
		if cs.tableBits == 0 {
			return ErrNoRangeTable
		}
		cs.hasLookup = true
	case g.Kind == KindPoseidonFull || g.Kind == KindPoseidonPartial:
		if !cs.mdsSet {
			return ErrNoMDS
		}
		cs.hasCustom = true
	case g.Kind == KindMiMC:
		cs.hasCustom = true
	}
	cs.gates = append(cs.gates, g)
	return nil
}

// MustAddGate is AddGate for programmatically-generated gates; it panics on
// wiring errors, which are always construction bugs.
func (cs *ConstraintSystem) MustAddGate(g Gate) {
	if err := cs.AddGate(g); err != nil {
		panic(err)
	}
}

// IsSatisfied checks every gate against the witness directly (no crypto).
// The witness must assign all variables; its first NbPublic entries are the
// public inputs. This is the reference semantics the SNARK must agree with,
// and the first thing to reach for when a proof unexpectedly fails.
func (cs *ConstraintSystem) IsSatisfied(witness []fr.Element) error {
	if len(witness) != cs.nbVariables {
		return fmt.Errorf("%w: got %d, want %d", ErrWitnessLength, len(witness), cs.nbVariables)
	}
	for i, g := range cs.gates {
		a, b, c := witness[g.A], witness[g.B], witness[g.C]
		var acc, t fr.Element
		t.Mul(&g.QL, &a)
		acc.Add(&acc, &t)
		t.Mul(&g.QR, &b)
		acc.Add(&acc, &t)
		t.Mul(&g.QO, &c)
		acc.Add(&acc, &t)
		t.Mul(&a, &b)
		t.Mul(&t, &g.QM)
		acc.Add(&acc, &t)
		acc.Add(&acc, &g.QC)
		if i < cs.nbPublic {
			// PI(ω^i) = -x_i.
			acc.Sub(&acc, &witness[i])
		}
		if !acc.IsZero() {
			return fmt.Errorf("%w: gate %d", ErrUnsatisfied, i)
		}
		switch g.Kind {
		case KindLookup:
			if v, ok := a.Uint64(); !ok || v >= uint64(1)<<cs.tableBits {
				return fmt.Errorf("%w: gate %d", ErrLookupRange, i)
			}
		case KindMiMC, KindPoseidonFull, KindPoseidonPartial:
			// Custom gates read the following row's wires; past the last
			// gate the prover pads with rows wired to variable 0, matching
			// the polynomial identity on the padded domain.
			na, nb, nc := witness[0], witness[0], witness[0]
			if i+1 < len(cs.gates) {
				ng := cs.gates[i+1]
				na, nb, nc = witness[ng.A], witness[ng.B], witness[ng.C]
			}
			if err := checkCustomGate(g, cs.mds, a, b, c, na, nb, nc); err != nil {
				return fmt.Errorf("%w: gate %d", err, i)
			}
		}
	}
	return nil
}

// checkCustomGate evaluates one custom-gate family on concrete wire values;
// it is the reference semantics mirrored by the prover's quotient and the
// verifier's evaluation at ζ.
func checkCustomGate(g Gate, mds [3][3]fr.Element, a, b, c, na, nb, nc fr.Element) error {
	switch g.Kind {
	case KindMiMC:
		// u = a + b + K0; constraints c = u² and na = c³·u  (⇒ na = u⁷).
		var u, u2, t fr.Element
		u.Add(&a, &b)
		u.Add(&u, &g.K[0])
		u2.Square(&u)
		if !u2.Equal(&c) {
			return ErrUnsatisfied
		}
		t.Square(&c)
		t.Mul(&t, &c)
		t.Mul(&t, &u)
		if !t.Equal(&na) {
			return ErrUnsatisfied
		}
	case KindPoseidonFull, KindPoseidonPartial:
		w := [3]fr.Element{a, b, c}
		next := [3]fr.Element{na, nb, nc}
		var sb [3]fr.Element
		for j := 0; j < 3; j++ {
			var t fr.Element
			t.Add(&w[j], &g.K[j])
			if g.Kind == KindPoseidonFull || j == 0 {
				var t2 fr.Element
				t2.Square(&t)
				t2.Square(&t2)
				t.Mul(&t2, &t)
			}
			sb[j] = t
		}
		for l := 0; l < 3; l++ {
			var acc, t fr.Element
			for j := 0; j < 3; j++ {
				t.Mul(&mds[l][j], &sb[j])
				acc.Add(&acc, &t)
			}
			if !acc.Equal(&next[l]) {
				return ErrUnsatisfied
			}
		}
	}
	return nil
}

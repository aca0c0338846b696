// Package plonk implements the Plonk zkSNARK (Gabizon–Williamson–Ciobotaru,
// "PLONK: Permutations over Lagrange-bases for Oecumenical Noninteractive
// arguments of Knowledge") over BN254 with KZG commitments — the proof
// system ZKDET uses for every π_e, π_t, π_p and π_k.
//
// The implementation follows the paper's five-round protocol with its
// linearization: the prover opens at the evaluation challenge ζ only the
// polynomials the constraint identities read non-linearly, and every column
// they read linearly — the selectors, σ3, z and the quotient pieces — enters
// one linearization commitment the verifier forms inside its MSM. The
// quotient is committed in two pieces of 3n coefficients, the last taking
// the remainder, so a proof is 8 G1 points — [a], [b], [c], [z], [t_0],
// [t_1], [W_ζ], [W_ζω] — and 7 field elements (a, b, c, σ1, σ2 at ζ, z and
// the next-row wires Y at ζω), checked with 2 pairings and a 22-point MSM
// (§VI-B3); a lookup proof adds the LogUp argument. Every key carries the
// Poseidon custom gates, zero selectors on a circuit without them.
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
	// KindPoseidonFull packs one full Poseidon round: wires carry the
	// state with the round's constants already added, and the next row's
	// wires must equal MDS·w^5 + K lane-wise, K being the constants of the
	// round after it.
	KindPoseidonFull
	// KindPoseidonPartial is the partial round: only lane a is S-boxed.
	KindPoseidonPartial
)

// IsCustom reports whether the kind reads the next row's wires.
func (k GateKind) IsCustom() bool {
	return k == KindPoseidonFull || k == KindPoseidonPartial
}

// Gate is one Plonk gate row, as circuit.Builder records it and its auditor
// reads it; CheckRow defines when it holds. For KindArith the constraint
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
	// K carries the constants a Poseidon row adds after its MDS: the next
	// round's round constants, or the first round's of the permutation it
	// feeds, or zero. Setup reads it only on custom rows, so it is zero in
	// the key's K columns on every other row.
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
}

// NewConstraintSystem creates a system with nbPublic public-input
// variables (variables 0 … nbPublic-1) and their exposure gates.
func NewConstraintSystem(nbPublic int) *ConstraintSystem {
	return NewSizedConstraintSystem(nbPublic, nbPublic, nbPublic)
}

// NewSizedConstraintSystem is NewConstraintSystem for a system whose final
// size is known: its nbVariables variables exist from the start, and its
// gate slice holds nbGates gates, the exposure gates among them, without
// growing.
func NewSizedConstraintSystem(nbPublic, nbVariables, nbGates int) *ConstraintSystem {
	cs := &ConstraintSystem{
		nbPublic:    nbPublic,
		nbVariables: max(nbPublic, nbVariables),
		gates:       make([]Gate, nbPublic, max(nbPublic, nbGates)),
	}
	for i := range cs.gates {
		cs.gates[i] = Gate{QL: fr.One(), A: i, B: i, C: i}
	}
	return cs
}

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

// AddGate appends a gate. Wire indices must reference existing variables.
func (cs *ConstraintSystem) AddGate(g Gate) error {
	for _, w := range []int{g.A, g.B, g.C} {
		if w < 0 || w >= cs.nbVariables {
			return fmt.Errorf("plonk: gate references unknown variable %d (have %d)", w, cs.nbVariables)
		}
	}
	switch g.Kind {
	case KindLookup:
		if cs.tableBits == 0 {
			return ErrNoRangeTable
		}
		cs.hasLookup = true
	case KindPoseidonFull, KindPoseidonPartial:
		if !cs.mdsSet {
			return ErrNoMDS
		}
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
	for i := range cs.gates {
		if err := CheckRow(cs.gates, i, witness, cs.nbPublic, cs.tableBits, &cs.mds); err != nil {
			return fmt.Errorf("%w: gate %d", err, i)
		}
	}
	return nil
}

// CheckRow is the definition of when row i of gates holds on the wire
// values w (indexed by the rows' A, B, C): the arithmetic identity
// qL·a + qR·b + qO·c + qM·a·b + qC + PI = 0, where PI(ω^i) = −w[i] on the
// first nbPublic rows and 0 elsewhere; on a lookup row the bound
// 0 ≤ a < 2^tableBits (ErrLookupRange); and on a Poseidon row the round
// against row i+1's wires, which must equal MDS·w^5 + K with only lane a
// S-boxed on a partial round: the wires carry the state after the round's
// constants, and K adds the next round's. Past the last row a round reads
// w[0] three times, as the prover pads with rows wired to variable 0.
// IsSatisfied loops over it, the circuit auditor calls it on builder rows,
// and the prover's quotient and the verifier's evaluation at ζ mirror it.
// It allocates nothing.
func CheckRow(gates []Gate, i int, w []fr.Element, nbPublic, tableBits int, mds *[3][3]fr.Element) error {
	g := &gates[i]
	a, b, c := &w[g.A], &w[g.B], &w[g.C]
	var acc, t fr.Element
	t.Mul(&g.QL, a)
	acc.Add(&acc, &t)
	t.Mul(&g.QR, b)
	acc.Add(&acc, &t)
	t.Mul(&g.QO, c)
	acc.Add(&acc, &t)
	t.Mul(a, b)
	t.Mul(&t, &g.QM)
	acc.Add(&acc, &t)
	acc.Add(&acc, &g.QC)
	if i < nbPublic {
		acc.Sub(&acc, &w[i])
	}
	if !acc.IsZero() {
		return ErrUnsatisfied
	}
	switch g.Kind {
	case KindLookup:
		if v, ok := a.Uint64(); !ok || v >= uint64(1)<<tableBits {
			return ErrLookupRange
		}
	case KindPoseidonFull, KindPoseidonPartial:
		next := [3]*fr.Element{&w[0], &w[0], &w[0]}
		if i+1 < len(gates) {
			ng := &gates[i+1]
			next = [3]*fr.Element{&w[ng.A], &w[ng.B], &w[ng.C]}
		}
		sb := [3]fr.Element{*a, *b, *c}
		for j := range sb {
			if g.Kind == KindPoseidonFull || j == 0 {
				pow5(&sb[j], &sb[j])
			}
		}
		for l := range next {
			acc = g.K[l]
			for j := range sb {
				t.Mul(&mds[l][j], &sb[j])
				acc.Add(&acc, &t)
			}
			if !acc.Equal(next[l]) {
				return ErrUnsatisfied
			}
		}
	}
	return nil
}

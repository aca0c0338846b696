// Package circuit is the arithmetic-circuit front-end for the Plonk
// backend: a builder that records Plonk gates while eagerly computing
// concrete wire values, plus the gadget library of §IV-D (boolean logic,
// comparisons, range checks, selection, fixed-point arithmetic) that
// ZKDET's transformation and exchange predicates are assembled from.
//
// Circuits are written as ordinary Go functions over the builder API. The
// recorded gate structure must not depend on witness values (only on
// circuit parameters such as sizes), which is the usual contract for SNARK
// front-ends; values are carried along so the witness is produced by the
// same pass.
package circuit

import (
	"fmt"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
)

// Variable is a wire in the circuit. The zero value is invalid; obtain
// Variables from a Builder.
type Variable struct {
	id int
}

type gateTmpl struct {
	qL, qR, qO, qM, qC fr.Element
	kind               plonk.GateKind
	k                  [3]fr.Element
	a, b, c            int
}

// AuditVarKind classifies how a wire came into existence — the soundness
// auditor (internal/circuit/audit) treats each kind differently: inputs
// are free by design, internal wires must be determined by their defining
// gate, and hint wires are witness-computed helpers whose correctness is
// carried by accompanying assertion gates (range checks, recompositions).
type AuditVarKind uint8

// Wire origin kinds, exported through AuditInfo.
const (
	AuditVarInternal AuditVarKind = iota // operation output; must be gate-determined
	AuditVarPublic                       // public input
	AuditVarSecret                       // private witness input (free by design)
	AuditVarConstant                     // pinned by a constant gate
	AuditVarHint                         // witness-computed helper pinned by assertions
)

// Builder records gates and wire values. It is not safe for concurrent use.
//
// Gadget misuse (mismatched slice lengths, malformed shapes) does not
// panic: the first such error is recorded on the builder and surfaced by
// Compile, so circuit construction keeps the chainable Variable API while
// staying panic-free (the usual SNARK front-end contract).
type Builder struct {
	values    []fr.Element
	public    []int // variable ids designated public, in order
	gates     []gateTmpl
	constants map[string]Variable
	err       error // first deferred gadget error, reported by Compile

	// Lookup/custom-gate configuration (see EnableLookups and
	// EnableCustomGates). Zero values keep the classic compilation, which
	// produces bit-identical circuits to the pre-lookup builder.
	lookupBits  int
	customGates bool
	mds         [3][3]fr.Element
	mdsSet      bool

	// Audit ledger: gadgets record their proof obligations (which wires
	// must be boolean, which spans of gates realize a range check, which
	// wires are witness-computed hints) as they emit gates. The soundness
	// auditor later checks that the emitted constraints actually discharge
	// every recorded obligation; see AuditInfo.
	kinds            []AuditVarKind
	auditBoolCons    []AuditBoolCon
	auditBoolUses    []AuditBoolUse
	auditBoolDerived []int
	auditStructBools []AuditStructBool
	auditRanges      []AuditRange
	auditConstPins   []AuditConstPin
	auditDiscards    []int
}

// Fail records a deferred circuit-construction error. The first error
// wins; Compile reports it. Gadgets (including those of other packages,
// e.g. mimc and poseidon) call this instead of panicking on malformed shapes.
func (b *Builder) Fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first deferred gadget error, if any.
func (b *Builder) Err() error { return b.err }

// NewBuilder returns an empty circuit builder.
func NewBuilder() *Builder {
	return &Builder{constants: make(map[string]Variable)}
}

// Gate kinds, re-exported so gadget packages (mimc, poseidon) can emit
// custom rows without importing the backend.
const (
	KindMiMC            = plonk.KindMiMC
	KindPoseidonFull    = plonk.KindPoseidonFull
	KindPoseidonPartial = plonk.KindPoseidonPartial
)

// DefaultRangeTableBits is the range-table width circuits opt into by
// default: 2^12 = 4096 table rows, so a 16-bit range check costs 2
// lookups and an 85-bit one costs 8, versus one gate per bit classically.
const DefaultRangeTableBits = 12

// EnableLookups switches AssertRange and the comparison gadgets to the
// k-bit range-table lookup lowering. The domain (and hence the SRS) must
// cover 2^bits rows; call before emitting any range checks.
func (b *Builder) EnableLookups(bits int) {
	if bits < 1 || bits > plonk.MaxTableBits {
		b.Fail("circuit: lookup table bits %d out of range", bits)
		return
	}
	b.lookupBits = bits
}

// EnableCustomGates lets hash gadgets (Poseidon, MiMC) emit one custom
// gate per round instead of the generic arithmetic lowering.
func (b *Builder) EnableCustomGates() { b.customGates = true }

// CustomGatesEnabled reports whether hash gadgets should use custom rows.
func (b *Builder) CustomGatesEnabled() bool { return b.customGates }

// SetPoseidonMDS records the MDS matrix the Poseidon custom gates
// multiply by; the Poseidon gadget calls this before emitting rounds.
func (b *Builder) SetPoseidonMDS(m [3][3]fr.Element) {
	b.mds = m
	b.mdsSet = true
}

// Lookup emits one lookup row asserting x ∈ [0, 2^LookupBits).
func (b *Builder) Lookup(x Variable) {
	if b.lookupBits == 0 {
		b.Fail("circuit: Lookup without EnableLookups")
		return
	}
	b.gates = append(b.gates, gateTmpl{kind: plonk.KindLookup, a: x.id, b: x.id, c: x.id})
}

// CustomGate emits one custom-gate row (a Poseidon or MiMC round). The
// row's constraint reads the NEXT emitted row's wires, so callers must
// emit round rows back-to-back and close the sequence with NoOpRow
// carrying the final state.
func (b *Builder) CustomGate(kind plonk.GateKind, x, y, z Variable, k [3]fr.Element) {
	if !b.customGates {
		b.Fail("circuit: CustomGate without EnableCustomGates")
		return
	}
	b.gates = append(b.gates, gateTmpl{kind: kind, k: k, a: x.id, b: y.id, c: z.id})
}

// NoOpRow emits a constraint-free row wiring (x, y, z), terminating a
// custom-gate sequence so the last round's next-row read lands on the
// final state.
func (b *Builder) NoOpRow(x, y, z Variable) {
	b.gates = append(b.gates, gateTmpl{a: x.id, b: y.id, c: z.id})
}

// NbGates returns the number of gates recorded so far (excluding the
// public-input gates added at compile time).
func (b *Builder) NbGates() int { return len(b.gates) }

func (b *Builder) newVar(val fr.Element) Variable {
	b.values = append(b.values, val)
	b.kinds = append(b.kinds, AuditVarInternal)
	return Variable{id: len(b.values) - 1}
}

// markHint reclassifies an internal wire as a witness-computed hint: its
// value is filled in by out-of-circuit computation (bit decomposition,
// quotient/remainder, inverse helpers) and its correctness is carried by
// accompanying assertion gates rather than a defining gate. The auditor
// exempts hints from the must-be-determined rule but still requires them
// to be live and anchored to an assertion.
func (b *Builder) markHint(v Variable) {
	if b.kinds[v.id] == AuditVarInternal {
		b.kinds[v.id] = AuditVarHint
	}
}

// markBoolUse records that a gadget relies on v being boolean (e.g. a
// Select condition or a comparison top bit). The auditor checks every
// such wire against the set of boolean-constrained or boolean-derived
// wires.
func (b *Builder) markBoolUse(v Variable, site string) {
	b.auditBoolUses = append(b.auditBoolUses, AuditBoolUse{Var: v.id, Site: site})
}

// markBoolDerived records that v is boolean by construction (output of a
// boolean gadget over boolean inputs), so downstream boolean uses need no
// separate x²=x gate.
func (b *Builder) markBoolDerived(v Variable) {
	b.auditBoolDerived = append(b.auditBoolDerived, v.id)
}

// MarkDiscard records that a gadget deliberately leaves wire v unconsumed
// — e.g. the sponge capacity lanes after a hash's final permutation. The
// soundness auditor exempts marked wires (and the computation feeding
// them) from the dangling-output rule; an output that dangles without
// such a mark is a forgotten assertion.
func (b *Builder) MarkDiscard(v Variable) {
	b.auditDiscards = append(b.auditDiscards, v.id)
}

// Value returns the concrete value currently assigned to v.
func (b *Builder) Value(v Variable) fr.Element { return b.values[v.id] }

// Public allocates a public-input variable with the given value.
func (b *Builder) Public(val fr.Element) Variable {
	v := b.newVar(val)
	b.kinds[v.id] = AuditVarPublic
	b.public = append(b.public, v.id)
	return v
}

// Secret allocates a private witness variable with the given value.
func (b *Builder) Secret(val fr.Element) Variable {
	v := b.newVar(val)
	b.kinds[v.id] = AuditVarSecret
	return v
}

// Constant returns a variable constrained to equal the constant c.
// Identical constants share one variable.
func (b *Builder) Constant(c fr.Element) Variable {
	key := c.String()
	if v, ok := b.constants[key]; ok {
		return v
	}
	v := b.newVar(c)
	b.kinds[v.id] = AuditVarConstant
	var negC fr.Element
	negC.Neg(&c)
	// v - c = 0
	b.gates = append(b.gates, gateTmpl{qL: fr.One(), qC: negC, a: v.id, b: v.id, c: v.id})
	b.auditConstPins = append(b.auditConstPins, AuditConstPin{Var: v.id, Gate: len(b.gates) - 1})
	b.constants[key] = v
	return v
}

// Zero returns the constant 0.
func (b *Builder) Zero() Variable { return b.Constant(fr.Zero()) }

var (
	frOne  = fr.One()
	frZero fr.Element
)

func frNeg(x fr.Element) fr.Element {
	var out fr.Element
	out.Neg(&x)
	return out
}

// Gate returns qL·x + qR·y + qM·x·y + qC in one gate (qO = −1): the
// general arithmetic row. Add, Sub, Mul, AddConst, MulConst and Lc2 are
// instances of it; a gadget that folds a constant into a product or a sum
// (the classic Poseidon S-box and MDS gates) calls it directly.
func (b *Builder) Gate(x, y Variable, qL, qR, qM, qC fr.Element) Variable {
	vx, vy := b.values[x.id], b.values[y.id]
	var val, t fr.Element
	val.Mul(&vx, &vy)
	val.Mul(&val, &qM)
	t.Mul(&vx, &qL)
	val.Add(&val, &t)
	t.Mul(&vy, &qR)
	val.Add(&val, &t)
	val.Add(&val, &qC)
	out := b.newVar(val)
	b.gates = append(b.gates, gateTmpl{qL: qL, qR: qR, qO: frNeg(frOne), qM: qM, qC: qC, a: x.id, b: y.id, c: out.id})
	return out
}

// Add returns x + y.
func (b *Builder) Add(x, y Variable) Variable {
	return b.Gate(x, y, frOne, frOne, frZero, frZero)
}

// Sub returns x - y.
func (b *Builder) Sub(x, y Variable) Variable {
	return b.Gate(x, y, frOne, frNeg(frOne), frZero, frZero)
}

// Mul returns x · y.
func (b *Builder) Mul(x, y Variable) Variable {
	return b.Gate(x, y, frZero, frZero, frOne, frZero)
}

// Square returns x².
func (b *Builder) Square(x Variable) Variable { return b.Mul(x, x) }

// Neg returns -x.
func (b *Builder) Neg(x Variable) Variable {
	return b.MulConst(x, frNeg(frOne))
}

// AddConst returns x + c.
func (b *Builder) AddConst(x Variable, c fr.Element) Variable {
	return b.Gate(x, x, frOne, frZero, frZero, c)
}

// MulConst returns c · x.
func (b *Builder) MulConst(x Variable, c fr.Element) Variable {
	return b.Gate(x, x, c, frZero, frZero, frZero)
}

// Lc2 returns c1·x + c2·y in one gate.
func (b *Builder) Lc2(x Variable, c1 fr.Element, y Variable, c2 fr.Element) Variable {
	return b.Gate(x, y, c1, c2, frZero, frZero)
}

// Inverse returns x⁻¹, constraining x·out = 1 (hence also x ≠ 0).
func (b *Builder) Inverse(x Variable) Variable {
	var val fr.Element
	vx := b.values[x.id]
	val.Inverse(&vx)
	out := b.newVar(val)
	// x·out - 1 = 0
	b.gates = append(b.gates, gateTmpl{qM: frOne, qC: frNeg(frOne), a: x.id, b: out.id, c: out.id})
	return out
}

// AssertEqual constrains x == y.
func (b *Builder) AssertEqual(x, y Variable) {
	b.gates = append(b.gates, gateTmpl{qL: frOne, qR: frNeg(frOne), a: x.id, b: y.id, c: x.id})
}

// AssertConst constrains x == c.
func (b *Builder) AssertConst(x Variable, c fr.Element) {
	b.gates = append(b.gates, gateTmpl{qL: frOne, qC: frNeg(c), a: x.id, b: x.id, c: x.id})
}

// AssertBoolean constrains x ∈ {0, 1} via x² = x.
func (b *Builder) AssertBoolean(x Variable) {
	// x·x - x = 0
	b.gates = append(b.gates, gateTmpl{qM: frOne, qL: frNeg(frOne), a: x.id, b: x.id, c: x.id})
	b.auditBoolCons = append(b.auditBoolCons, AuditBoolCon{Var: x.id, Gate: len(b.gates) - 1})
}

// AssertNonZero constrains x ≠ 0 (by exhibiting an inverse).
func (b *Builder) AssertNonZero(x Variable) {
	b.Inverse(x)
}

// Compile produces the Plonk constraint system and the witness vector.
// Public variables are renumbered to the front, matching the backend's
// convention.
func (b *Builder) Compile() (*plonk.ConstraintSystem, []fr.Element, error) {
	if b.err != nil {
		return nil, nil, b.err
	}
	if len(b.values) == 0 {
		return nil, nil, fmt.Errorf("circuit: empty circuit")
	}
	remap := make([]int, len(b.values))
	for i := range remap {
		remap[i] = -1
	}
	for newID, oldID := range b.public {
		remap[oldID] = newID
	}
	next := len(b.public)
	for old := range b.values {
		if remap[old] == -1 {
			remap[old] = next
			next++
		}
	}
	cs := plonk.NewConstraintSystem(len(b.public))
	for next > cs.NbVariables() {
		cs.NewVariable()
	}
	hasLookupRows := false
	for i := range b.gates {
		if b.gates[i].kind == plonk.KindLookup {
			hasLookupRows = true
			break
		}
	}
	if hasLookupRows {
		if err := cs.UseRangeTable(b.lookupBits); err != nil {
			return nil, nil, fmt.Errorf("circuit: %w", err)
		}
	}
	if b.mdsSet {
		cs.SetPoseidonMDS(b.mds)
	}
	witness := make([]fr.Element, len(b.values))
	for old, val := range b.values {
		witness[remap[old]] = val
	}
	for _, g := range b.gates {
		if err := cs.AddGate(plonk.Gate{
			QL: g.qL, QR: g.qR, QO: g.qO, QM: g.qM, QC: g.qC,
			Kind: g.kind, K: g.k,
			A: remap[g.a], B: remap[g.b], C: remap[g.c],
		}); err != nil {
			return nil, nil, fmt.Errorf("circuit: %w", err)
		}
	}
	return cs, witness, nil
}

// PublicValues returns the current values of the public inputs, in order.
func (b *Builder) PublicValues() []fr.Element {
	out := make([]fr.Element, len(b.public))
	for i, id := range b.public {
		out[i] = b.values[id]
	}
	return out
}

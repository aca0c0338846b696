package circuit

import (
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
)

// This file is the read-only export surface for the soundness auditor
// (internal/circuit/audit): a structural snapshot of the builder's gates,
// wire values, and the annotation ledger gadgets maintain while emitting
// constraints. The auditor consumes AuditInfo instead of the Builder so
// mutation tests can copy and perturb the snapshot without touching
// builder internals.

// AuditBoolCon records an x²=x gate emitted for Var.
type AuditBoolCon struct {
	Var  int
	Gate int // gate index, -1 once the gate has been deleted (mutation)
}

// AuditBoolUse records that a gadget consumed Var assuming it is boolean.
type AuditBoolUse struct {
	Var  int
	Site string // gadget name, for diagnostics ("Select", "Not", ...)
}

// AuditStructBool records a wire that is boolean by a structural argument
// spanning several gates (the IsZero y·x=0 ∧ m·x+y=1 construction); all
// listed gates must survive for the argument to hold.
type AuditStructBool struct {
	Var   int
	Gates []int // supporting gate indices; -1 marks a deleted gate
}

// AuditRange records a range-check obligation: the gates in [Start, End)
// realize "Var fits in Bits bits", using either Booleans x²=x rows
// (classic bit decomposition) or Lookups table rows (limb decomposition).
// The auditor recounts the rows inside the span and compares against the
// width the obligation asserts.
type AuditRange struct {
	Var        int
	Bits       int
	Booleans   int // expected x²=x rows in the span (classic lowering)
	Lookups    int // expected lookup rows in the span (lookup lowering)
	Start, End int // half-open gate-index span
}

// AuditConstPin records the v−c=0 gate pinning a Constant wire.
type AuditConstPin struct {
	Var  int
	Gate int // gate index, -1 once the gate has been deleted (mutation)
}

// AuditInfo is a self-contained snapshot of a built circuit plus the
// gadget annotation ledger, in builder wire numbering.
type AuditInfo struct {
	Name string // optional label for diagnostics

	NbVars int
	Values []fr.Element   // eager wire values (the witness, builder order)
	Kinds  []AuditVarKind // wire origin classification
	Gates  []plonk.Gate   // builder wire numbering, before Compile's renumbering

	Lookups bool // EnableLookups was called: lookup rows read the DefaultRangeTableBits table
	MDS     [3][3]fr.Element
	MDSSet  bool

	BoolCons    []AuditBoolCon
	BoolUses    []AuditBoolUse
	BoolDerived []int
	StructBools []AuditStructBool
	Ranges      []AuditRange
	ConstPins   []AuditConstPin
	Discards    []int // wires deliberately left unconsumed (MarkDiscard)

	Err error // deferred builder error, if any
}

// AuditInfo snapshots the builder for the soundness auditor. All slices
// are deep copies; mutating the result does not affect the builder.
func (b *Builder) AuditInfo() *AuditInfo {
	info := &AuditInfo{
		NbVars:      len(b.values),
		Values:      append([]fr.Element(nil), b.values...),
		Kinds:       append([]AuditVarKind(nil), b.kinds...),
		Gates:       append([]plonk.Gate(nil), b.gates...),
		Lookups:     b.lookups,
		MDS:         b.mds,
		MDSSet:      b.mdsSet,
		BoolCons:    append([]AuditBoolCon(nil), b.auditBoolCons...),
		BoolUses:    append([]AuditBoolUse(nil), b.auditBoolUses...),
		BoolDerived: append([]int(nil), b.auditBoolDerived...),
		Ranges:      append([]AuditRange(nil), b.auditRanges...),
		ConstPins:   append([]AuditConstPin(nil), b.auditConstPins...),
		Discards:    append([]int(nil), b.auditDiscards...),
		Err:         b.err,
	}
	info.StructBools = make([]AuditStructBool, len(b.auditStructBools))
	for i, sb := range b.auditStructBools {
		info.StructBools[i] = AuditStructBool{Var: sb.Var, Gates: append([]int(nil), sb.Gates...)}
	}
	return info
}

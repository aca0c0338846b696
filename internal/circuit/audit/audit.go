// Package audit is the constraint-system soundness auditor: it walks a
// compiled circuit (the builder's AuditInfo snapshot, or a backend
// plonk.ConstraintSystem) and reports structural under-constraint — the
// class of bug where every Go-level test stays green but a malicious
// prover can substitute witness values because some wire is not actually
// pinned by the constraints.
//
// The analyses, in the order they run:
//
//   - configuration: lookup rows without a range table, Poseidon rows
//     without an MDS matrix;
//   - occurrence/liveness: wires appearing in zero constraints, counting
//     only selector-live slots (a q-coefficient of zero makes a wired
//     slot dead);
//   - gate hygiene: all-zero rows that are not custom-run closers,
//     byte-identical duplicate constraints, custom runs left open at the
//     end of the gate list;
//   - anchored usefulness: a backward reachability pass from "anchor"
//     gates (assertions over already-defined wires, lookup and custom
//     rows, and definitions whose determining coefficient is
//     witness-dependent, e.g. x·out=1) — wires whose values are computed
//     but never reach an anchor are dangling gadget outputs;
//   - determinedness: a forward fixpoint computing which wires are
//     forced by the constraints given the circuit inputs; internal
//     operation outputs that end up under-determined mean a dropped or
//     mangled defining gate;
//   - annotation discharge: gadgets record proof obligations while
//     emitting gates (this wire is used as a boolean, this span realizes
//     an n-bit range check, this constant is pinned); the auditor checks
//     the surviving gates actually discharge each obligation;
//   - satisfaction: plonk.CheckRow, the backend's own row check
//     (including custom-gate next-row reads and lookup table bounds),
//     evaluated on the builder's eager witness.
//
// All registered application circuits must audit clean; the mutation
// tests in the registry package validate the auditor by deleting single
// gates and asserting the mutant is flagged.
package audit

import (
	"errors"
	"fmt"
	"strings"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
)

// Rule identifiers, one per analysis. Stable strings: zkdet-lint -json
// emits them and CI greps them.
const (
	RuleBuilderError  = "builder-error"
	RuleConfig        = "bad-config"
	RuleWiring        = "gate-wiring"
	RuleUnconstrained = "unconstrained-wire"
	RuleDeadGate      = "dead-gate"
	RuleDuplicate     = "duplicate-gate"
	RuleCustomOpen    = "custom-run-open"
	RuleDangling      = "dangling-wire"
	RuleUndetermined  = "undetermined-wire"
	RuleMissingBool   = "missing-boolean"
	RuleConstUnpinned = "const-unpinned"
	RuleRangeBroken   = "range-check-broken"
	RuleUnsatisfied   = "unsatisfied-gate"
)

// Finding is one auditor diagnostic.
type Finding struct {
	Rule string
	Var  int // wire id in builder numbering, -1 if not wire-specific
	Gate int // gate index, -1 if not gate-specific
	Msg  string
}

func (f Finding) String() string {
	var loc []string
	if f.Gate >= 0 {
		loc = append(loc, fmt.Sprintf("gate %d", f.Gate))
	}
	if f.Var >= 0 {
		loc = append(loc, fmt.Sprintf("wire %d", f.Var))
	}
	if len(loc) == 0 {
		return fmt.Sprintf("[%s] %s", f.Rule, f.Msg)
	}
	return fmt.Sprintf("[%s] %s: %s", f.Rule, strings.Join(loc, ", "), f.Msg)
}

// Report is the result of auditing one circuit.
type Report struct {
	Circuit  string
	Findings []Finding
}

// Clean reports whether the audit produced no findings.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

func (r *Report) String() string {
	if r.Clean() {
		return fmt.Sprintf("%s: clean", r.Circuit)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d finding(s)\n", r.Circuit, len(r.Findings))
	for _, f := range r.Findings {
		sb.WriteString("  " + f.String() + "\n")
	}
	return sb.String()
}

func (r *Report) add(rule string, v, g int, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{Rule: rule, Var: v, Gate: g, Msg: fmt.Sprintf(format, args...)})
}

// liveSlots reports which of a gate's three wire slots the constraint
// actually reads. An arith gate with qL=qM=0 never looks at its a-wire no
// matter what is wired there; lookup rows read only a; custom rows read
// all three.
func liveSlots(g plonk.Gate) (a, b, c bool) {
	switch {
	case g.Kind == plonk.KindLookup:
		return true, false, false
	case g.Kind.IsCustom():
		return true, true, true
	default:
		a = !g.QL.IsZero() || !g.QM.IsZero()
		b = !g.QR.IsZero() || !g.QM.IsZero()
		c = !g.QO.IsZero()
		return a, b, c
	}
}

// zeroRow reports an arith gate with every selector zero — constraint-free.
func zeroRow(g plonk.Gate) bool {
	return g.Kind == plonk.KindArith &&
		g.QL.IsZero() && g.QR.IsZero() && g.QO.IsZero() && g.QM.IsZero() && g.QC.IsZero()
}

// liveVars collects the distinct wire ids in live slots of gate i,
// including the next-row wires a custom gate at i-1 reads.
func liveVars(gates []plonk.Gate, i int, withNextRow bool) []int {
	g := gates[i]
	la, lb, lc := liveSlots(g)
	if withNextRow && i > 0 && gates[i-1].Kind.IsCustom() {
		// The previous custom gate reads all of this row's wires.
		la, lb, lc = true, true, true
	}
	var out []int
	add := func(v int) {
		for _, u := range out {
			if u == v {
				return
			}
		}
		out = append(out, v)
	}
	if la {
		add(g.A)
	}
	if lb {
		add(g.B)
	}
	if lc {
		add(g.C)
	}
	return out
}

// Circuit audits a builder snapshot. The returned report is empty for a
// fully-constrained circuit; every finding names the rule, the wire
// and/or gate involved, and what is wrong.
func Circuit(info *circuit.AuditInfo) *Report {
	r := &Report{Circuit: info.Name}
	if info.Err != nil {
		r.add(RuleBuilderError, -1, -1, "builder recorded error: %v", info.Err)
		return r
	}
	if len(info.Gates) == 0 {
		r.add(RuleConfig, -1, -1, "circuit has no gates")
		return r
	}

	// Configuration and wiring sanity; later passes index freely.
	hasLookupRows := false
	hasPoseidonRows := false
	for i, g := range info.Gates {
		hasLookupRows = hasLookupRows || g.Kind == plonk.KindLookup
		hasPoseidonRows = hasPoseidonRows || g.Kind.IsCustom()
		for _, w := range []int{g.A, g.B, g.C} {
			if w < 0 || w >= info.NbVars {
				r.add(RuleWiring, w, i, "gate references unknown wire (have %d)", info.NbVars)
				return r
			}
		}
	}
	if hasLookupRows && !info.Lookups {
		r.add(RuleConfig, -1, -1, "lookup rows present but no range table enabled")
	}
	if hasPoseidonRows && !info.MDSSet {
		r.add(RuleConfig, -1, -1, "Poseidon custom rows present but no MDS matrix set")
	}

	occurrences := make([]int, info.NbVars)
	for i := range info.Gates {
		for _, v := range liveVars(info.Gates, i, true) {
			occurrences[v]++
		}
	}
	for v := 0; v < info.NbVars; v++ {
		if occurrences[v] == 0 {
			r.add(RuleUnconstrained, v, -1,
				"%s wire appears in no live constraint slot", kindName(info.Kinds, v))
		}
	}

	auditGateHygiene(r, info.Gates)
	auditDangling(r, info, occurrences)
	auditDeterminedness(r, info, occurrences)
	auditAnnotations(r, info)
	auditSatisfaction(r, info)
	return r
}

func kindName(kinds []circuit.AuditVarKind, v int) string {
	if v >= len(kinds) {
		return "unknown"
	}
	switch kinds[v] {
	case circuit.AuditVarPublic:
		return "public"
	case circuit.AuditVarSecret:
		return "secret"
	case circuit.AuditVarConstant:
		return "constant"
	case circuit.AuditVarHint:
		return "hint"
	default:
		return "internal"
	}
}

// auditGateHygiene flags dead rows, exact duplicates, and open custom runs.
func auditGateHygiene(r *Report, gates []plonk.Gate) {
	seen := make(map[string]int)
	for i, g := range gates {
		if zeroRow(g) {
			// The only sanctioned all-zero row is the NoOpRow closing a
			// custom-gate run (the last round's next-row read lands here).
			if i == 0 || !gates[i-1].Kind.IsCustom() {
				r.add(RuleDeadGate, -1, i, "all-zero row is not a custom-run closer")
			}
			continue
		}
		key := gateKey(g)
		if j, ok := seen[key]; ok {
			r.add(RuleDuplicate, -1, i, "identical constraint already emitted at gate %d", j)
		} else {
			seen[key] = i
		}
	}
	for i, g := range gates {
		if !g.Kind.IsCustom() {
			continue
		}
		// Each custom row reads the NEXT row's wires, so a run must end
		// with a NoOpRow carrying the final state — never fall through
		// into an arbitrary arith/lookup row, and never end the circuit.
		if i+1 >= len(gates) {
			r.add(RuleCustomOpen, -1, i, "custom-gate run not closed by a NoOpRow")
		} else if ng := gates[i+1]; !ng.Kind.IsCustom() && !zeroRow(ng) {
			r.add(RuleCustomOpen, -1, i,
				"custom row falls through into an active row instead of a NoOpRow closer")
		}
	}
}

func gateKey(g plonk.Gate) string {
	return fmt.Sprintf("%d|%s|%s|%s|%s|%s|%s|%s|%s|%d|%d|%d",
		g.Kind, g.QL.String(), g.QR.String(), g.QO.String(), g.QM.String(), g.QC.String(),
		g.K[0].String(), g.K[1].String(), g.K[2].String(), g.A, g.B, g.C)
}

// auditDangling runs the anchored-usefulness analysis: every computed
// wire must (transitively) feed an anchor — an assertion over
// already-defined wires, a lookup or custom row, or a definition whose
// determining coefficient is witness-dependent (x·out=1 asserts x≠0 even
// if out is never reused). Wires that never reach an anchor are computed
// and then ignored: the classic unconstrained-gadget-output bug.
func auditDangling(r *Report, info *circuit.AuditInfo, occurrences []int) {
	born := make([]bool, info.NbVars)
	for v, k := range info.Kinds {
		// Inputs exist before any gate; everything else (internal outputs,
		// hints, constants) is "born" at its first live occurrence.
		if k == circuit.AuditVarPublic || k == circuit.AuditVarSecret {
			born[v] = true
		}
	}

	fresh := make([][]int, len(info.Gates))
	anchor := make([]bool, len(info.Gates))
	seen := append([]bool(nil), born...)
	for i, g := range info.Gates {
		vars := liveVars(info.Gates, i, true)
		for _, v := range vars {
			if !seen[v] {
				fresh[i] = append(fresh[i], v)
				seen[v] = true
			}
		}
		switch {
		case len(fresh[i]) == 0:
			anchor[i] = true // pure assertion over existing wires
		case g.Kind != plonk.KindArith:
			anchor[i] = true // lookup/custom rows constrain their wires
		default:
			// A fresh wire in the a/b slot of a multiplicative gate has a
			// witness-dependent determining coefficient: the gate asserts
			// something about the other operand (e.g. Inverse, Div, IsZero).
			if !g.QM.IsZero() {
				for _, v := range fresh[i] {
					if v == g.A || v == g.B {
						anchor[i] = true
						break
					}
				}
			}
		}
	}

	useful := make([]bool, info.NbVars)
	for _, v := range info.Discards {
		if v >= 0 && v < info.NbVars {
			useful[v] = true // deliberately discarded; feeds nothing by design
		}
	}
	markGate := func(i int) bool {
		changed := false
		for _, v := range liveVars(info.Gates, i, true) {
			if !useful[v] {
				useful[v] = true
				changed = true
			}
		}
		return changed
	}
	for i := range info.Gates {
		if anchor[i] {
			markGate(i)
		}
	}
	for changed := true; changed; {
		changed = false
		for i := len(info.Gates) - 1; i >= 0; i-- {
			if anchor[i] {
				continue
			}
			reached := false
			for _, v := range fresh[i] {
				if useful[v] {
					reached = true
					break
				}
			}
			if reached && markGate(i) {
				changed = true
			}
		}
	}

	for v := 0; v < info.NbVars; v++ {
		if occurrences[v] == 0 || useful[v] {
			continue
		}
		if v < len(info.Kinds) && info.Kinds[v] == circuit.AuditVarConstant {
			continue // an unused constant is dead weight, not under-constraint
		}
		r.add(RuleDangling, v, -1,
			"%s wire is computed but never reaches an assertion, public input, or lookup",
			kindName(info.Kinds, v))
	}
}

// auditDeterminedness computes which wires the constraints force given
// the inputs, in a single forward pass over the gates. Inputs, hints, and
// constants start determined (hints are pinned by their recorded
// assertion obligations, which auditAnnotations checks separately).
//
// The pass is deliberately forward-only — no fixpoint. The eager builder
// emits the gate that defines an internal wire at the moment the wire is
// created, before any gate that consumes it, so on a sound circuit every
// internal wire is solved by the first gate mentioning it. A fixpoint
// would be too lenient under mutation: delete an interior gate c = a·b
// whose output feeds a later range check, and the range-check plumbing
// "back-solves" c even though the prover is now free to pick it (the
// multiplication relation is gone). Forward-only, the deleted defining
// gate leaves the wire undetermined at its first use and the cascade is
// reported.
func auditDeterminedness(r *Report, info *circuit.AuditInfo, occurrences []int) {
	det := make([]bool, info.NbVars)
	for v, k := range info.Kinds {
		if k != circuit.AuditVarInternal {
			det[v] = true
		}
	}

	for i, g := range info.Gates {
		switch {
		case g.Kind == plonk.KindLookup:
			continue
		case g.Kind.IsCustom():
			// A Poseidon round row determines the whole next-row state
			// from its own.
			if i+1 >= len(info.Gates) {
				continue
			}
			ng := info.Gates[i+1]
			if det[g.A] && det[g.B] && det[g.C] {
				setDet(det, ng.A)
				setDet(det, ng.B)
				setDet(det, ng.C)
			}
		default:
			arithDetermines(info, det, g)
		}
	}

	for v := 0; v < info.NbVars; v++ {
		if occurrences[v] == 0 || det[v] {
			continue // zero-occurrence wires are already reported
		}
		if info.Kinds[v] != circuit.AuditVarInternal {
			continue
		}
		r.add(RuleUndetermined, v, -1,
			"internal wire is not forced by any surviving constraint")
	}
}

func setDet(det []bool, v int) bool {
	if det[v] {
		return false
	}
	det[v] = true
	return true
}

// arithDetermines propagates determinedness through one arith gate: if
// exactly one live wire is unknown and its coefficient is nonzero, the
// gate solves for it. A wire occupying both multiplicative slots (x²=x)
// has two roots and determines nothing.
func arithDetermines(info *circuit.AuditInfo, det []bool, g plonk.Gate) bool {
	la, lb, lc := liveSlots(g)
	unknown := -1
	slotA, slotB, slotC := false, false, false
	count := func(v int, on bool, slot *bool) bool {
		if !on || det[v] {
			return true
		}
		if unknown != -1 && unknown != v {
			return false // two distinct unknowns: can't solve
		}
		unknown = v
		*slot = true
		return true
	}
	if !count(g.A, la, &slotA) || !count(g.B, lb, &slotB) || !count(g.C, lc, &slotC) {
		return false
	}
	if unknown == -1 {
		return false
	}
	// Coefficient of the unknown. Quadratic occupancy (both a and b with
	// qM≠0) is not a unique solution.
	if slotA && slotB && !g.QM.IsZero() {
		return false
	}
	var coeff fr.Element
	if slotA {
		coeff = g.QL
		if !g.QM.IsZero() {
			var t fr.Element
			bv := info.Values[g.B]
			t.Mul(&g.QM, &bv)
			coeff.Add(&coeff, &t)
		}
	}
	if slotB {
		var cb fr.Element
		cb = g.QR
		if !g.QM.IsZero() {
			var t fr.Element
			av := info.Values[g.A]
			t.Mul(&g.QM, &av)
			cb.Add(&cb, &t)
		}
		coeff.Add(&coeff, &cb)
	}
	if slotC {
		coeff.Add(&coeff, &g.QO)
	}
	if coeff.IsZero() {
		return false
	}
	return setDet(det, unknown)
}

// auditAnnotations checks that the surviving gates discharge every proof
// obligation the gadgets recorded while emitting.
func auditAnnotations(r *Report, info *circuit.AuditInfo) {
	one := fr.One()
	var minusOne fr.Element
	minusOne.Neg(&one)

	isBoolGate := func(gi, v int) bool {
		if gi < 0 || gi >= len(info.Gates) {
			return false
		}
		g := info.Gates[gi]
		return g.Kind == plonk.KindArith && g.A == v && g.B == v &&
			g.QM.Equal(&one) && g.QL.Equal(&minusOne) &&
			g.QR.IsZero() && g.QO.IsZero() && g.QC.IsZero()
	}

	boolOK := make(map[int]bool)
	for _, bc := range info.BoolCons {
		if !isBoolGate(bc.Gate, bc.Var) {
			r.add(RuleMissingBool, bc.Var, bc.Gate, "recorded x²=x constraint is missing or mangled")
			continue
		}
		boolOK[bc.Var] = true
	}
	for _, sb := range info.StructBools {
		ok := true
		for _, gi := range sb.Gates {
			if gi < 0 || gi >= len(info.Gates) {
				ok = false
				break
			}
			g := info.Gates[gi]
			if g.QM.IsZero() || (g.A != sb.Var && g.C != sb.Var) {
				ok = false
				break
			}
		}
		if !ok {
			r.add(RuleMissingBool, sb.Var, -1, "structural boolean argument lost a supporting gate")
			continue
		}
		boolOK[sb.Var] = true
	}
	for _, v := range info.BoolDerived {
		boolOK[v] = true
	}
	for v, k := range info.Kinds {
		if k != circuit.AuditVarConstant {
			continue
		}
		val := info.Values[v]
		if val.IsZero() || val.Equal(&one) {
			boolOK[v] = true
		}
	}
	for _, bu := range info.BoolUses {
		if !boolOK[bu.Var] {
			r.add(RuleMissingBool, bu.Var, -1,
				"wire consumed as boolean by %s but never boolean-constrained", bu.Site)
		}
	}

	for _, cp := range info.ConstPins {
		bad := cp.Gate < 0 || cp.Gate >= len(info.Gates)
		if !bad {
			g := info.Gates[cp.Gate]
			var want fr.Element
			v := info.Values[cp.Var]
			want.Mul(&g.QL, &v)
			want.Add(&want, &g.QC)
			bad = g.Kind != plonk.KindArith || g.A != cp.Var || g.QL.IsZero() ||
				!g.QM.IsZero() || !g.QR.IsZero() || !g.QO.IsZero() || !want.IsZero()
		}
		if bad {
			r.add(RuleConstUnpinned, cp.Var, cp.Gate, "constant wire's pinning gate is missing or mangled")
		}
	}

	for _, ra := range info.Ranges {
		if ra.Start < 0 || ra.End > len(info.Gates) || ra.Start >= ra.End {
			r.add(RuleRangeBroken, ra.Var, -1, "%d-bit range check span collapsed", ra.Bits)
			continue
		}
		bools, lookups := 0, 0
		for gi := ra.Start; gi < ra.End; gi++ {
			g := info.Gates[gi]
			if g.Kind == plonk.KindLookup {
				lookups++
			} else if isBoolGate(gi, g.A) {
				bools++
			}
		}
		if ra.Booleans > 0 && bools != ra.Booleans {
			r.add(RuleRangeBroken, ra.Var, -1,
				"%d-bit classic range check has %d boolean rows, want %d", ra.Bits, bools, ra.Booleans)
		}
		if ra.Lookups > 0 {
			// Independently recompute the limb count the asserted width
			// requires; a recorded-but-wrong expectation is itself a bug.
			const k = circuit.DefaultRangeTableBits
			want := max(ra.Lookups, (ra.Bits+k-1)/k)
			if lookups != want {
				r.add(RuleRangeBroken, ra.Var, -1,
					"%d-bit lookup range check has %d table rows, want %d", ra.Bits, lookups, want)
			}
		}
	}
}

// auditSatisfaction evaluates plonk.CheckRow, the reference row semantics
// plonk.ConstraintSystem.IsSatisfied loops over, on every builder row with
// the builder's eager witness: the arithmetic identity, the lookup bound of
// the DefaultRangeTableBits table and the custom rounds' next-row reads.
// Structural mutations that survive the other passes (shifting a custom
// run off its closer, mangling a selector) surface here as violations.
func auditSatisfaction(r *Report, info *circuit.AuditInfo) {
	for i := range info.Gates {
		g := &info.Gates[i]
		if g.Kind.IsCustom() && i+1 >= len(info.Gates) {
			continue // open run, reported by gate hygiene
		}
		err := plonk.CheckRow(info.Gates, i, info.Values, 0, circuit.DefaultRangeTableBits, &info.MDS)
		switch {
		case err == nil:
		case errors.Is(err, plonk.ErrLookupRange):
			r.add(RuleUnsatisfied, g.A, i, "lookup wire value outside the %d-bit table", circuit.DefaultRangeTableBits)
		case g.Kind.IsCustom():
			r.add(RuleUnsatisfied, -1, i, "custom round constraint does not hold against the next row")
		default:
			r.add(RuleUnsatisfied, -1, i, "gate equation does not hold on the builder witness")
		}
	}
}

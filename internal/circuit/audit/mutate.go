package audit

import (
	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
)

// DropGate returns a deep copy of the snapshot with gate idx deleted and
// every gate-index reference in the annotation ledger remapped: indices
// above idx shift down, and references to the deleted gate itself become
// -1 (the obligation's discharging gate is gone — exactly the state a
// prover-side constraint-deletion attack leaves behind). Range spans
// containing idx shrink by one row. The mutation tests drive the auditor
// over these mutants; a sound auditor must flag every one.
//
//lint:ignore testonly the registry package's mutation_test drives every registered circuit's mutants through it
func DropGate(info *circuit.AuditInfo, idx int) *circuit.AuditInfo {
	out := cloneInfo(info)
	if idx < 0 || idx >= len(out.Gates) {
		return out
	}
	out.Gates = append(out.Gates[:idx], out.Gates[idx+1:]...)

	remap := func(g int) int {
		switch {
		case g == idx:
			return -1
		case g > idx:
			return g - 1
		default:
			return g
		}
	}
	for i := range out.BoolCons {
		out.BoolCons[i].Gate = remap(out.BoolCons[i].Gate)
	}
	for i := range out.ConstPins {
		out.ConstPins[i].Gate = remap(out.ConstPins[i].Gate)
	}
	for i := range out.StructBools {
		for j := range out.StructBools[i].Gates {
			out.StructBools[i].Gates[j] = remap(out.StructBools[i].Gates[j])
		}
	}
	for i := range out.Ranges {
		ra := &out.Ranges[i]
		switch {
		case idx < ra.Start:
			ra.Start--
			ra.End--
		case idx < ra.End:
			ra.End--
		}
	}
	return out
}

func cloneInfo(info *circuit.AuditInfo) *circuit.AuditInfo {
	out := *info
	out.Values = append([]fr.Element(nil), info.Values...)
	out.Kinds = append([]circuit.AuditVarKind(nil), info.Kinds...)
	out.Gates = append([]plonk.Gate(nil), info.Gates...)
	out.BoolCons = append([]circuit.AuditBoolCon(nil), info.BoolCons...)
	out.BoolUses = append([]circuit.AuditBoolUse(nil), info.BoolUses...)
	out.BoolDerived = append([]int(nil), info.BoolDerived...)
	out.Ranges = append([]circuit.AuditRange(nil), info.Ranges...)
	out.ConstPins = append([]circuit.AuditConstPin(nil), info.ConstPins...)
	out.Discards = append([]int(nil), info.Discards...)
	out.StructBools = make([]circuit.AuditStructBool, len(info.StructBools))
	for i, sb := range info.StructBools {
		out.StructBools[i] = circuit.AuditStructBool{Var: sb.Var, Gates: append([]int(nil), sb.Gates...)}
	}
	return &out
}

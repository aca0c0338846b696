package audit

import (
	"errors"
	"testing"

	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
)

// expose pins v to a public input so it anchors the dangling analysis,
// mirroring how the registry entries surface gadget outputs.
func expose(b *circuit.Builder, v circuit.Variable) {
	b.AssertEqual(v, b.Public(b.Value(v)))
}

func hasRule(t *testing.T, r *Report, rule string) {
	t.Helper()
	for _, f := range r.Findings {
		if f.Rule == rule {
			return
		}
	}
	t.Fatalf("want rule %q, got report:\n%s", rule, r)
}

func tinyInfo(t *testing.T) *circuit.AuditInfo {
	t.Helper()
	b := circuit.NewBuilder()
	x := b.Secret(fr.NewElement(7))
	y := b.Square(x)
	expose(b, y)
	info := b.AuditInfo()
	info.Name = "tiny"
	if rep := Circuit(info); !rep.Clean() {
		t.Fatalf("baseline not clean:\n%s", rep)
	}
	return info
}

func TestCleanBaseline(t *testing.T) { tinyInfo(t) }

func TestWiringOutOfRange(t *testing.T) {
	info := tinyInfo(t)
	info.Gates[0].A = info.NbVars + 3
	hasRule(t, Circuit(info), RuleWiring)
}

func TestUnsatisfiedWitness(t *testing.T) {
	info := tinyInfo(t)
	// Corrupt the squared wire's value: the defining gate no longer holds.
	info.Values[1] = fr.NewElement(999)
	hasRule(t, Circuit(info), RuleUnsatisfied)
}

func TestDanglingOutput(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Secret(fr.NewElement(3))
	y := b.Square(x)
	b.Add(y, x) // computed, never asserted or exposed
	expose(b, y)
	hasRule(t, Circuit(b.AuditInfo()), RuleDangling)
}

func TestMarkDiscardSuppressesDangling(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Secret(fr.NewElement(3))
	y := b.Square(x)
	dead := b.Add(y, x)
	b.MarkDiscard(dead)
	expose(b, y)
	if rep := Circuit(b.AuditInfo()); !rep.Clean() {
		t.Fatalf("discarded wire still reported:\n%s", rep)
	}
}

func TestUndeterminedAfterDefiningGateDrop(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Secret(fr.NewElement(7))
	y := b.Square(x)
	w := b.Square(y)
	expose(b, w)
	info := b.AuditInfo()
	if rep := Circuit(info); !rep.Clean() {
		t.Fatalf("baseline not clean:\n%s", rep)
	}
	// Deleting y's defining gate leaves the prover free to pick y: its
	// only remaining mention is w = y·y, where the quadratic occupancy
	// (two roots) determines nothing, and the exposure only pins w.
	hasRule(t, Circuit(DropGate(info, 0)), RuleUndetermined)
}

func TestMissingBooleanUse(t *testing.T) {
	b := circuit.NewBuilder()
	cond := b.Secret(fr.NewElement(1)) // never AssertBoolean'd
	x := b.Secret(fr.NewElement(5))
	y := b.Secret(fr.NewElement(9))
	expose(b, b.Select(cond, x, y))
	hasRule(t, Circuit(b.AuditInfo()), RuleMissingBool)
}

func TestMissingBooleanAfterConstraintDrop(t *testing.T) {
	b := circuit.NewBuilder()
	cond := b.Secret(fr.NewElement(1))
	b.AssertBoolean(cond)
	x := b.Secret(fr.NewElement(5))
	y := b.Secret(fr.NewElement(9))
	expose(b, b.Select(cond, x, y))
	info := b.AuditInfo()
	if rep := Circuit(info); !rep.Clean() {
		t.Fatalf("baseline not clean:\n%s", rep)
	}
	// The x²=x row is gate 0 (emitted right after the secrets).
	hasRule(t, Circuit(DropGate(info, info.BoolCons[0].Gate)), RuleMissingBool)
}

func TestConstUnpinned(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Secret(fr.NewElement(4))
	c := b.Constant(fr.NewElement(10))
	expose(b, b.Mul(x, c))
	info := b.AuditInfo()
	if rep := Circuit(info); !rep.Clean() {
		t.Fatalf("baseline not clean:\n%s", rep)
	}
	if len(info.ConstPins) == 0 {
		t.Fatal("no constant pin recorded")
	}
	hasRule(t, Circuit(DropGate(info, info.ConstPins[0].Gate)), RuleConstUnpinned)
}

func TestRangeBrokenClassic(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Secret(fr.NewElement(200))
	b.AssertRange(x, 8)
	expose(b, x)
	info := b.AuditInfo()
	if rep := Circuit(info); !rep.Clean() {
		t.Fatalf("baseline not clean:\n%s", rep)
	}
	if len(info.Ranges) == 0 {
		t.Fatal("no range obligation recorded")
	}
	// Drop one x²=x bit row inside the span.
	hasRule(t, Circuit(DropGate(info, info.Ranges[0].Start)), RuleRangeBroken)
}

func TestRangeBrokenLookup(t *testing.T) {
	b := circuit.NewBuilder()
	b.EnableLookups()
	x := b.Secret(fr.NewElement(60000))
	b.AssertRange(x, 16)
	expose(b, x)
	info := b.AuditInfo()
	if rep := Circuit(info); !rep.Clean() {
		t.Fatalf("baseline not clean:\n%s", rep)
	}
	ra := info.Ranges[0]
	if ra.Lookups == 0 {
		t.Fatal("expected lookup-based range obligation")
	}
	// Delete every lookup row in the span; the recount and the
	// independently recomputed limb requirement both disagree.
	mut := info
	for {
		dropped := false
		for gi := mut.Ranges[0].Start; gi < mut.Ranges[0].End; gi++ {
			if mut.Gates[gi].Kind == plonk.KindLookup {
				mut = DropGate(mut, gi)
				dropped = true
				break
			}
		}
		if !dropped {
			break
		}
	}
	hasRule(t, Circuit(mut), RuleRangeBroken)
}

func TestDeadGate(t *testing.T) {
	info := tinyInfo(t)
	info.Gates = append(info.Gates, plonk.Gate{Kind: plonk.KindArith})
	hasRule(t, Circuit(info), RuleDeadGate)
}

func TestDuplicateGate(t *testing.T) {
	info := tinyInfo(t)
	info.Gates = append(info.Gates, info.Gates[len(info.Gates)-1])
	hasRule(t, Circuit(info), RuleDuplicate)
}

func TestBadConfigLookupWithoutTable(t *testing.T) {
	info := tinyInfo(t)
	info.Gates = append(info.Gates, plonk.Gate{Kind: plonk.KindLookup})
	hasRule(t, Circuit(info), RuleConfig)
}

// TestLookupOutOfTable checks the lookup bound from both sides of the one
// row check: a lookup wire holding 2^12, one past the table, is reported by
// the auditor and refused by the compiled system.
func TestLookupOutOfTable(t *testing.T) {
	b := circuit.NewBuilder()
	b.EnableLookups()
	b.Lookup(b.Secret(fr.NewElement(1 << circuit.DefaultRangeTableBits)))
	// A Poseidon round on zero wires under a zero MDS matrix holds
	// trivially; it makes this the lookup + custom shape a key takes.
	b.SetPoseidonMDS([3][3]fr.Element{})
	z := b.Secret(fr.Zero())
	b.CustomGate(plonk.KindPoseidonFull, z, z, z, [3]fr.Element{})
	b.NoOpRow(z, z, z)
	hasRule(t, Circuit(b.AuditInfo()), RuleUnsatisfied)
	cs, w, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.IsSatisfied(w); !errors.Is(err, plonk.ErrLookupRange) {
		t.Fatalf("IsSatisfied = %v, want %v", err, plonk.ErrLookupRange)
	}
}

func TestBuilderErrorSurfaces(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Secret(fr.NewElement(2))
	expose(b, b.Square(x))
	b.Fail("gadget shape error")
	info := b.AuditInfo()
	if info.Err == nil {
		t.Fatal("expected builder error")
	}
	hasRule(t, Circuit(info), RuleBuilderError)
}

func TestInverseOfZeroUnsatisfied(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Secret(fr.Zero())
	expose(b, b.Inverse(x)) // x·out=1 cannot hold for x=0
	hasRule(t, Circuit(b.AuditInfo()), RuleUnsatisfied)
}

func TestCustomRunMutations(t *testing.T) {
	var mds [3][3]fr.Element
	for i := range mds {
		for j := range mds[i] {
			var s fr.Element
			s = fr.NewElement(uint64(i + j + 3))
			mds[i][j].Inverse(&s)
		}
	}
	var k [3]fr.Element
	k[0] = fr.NewElement(5)
	k[1] = fr.NewElement(6)
	k[2] = fr.NewElement(7)
	// build emits one full round carrying the constants rowK, closed by the
	// next state the reference semantics compute under k: MDS·w^5 + k.
	build := func(rowK [3]fr.Element) *circuit.Builder {
		b := circuit.NewBuilder()
		b.EnableCustomGates()
		b.SetPoseidonMDS(mds)
		x := b.Secret(fr.NewElement(11))
		y := b.Secret(fr.NewElement(22))
		z := b.Secret(fr.NewElement(33))
		b.CustomGate(plonk.KindPoseidonFull, x, y, z, rowK)
		w := [3]fr.Element{b.Value(x), b.Value(y), b.Value(z)}
		var sb [3]fr.Element
		for j := 0; j < 3; j++ {
			var t5, t2 fr.Element
			t5 = w[j]
			t2.Square(&t5)
			t2.Square(&t2)
			t5.Mul(&t2, &t5)
			sb[j] = t5
		}
		var next [3]circuit.Variable
		for l := 0; l < 3; l++ {
			acc := k[l]
			var tt fr.Element
			for j := 0; j < 3; j++ {
				tt.Mul(&mds[l][j], &sb[j])
				acc.Add(&acc, &tt)
			}
			next[l] = b.Secret(acc)
		}
		b.NoOpRow(next[0], next[1], next[2])
		expose(b, next[0])
		b.MarkDiscard(next[1])
		b.MarkDiscard(next[2])
		return b
	}
	info := build(k).AuditInfo()
	if rep := Circuit(info); !rep.Clean() {
		t.Fatalf("baseline not clean:\n%s", rep)
	}

	// Dropping the NoOpRow leaves the run open.
	var customIdx, closerIdx int = -1, -1
	for i, g := range info.Gates {
		if g.Kind == plonk.KindPoseidonFull {
			customIdx = i
			closerIdx = i + 1
		}
	}
	if customIdx < 0 {
		t.Fatal("no custom gate emitted")
	}
	hasRule(t, Circuit(DropGate(info, closerIdx)), RuleCustomOpen)

	// Mangling a round constant breaks the reference round equation, for
	// the auditor and for the compiled system alike.
	mangled := k
	mangled[0] = fr.NewElement(999)
	mb := build(mangled)
	hasRule(t, Circuit(mb.AuditInfo()), RuleUnsatisfied)
	cs, wit, err := mb.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.IsSatisfied(wit); !errors.Is(err, plonk.ErrUnsatisfied) {
		t.Fatalf("IsSatisfied = %v, want %v", err, plonk.ErrUnsatisfied)
	}

	// Dropping the MDS matrix is a configuration error.
	mut2 := DropGate(info, len(info.Gates))
	mut2.MDSSet = false
	hasRule(t, Circuit(mut2), RuleConfig)
}

// TestCustomRunOtherRowRules: a Poseidon row whose next state was computed
// on another rule than MDS·w^5 + K — its constants added before the S-box,
// as rounds were written before the constants moved after the MDS, or
// dropped — is reported unsatisfied by the auditor and refused by the
// compiled system; the same row on the rule itself is clean.
func TestCustomRunOtherRowRules(t *testing.T) {
	var mds [3][3]fr.Element
	for i := range mds {
		for j := range mds[i] {
			s := fr.NewElement(uint64(i + j + 3))
			mds[i][j].Inverse(&s)
		}
	}
	k := [3]fr.Element{fr.NewElement(5), fr.NewElement(6), fr.NewElement(7)}
	pow5 := func(x fr.Element) fr.Element {
		var x4 fr.Element
		x4.Square(&x)
		x4.Square(&x4)
		return *x4.Mul(&x4, &x)
	}
	// next returns MDS·(w+pre)^5 + post.
	next := func(w, pre, post [3]fr.Element) [3]fr.Element {
		out := post
		for l := range out {
			for j := range w {
				var s fr.Element
				s.Add(&w[j], &pre[j])
				s = pow5(s)
				s.Mul(&s, &mds[l][j])
				out[l].Add(&out[l], &s)
			}
		}
		return out
	}
	var zero [3]fr.Element
	for _, tc := range []struct {
		name      string
		pre, post [3]fr.Element
		clean     bool
	}{
		{"the row rule", zero, k, true},
		{"own round's constants", k, zero, false},
		{"no constants", zero, zero, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := circuit.NewBuilder()
			b.EnableCustomGates()
			b.SetPoseidonMDS(mds)
			w := [3]fr.Element{fr.NewElement(11), fr.NewElement(22), fr.NewElement(33)}
			x, y, z := b.Secret(w[0]), b.Secret(w[1]), b.Secret(w[2])
			b.CustomGate(plonk.KindPoseidonFull, x, y, z, k)
			nv := next(w, tc.pre, tc.post)
			n0, n1, n2 := b.Secret(nv[0]), b.Secret(nv[1]), b.Secret(nv[2])
			b.NoOpRow(n0, n1, n2)
			expose(b, n0)
			b.MarkDiscard(n1)
			b.MarkDiscard(n2)
			rep := Circuit(b.AuditInfo())
			cs, wit, err := b.Compile()
			if err != nil {
				t.Fatal(err)
			}
			err = cs.IsSatisfied(wit)
			if tc.clean {
				if !rep.Clean() || err != nil {
					t.Fatalf("the row rule: audit\n%s\nIsSatisfied = %v", rep, err)
				}
				return
			}
			hasRule(t, rep, RuleUnsatisfied)
			if !errors.Is(err, plonk.ErrUnsatisfied) {
				t.Fatalf("IsSatisfied = %v, want %v", err, plonk.ErrUnsatisfied)
			}
		})
	}
}

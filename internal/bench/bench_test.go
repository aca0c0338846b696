package bench

import (
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/apps/transformer"
	"github.com/zkdet/zkdet/internal/plonk"
)

// smallSession is the small-scale session the tests share, so the proving
// system is built once per test binary.
var smallSession = sync.OnceValue(func() *Session { return NewSession(Scales["small"]) })

// TestArtifacts runs every artifact at the small scale, the driver's
// default, and checks on its tables the shape the paper claims.
func TestArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("proves every artifact's workload; skipped in -short mode")
	}
	s := smallSession()
	for _, a := range Artifacts {
		t.Run(a.Name, func(t *testing.T) {
			check, ok := shapes[a.Name]
			if !ok {
				t.Fatalf("artifact %q has no shape check", a.Name)
			}
			tables, err := a.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, tab := range tables {
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Fatalf("row %v does not fit header %v", row, tab.Header)
					}
				}
			}
			check(t, tables)
		})
	}
}

// shapes holds, per artifact, the checks its tables must pass.
var shapes = map[string]func(t *testing.T, tabs []Table){
	"fig5": func(t *testing.T, tabs []Table) {
		total := column[time.Duration](t, tabs[0], "total")
		if total[len(total)-1] <= total[0] {
			t.Errorf("setup time did not grow: %v", total)
		}
	},
	"fig6": func(t *testing.T, tabs []Table) {
		piE := column[time.Duration](t, tabs[0], "π_e")
		if piE[len(piE)-1] <= piE[0] {
			t.Errorf("π_e time did not grow: %v", piE)
		}
		// π_k is one fixed circuit whatever the data size.
		piK := column[time.Duration](t, tabs[0], "π_k")
		if lo, hi := slices.Min(piK), slices.Max(piK); hi > 3*lo {
			t.Errorf("π_k time is not flat within 3x: %v", piK)
		}
	},
	"fig7": func(t *testing.T, tabs []Table) {
		for _, d := range column[time.Duration](t, tabs[0], "ZKDET verify") {
			if d > 500*time.Millisecond {
				t.Errorf("ZKDET verification took %v", d)
			}
		}
		zkcp := column[time.Duration](t, tabs[0], "ZKCP verify")
		if zkcp[len(zkcp)-1] <= zkcp[0] {
			t.Errorf("ZKCP verification did not grow with ℓ: %v", zkcp)
		}
	},
	"table1": func(t *testing.T, tabs []Table) {
		for _, d := range column[time.Duration](t, tabs[0], "prove") {
			if d <= 0 {
				t.Errorf("non-positive proving time %v", d)
			}
		}
		for _, n := range column[int](t, tabs[0], "proof (B)") {
			if n != plonk.MaxProofSize {
				t.Errorf("processing proof of %d bytes, want the %d-byte table + custom shape", n, plonk.MaxProofSize)
			}
		}
	},
	"table2": func(t *testing.T, tabs []Table) {
		paper := column[uint64](t, tabs[0], "paper")
		gas := column[uint64](t, tabs[0], "measured")
		if len(gas) != 8 || len(paper) != 8 {
			t.Fatalf("Table II has %d rows", len(gas))
		}
		for i := range gas {
			if gas[i] < paper[i]/2 || gas[i] > paper[i]*2 {
				t.Errorf("row %d: measured %d vs paper %d (beyond 2x)", i, gas[i], paper[i])
			}
		}
	},
	"proofsize": func(t *testing.T, tabs []Table) {
		want := map[string]int{proofSizeKey: 742, proofSizeCustom: 742}
		for _, row := range tabs[0].Rows {
			if row[2] != want[row[0].(string)] {
				t.Errorf("%s at %d entries: %d bytes, want %d", row[0], row[1], row[2], want[row[0].(string)])
			}
		}
		if len(tabs[0].Rows) != 2*len(Scales["small"].ProofSize) {
			t.Errorf("%d rows, want a π_k and a π_e row per size", len(tabs[0].Rows))
		}
	},
	"constraints": func(t *testing.T, tabs []Table) {
		classic := column[int](t, tabs[0], "classic")
		lowered := column[int](t, tabs[0], "lookup/custom")
		for i := range classic {
			if lowered[i] <= 0 || lowered[i] >= classic[i] {
				t.Errorf("row %d: lowering %d gates against %d classic", i, lowered[i], classic[i])
			}
		}
	},
	"cipher": func(t *testing.T, tabs []Table) {
		// MiMC's block covers a field element; the ARX row covers 8 bytes,
		// ~1/4 of one.
		for _, col := range []string{"classic", "lookup/custom"} {
			gates := column[int](t, tabs[0], col)
			if gates[0] >= 4*gates[1] {
				t.Errorf("%s: MiMC (%d) does not beat boolean ARX (%d per 8 bytes)", col, gates[0], gates[1])
			}
			// The keystream block covers two elements and must cost less
			// per element than a MiMC block: why π_e encrypts with it.
			if gates[2] >= 2*gates[0] {
				t.Errorf("%s: Poseidon keystream %d rows per 2 elements, MiMC %d per element", col, gates[2], gates[0])
			}
		}
	},
	"commitment": func(t *testing.T, tabs []Table) {
		// Per absorbed element, Poseidon (rate 2) is cheaper than MiMC (rate 1).
		for _, col := range []string{"classic", "lookup/custom"} {
			gates := column[int](t, tabs[0], col)
			if gates[0] <= 0 || gates[0] >= 2*gates[1] {
				t.Errorf("%s: Poseidon %d gates per 2 elements, MiMC %d per element", col, gates[0], gates[1])
			}
		}
	},
	"decouple": func(t *testing.T, tabs []Table) {
		for _, d := range column[time.Duration](t, tabs[0], "total") {
			if d <= 0 {
				t.Errorf("no timing recorded: %v", d)
			}
		}
	},
	"p2p": func(t *testing.T, tabs []Table) {
		for _, d := range column[time.Duration](t, tabs[0], "propagation") {
			if d <= 0 {
				t.Errorf("non-positive propagation %v", d)
			}
		}
		// Wider fanout must not cost fewer messages: each accepting hop
		// forwards to more peers.
		msgs := column[float64](t, tabs[0], "forwards/tx")
		if msgs[len(msgs)-1] < msgs[0] {
			t.Errorf("messages per tx fell as fanout grew: %v", msgs)
		}
		for _, d := range column[time.Duration](t, tabs[1], "sync time") {
			if d <= 0 {
				t.Errorf("non-positive sync time %v", d)
			}
		}
		for _, r := range column[float64](t, tabs[1], "blocks/s") {
			if r <= 0 {
				t.Errorf("non-positive sync rate %v", r)
			}
		}
	},
}

// column returns the cells of tab's column named name that hold a T;
// others, such as a "—" placeholder, are skipped.
func column[T any](t *testing.T, tab Table, name string) []T {
	t.Helper()
	i := slices.Index(tab.Header, name)
	if i < 0 {
		t.Fatalf("no column %q in %v", name, tab.Header)
	}
	var cells []T
	for _, row := range tab.Rows {
		if v, ok := row[i].(T); ok {
			cells = append(cells, v)
		}
	}
	if len(cells) == 0 {
		t.Fatalf("column %q holds no %T", name, *new(T))
	}
	return cells
}

// table1Row runs Table I at the small scale restricted to the given rows
// and returns its one row.
func table1Row(t *testing.T, logreg []int, transformers []transformer.Config) []any {
	t.Helper()
	s := *smallSession()
	s.Scale.LogReg, s.Scale.Transformers = logreg, transformers
	tabs, err := table1(&s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != 1 {
		t.Fatalf("rows: %d, want 1", len(tabs[0].Rows))
	}
	return tabs[0].Rows[0]
}

// checkTable1Row checks one Table I row: a positive proving time and a
// proof of the table + custom shape's fixed size.
func checkTable1Row(t *testing.T, row []any) {
	t.Helper()
	if d := row[2].(time.Duration); d <= 0 || row[3] != plonk.MaxProofSize {
		t.Fatalf("row: %v", row)
	}
}

func TestTable1LogRegSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	checkTable1Row(t, table1Row(t, []int{4}, nil))
}

func TestTable1TransformerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	cfg := transformer.Config{SeqLen: 2, DModel: 2, DK: 2, DFF: 2, DOut: 2}
	row := table1Row(t, nil, []transformer.Config{cfg})
	if row[1] != cfg.ParamCount() {
		t.Fatalf("row: %v, want %d params", row, cfg.ParamCount())
	}
	checkTable1Row(t, row)
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		0.0025: "2.50ms",
		0.12:   "120ms",
		0.9996: "1.00s",
		3.11:   "3.11s",
		59.999: "1min00s",
		119.6:  "2min00s",
		131.4:  "2min11s",
		179.7:  "3min00s",
	}
	for in, want := range cases {
		if got := FormatSeconds(in); got != want {
			t.Errorf("FormatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

package bench

import (
	"sync"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/apps/transformer"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/plonk"
)

func timeNow() time.Time                  { return time.Now() }
func timeSince(t time.Time) time.Duration { return time.Since(t) }

// One small system shared by the experiment smoke tests.
var benchSys = sync.OnceValue(func() *core.System {
	s, err := NewSystem(1 << 13)
	if err != nil {
		panic(err)
	}
	return s
})

// TestFig5SetupShape checks that setup time grows with the constraint
// count (the Figure 5 shape) at tiny scales.
func TestFig5SetupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	rows, err := Fig5Setup([]int{1 << 8, 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[1].TotalSeconds <= rows[0].TotalSeconds {
		t.Fatalf("setup time did not grow: %v then %v", rows[0].TotalSeconds, rows[1].TotalSeconds)
	}
}

func TestFig6ProofGenShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	sys := benchSys()
	rows, err := Fig6ProofGen(sys, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	// π_e grows with data size; π_k does not (it is a fixed circuit).
	if rows[1].PiESeconds <= rows[0].PiESeconds {
		t.Fatalf("π_e time did not grow: %v then %v", rows[0].PiESeconds, rows[1].PiESeconds)
	}
	ratio := rows[1].PiKSeconds / rows[0].PiKSeconds
	if ratio > 3 || ratio < 1.0/3 {
		t.Fatalf("π_k time should be flat; ratio %v", ratio)
	}
}

func TestFig7VerifyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	sys := benchSys()
	rows, err := Fig7Verify(sys, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	// ZKDET verification stays under the paper's 0.1s-scale bound.
	for _, r := range rows {
		if r.ZKDETSeconds > 0.5 {
			t.Fatalf("zkdet verification %vs at %d inputs", r.ZKDETSeconds, r.Inputs)
		}
	}
	// The ZKCP cost model's growth is easiest to see at a wider spread:
	// ℓ G1 exponentiations dominate once ℓ is large.
	start := timeNow()
	core.ZKCPVerifierCost(8)
	small := timeSince(start)
	start = timeNow()
	core.ZKCPVerifierCost(512)
	big := timeSince(start)
	if big <= small {
		t.Fatalf("zkcp cost did not grow: %v then %v", small, big)
	}
}

func TestTable2GasMagnitudes(t *testing.T) {
	sys := benchSys()
	rows, err := Table2Gas(sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("Table II has %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Gas == 0 {
			t.Fatalf("%s: no gas measured", r.Operation)
		}
		// Within 2x of the paper in both directions.
		if r.Gas < r.PaperGas/2 || r.Gas > r.PaperGas*2 {
			t.Fatalf("%s: measured %d vs paper %d (beyond 2x)", r.Operation, r.Gas, r.PaperGas)
		}
	}
}

func TestTable1LogRegSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	sys := benchSys()
	rows, err := Table1LogReg(sys, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ProveSeconds <= 0 || rows[0].ProofBytes != plonk.ProofSize {
		t.Fatalf("row: %+v", rows[0])
	}
}

func TestTable1TransformerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	sys := benchSys()
	cfg := transformer.Config{SeqLen: 2, DModel: 2, DK: 2, DFF: 2, DOut: 2}
	rows, err := Table1Transformer(sys, []transformer.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Size != cfg.ParamCount() || rows[0].ProofBytes != plonk.ProofSize {
		t.Fatalf("row: %+v", rows[0])
	}
}

func TestProofSizeConstantAcrossScales(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	sys := benchSys()
	rows, err := ProofSizeConstant(sys, []int{2, 16})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{ProofSizeClassicTask: plonk.ProofSize, ProofSizeCustomTask: 1158}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want a classic and a custom-gate row per scale", len(rows))
	}
	for _, r := range rows {
		if r.ProofBytes != want[r.Task] {
			t.Fatalf("%s at %d entries: %d bytes, want %d", r.Task, r.Size, r.ProofBytes, want[r.Task])
		}
	}
}

func TestAblations(t *testing.T) {
	cipher := AblationCipher()
	if len(cipher) < 2 {
		t.Fatal("cipher ablation empty")
	}
	// MiMC per-element cost beats the boolean alternative per-element
	// (the ARX row covers only 8 bytes, ~1/4 of an element).
	if cipher[0].Constraints >= cipher[1].Constraints*4 {
		t.Fatalf("MiMC (%d) should beat boolean ARX (%d per 8 bytes)",
			cipher[0].Constraints, cipher[1].Constraints)
	}
	commit := AblationCommitment()
	if len(commit) < 2 || commit[0].Constraints == 0 {
		t.Fatal("commitment ablation empty")
	}
}

func TestAblationDecouple(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	sys := benchSys()
	rows, err := AblationDecouple(sys, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	// The claim is about marginal cost per additional transformation; at
	// chain length 2 the decoupled strategy should already not be slower
	// by much, and the monolithic circuits each re-prove two encryptions.
	if rows[0].TotalSeconds <= 0 || rows[1].TotalSeconds <= 0 {
		t.Fatal("no timing recorded")
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		0.12:  "120ms",
		3.11:  "3.11s",
		131.4: "2min11s",
	}
	for in, want := range cases {
		if got := FormatSeconds(in); got != want {
			t.Fatalf("FormatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

// Package bench is the paper's evaluation (§VI) as one list of artifacts:
// Figs. 5–7, Tables I–II, the §VI-B3 proof size, the constraint report, the
// three design ablations of §IV-B/C and the network layer. cmd/zkdet-bench
// prints each as the Markdown tables EXPERIMENTS.md holds; the package test
// runs every one at the small scale and checks the paper's shape on it.
//
// Sizes are scaled down from the paper's testbed (a from-scratch Go Plonk
// prover on shared hardware versus Snarkjs on an i9-11900K); the quantities
// that must reproduce are the *shapes*: growing setup and proving time,
// constant π_k cost, constant proof size, flat ZKDET verification versus
// growing ZKCP verification, and Table II's gas magnitudes.
package bench

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"github.com/zkdet/zkdet/internal/apps/logreg"
	"github.com/zkdet/zkdet/internal/apps/transformer"
	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/plonk"
)

// Scale is one size of every artifact's workload.
type Scale struct {
	System       int   // gates the shared proving system's SRS carries
	Fig5         []int // circuit sizes, in gates
	Fig6         []int // dataset entries
	Fig7         []int // dataset entries, hence π_e public inputs
	ZKCP         []int // further ZKCP verifier inputs ℓ, past Fig7's
	LogReg       []int // Table I training samples
	Transformers []transformer.Config
	ProofSize    []int // dataset entries
	Decouple     int   // dataset entries of the decoupling chain
	GossipNodes  int
	Fanouts      []int
	GossipTxs    int
	SyncLengths  []int // blocks
	SyncTxs      int   // transactions per block
}

// Scales holds the two sizes: small, the driver's default and what the
// package test runs, and medium, what EXPERIMENTS.md records.
var Scales = map[string]Scale{
	"small": {
		System:       1 << 14,
		Fig5:         []int{1 << 8, 1 << 9, 1 << 10, 1 << 11, 1 << 12},
		Fig6:         []int{2, 4, 8, 16},
		Fig7:         []int{2, 4, 8, 16},
		ZKCP:         []int{64, 512},
		LogReg:       []int{4, 8},
		ProofSize:    []int{2, 16},
		Decouple:     4,
		GossipNodes:  5,
		Fanouts:      []int{1, 4},
		GossipTxs:    2,
		SyncLengths:  []int{4, 16},
		SyncTxs:      2,
		Transformers: []transformer.Config{{SeqLen: 2, DModel: 2, DK: 2, DFF: 2, DOut: 2}},
	},
	"medium": {
		System:      1 << 17,
		Fig5:        []int{1 << 10, 1 << 12, 1 << 14, 1 << 16},
		Fig6:        []int{2, 4, 8, 16, 32, 64},
		Fig7:        []int{4, 16, 64},
		ZKCP:        []int{256, 1024, 4096},
		LogReg:      []int{8, 16, 32},
		ProofSize:   []int{2, 16, 64},
		Decouple:    8,
		GossipNodes: 7,
		Fanouts:     []int{1, 2, 3, 6},
		GossipTxs:   10,
		SyncLengths: []int{8, 32, 128},
		SyncTxs:     4,
		Transformers: []transformer.Config{
			{SeqLen: 3, DModel: 4, DK: 4, DFF: 8, DOut: 4},
			{SeqLen: 4, DModel: 8, DK: 4, DFF: 16, DOut: 8},
		},
	},
}

// Table is one Markdown table of an artifact. A cell is a time.Duration
// (printed by FormatSeconds), an int or uint64, a float64 (one decimal) or
// a string.
type Table struct {
	Caption string // optional line above the table
	Header  []string
	Rows    [][]any
}

// Artifact is one table or figure of the evaluation.
type Artifact struct {
	Name  string // the driver's argument
	Title string
	Paper string // what the paper reports; empty if the paper has no such artifact
	Run   func(*Session) ([]Table, error)
}

// Artifacts is the evaluation, in the paper's order.
var Artifacts = []Artifact{
	{"fig5", "Figure 5 — circuit setup time vs constraints",
		"setup grows with the number of constraints; < 2 min at 2²⁰ constraints on an i9-11900K.", fig5},
	{"fig6", "Figure 6 — proof generation time vs data size",
		"π_e/π_p linear in data size (~3 min at 5 MB); π_t for aggregation/partition/duplication ~10 s at 5 MB; π_k constant, ~120 ms.", fig6},
	{"fig7", "Figure 7 — ZKDET vs ZKCP running time (verification)",
		"ZKDET verification < 0.1 s and flat (2 pairings + 18 exponentiations); ZKCP's verifier grows with its ℓ public inputs (3 pairings + ℓ exponentiations).", fig7},
	{"table1", "Table I — processing proofs (logistic regression, transformer)",
		"LR 495 entries → 3.11 s, 1,963 → 21.73 s, 10,210 → 131.44 s; transformer 201k params → 1m29s, 1M → 8m12s; all proofs ~2.4 KB.", table1},
	{"table2", "Table II — gas consumption of smart contracts",
		"the gas of each operation under the EVM schedule (the paper column), directly comparable with ours.", table2},
	{"proofsize", "§VI-B3 — proof size",
		"a proof is 9 G1 + 6 field elements at every circuit size.", proofSize},
	{"constraints", "Constraint report — classic vs lookup/custom-gate lowering (DESIGN.md §15)",
		"", constraintReport},
	{"cipher", "Ablation — cipher in-circuit (§IV-C1)",
		"MiMC rather than AES/SHA-class ciphers, whose boolean circuits cost orders of magnitude more constraints.", ablationCipher},
	{"commitment", "Ablation — commitment in-circuit (§IV-C2)",
		"Poseidon rather than Pedersen commitments, ~8x fewer constraints.", ablationCommitment},
	{"decouple", "Ablation — decoupled π_e/π_t vs monolithic π_f (§IV-B)",
		"decoupling the proof of encryption from the proof of transformation halves proof generation along a transformation chain.", ablationDecouple},
	{"p2p", "Network layer — gossip propagation and chain sync (SimNet)",
		"", p2pLayer},
}

// Session runs artifacts at one scale. The artifacts that prove share one
// proving system, built on first use, whose circuit keys stay cached.
type Session struct {
	Scale  Scale
	system func() (*core.System, error)
}

// NewSession starts a session at the given scale.
func NewSession(s Scale) *Session {
	return &Session{Scale: s, system: sync.OnceValues(func() (*core.System, error) {
		return core.NewTestSystem(s.System)
	})}
}

// Environment names the commit and the host a report was measured on. The
// prover fans out across a GOMAXPROCS-bounded worker pool (DESIGN.md
// "Parallelism model"), so times compare only at the same core count.
func Environment() string {
	commit := "unknown (not built from a git checkout by go build)"
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value[:min(len(s.Value), 12)]
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = " with local changes"
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return fmt.Sprintf("commit %s; host %s, %d CPU(s), GOMAXPROCS=%d, %s %s/%s",
		commit, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// cpuModel reads the processor's name where the OS says it (Linux).
func cpuModel() string {
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return "an unnamed " + runtime.GOARCH + " CPU"
}

// FormatSeconds renders a duration in the style of the paper's tables. It
// rounds once, to the precision of the unit it then prints in, so a value
// just under a unit's boundary prints in the next unit (0.9996 s is 1.00s,
// 119.6 s is 2min00s).
func FormatSeconds(s float64) string {
	switch {
	case math.Round(s*1e5) < 1000:
		return fmt.Sprintf("%.2fms", s*1000)
	case math.Round(s*1e3) < 1000:
		return fmt.Sprintf("%.0fms", s*1000)
	case math.Round(s*100) < 6000:
		return fmt.Sprintf("%.2fs", s)
	default:
		whole := int(math.Round(s))
		return fmt.Sprintf("%dmin%02ds", whole/60, whole%60)
	}
}

// dataset is the experiments' data: entries 1..n.
func dataset(n int) core.Dataset {
	data := make(core.Dataset, n)
	for i := range data {
		data[i] = fr.NewElement(uint64(i + 1))
	}
	return data
}

// warmTimed runs f once, which builds and caches any circuit key it needs,
// then times a second run: the paper's tables report proving, not setup.
func warmTimed(f func() error) (time.Duration, error) {
	if err := f(); err != nil {
		return 0, err
	}
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// sinceOf times f.
func sinceOf(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// --- Figure 5: circuit setup time vs number of constraints ---

// powerCircuit is a squaring chain of n gates plus the public-input and
// final equality gates: a circuit whose size is exactly controllable.
func powerCircuit(n int) *plonk.ConstraintSystem {
	cs := plonk.NewConstraintSystem(1)
	cur := cs.NewVariable()
	minusOne := fr.NewFromInt64(-1)
	for i := 0; i < n; i++ {
		sq := cs.NewVariable()
		cs.MustAddGate(plonk.Gate{QM: fr.One(), QO: minusOne, A: cur, B: cur, C: sq})
		cur = sq
	}
	cs.MustAddGate(plonk.Gate{QL: fr.One(), QO: minusOne, A: cur, B: cur, C: 0})
	return cs
}

// fig5 times universal SRS generation plus circuit preprocessing. A circuit
// of n constraints is n − 1 gates and the padding row every key keeps, so
// it fills the n-row domain the System's SRS is sized for.
func fig5(s *Session) ([]Table, error) {
	t := Table{Header: []string{"constraints", "SRS", "preprocess", "total"}}
	for _, n := range s.Scale.Fig5 {
		var sys *core.System
		var err error
		srs := sinceOf(func() { sys, err = core.NewTestSystem(n) })
		if err != nil {
			return nil, err
		}
		cs := powerCircuit(n - 3)
		pre := sinceOf(func() { _, _, err = plonk.Setup(cs, sys.SRS()) })
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []any{n, srs, pre, srs + pre})
	}
	return []Table{t}, nil
}

// --- Figure 6: proof generation time vs data size ---

// fig6 times π_e, π_t for a duplication (two openings of one digest, flat in
// the data size) and π_k (data-independent).
func fig6(s *Session) ([]Table, error) {
	sys, err := s.system()
	if err != nil {
		return nil, err
	}
	t := Table{Header: []string{"entries", "data", "π_e", "π_t(dup)", "π_k"}}
	for _, n := range s.Scale.Fig6 {
		data, k := dataset(n), fr.NewElement(12345)
		piE, err := warmTimed(func() error {
			_, _, _, _, err := sys.EncryptAndProve(data, k)
			return err
		})
		if err != nil {
			return nil, err
		}
		cs, os := data.Commit()
		piT, err := warmTimed(func() error {
			_, _, err := sys.ProveDuplication(data, cs, os)
			return err
		})
		if err != nil {
			return nil, err
		}
		seller, err := core.NewSeller(sys, data, k, core.TruePredicate{})
		if err != nil {
			return nil, err
		}
		kv := fr.NewElement(777)
		hv := core.HashChallenge(kv)
		piK, err := warmTimed(func() error {
			_, _, err := seller.NegotiateKey(kv, hv)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []any{n, fmt.Sprintf("%.2fKB", float64(n*32)/1024), piE, piT, piK})
	}
	return []Table{t}, nil
}

// --- Figure 7: ZKDET vs ZKCP running time (verification) ---

// fig7 times ZKDET's Plonk verification of π_e against the ZKCP baseline's
// Groth16-style verifier (3 pairings + ℓ G1 exponentiations, §VI-B3). The
// ZKCP verifier needs no SRS, so its rows go on past the π_e sizes.
func fig7(s *Session) ([]Table, error) {
	sys, err := s.system()
	if err != nil {
		return nil, err
	}
	zkcp := func(n int) time.Duration { return sinceOf(func() { core.ZKCPVerifierCost(n) }) }
	t := Table{Header: []string{"inputs", "ZKDET verify", "ZKCP verify"}}
	for _, n := range s.Scale.Fig7 {
		st, _, _, proof, err := sys.EncryptAndProve(dataset(n), fr.NewElement(999))
		if err != nil {
			return nil, err
		}
		verify, err := warmTimed(func() error { return sys.VerifyEncryption(st, proof) })
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []any{n, verify, zkcp(n)})
	}
	for _, n := range s.Scale.ZKCP {
		t.Rows = append(t.Rows, []any{n, "—", zkcp(n)})
	}
	return []Table{t}, nil
}

// --- Table I: proofs of transformation for data processing ---

// table1 proves each row's statement: a processing π_t, on the range table
// plus custom gates like every processing proof (DESIGN.md §15.3).
func table1(s *Session) ([]Table, error) {
	sys, err := s.system()
	if err != nil {
		return nil, err
	}
	t := Table{Header: []string{"task", "entries/params", "prove", "proof (B)"}}
	for _, n := range s.Scale.LogReg {
		data, trainer, err := logregWorkload(n)
		if err != nil {
			return nil, err
		}
		cells, err := proveProcessing(sys, data, trainer)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, append([]any{"Logistic regression", n}, cells...))
	}
	for i, cfg := range s.Scale.Transformers {
		bl, err := transformer.NewBlock(cfg, int64(40+i))
		if err != nil {
			return nil, err
		}
		seq := make([][]float64, cfg.SeqLen)
		for r := range seq {
			seq[r] = make([]float64, cfg.DModel)
			for c := range seq[r] {
				seq[r][c] = 0.3 * float64((r+c)%3-1)
			}
		}
		data, err := cfg.EncodeSequence(seq)
		if err != nil {
			return nil, err
		}
		cells, err := proveProcessing(sys, data, bl)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, append([]any{"Transformer", cfg.ParamCount()}, cells...))
	}
	return []Table{t}, nil
}

// proveProcessing returns the proving time and proof size of the processing
// π_t of one statement.
func proveProcessing(sys *core.System, data core.Dataset, p core.Processor) ([]any, error) {
	cs, os := data.Commit()
	var tp *core.TransformProof
	d, err := warmTimed(func() (err error) {
		tp, _, _, err = sys.ProveProcessing(p, data, cs, os)
		return err
	})
	if err != nil {
		return nil, err
	}
	return []any{d, len(tp.Proof.Bytes())}, nil
}

// logregWorkload is a synthetic separable training set of n samples and
// its Trainer.
func logregWorkload(n int) (core.Dataset, *logreg.Trainer, error) {
	samples := make([]logreg.Sample, n)
	for i := range samples {
		a := 0.1 + 0.5*float64(i%7)/7
		b := 0.1 + 0.5*float64(i%5)/5
		y := 0.0
		if i%2 == 1 {
			a += 0.6
			b += 0.6
			y = 1.0
		}
		samples[i] = logreg.Sample{X: []float64{a, b}, Y: y}
	}
	data, err := logreg.EncodeSamples(samples)
	return data, &logreg.Trainer{N: n, K: 2, Step: 0.5, Lambda: 0.05, MaxIters: 8000, Epsilon: 0.03}, err
}

// --- Table II: gas consumption of smart contracts ---

// table2 deploys the contract suite and measures every operation of
// Table II on the simulated chain.
func table2(s *Session) ([]Table, error) {
	sys, err := s.system()
	if err != nil {
		return nil, err
	}
	m, deployGas, err := core.NewMarketplace(sys)
	if err != nil {
		return nil, err
	}
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	m.Chain.Faucet(alice, 1_000_000)
	m.Chain.Faucet(bob, 1_000_000)

	// submit runs one DataNFT call in its own block. The first failure
	// sticks, and every later call is skipped.
	var failed error
	submit := func(from chain.Address, method string, args ...[]byte) (gas, ret uint64) {
		if failed != nil {
			return 0, 0
		}
		o := m.Chain.ProduceBlock([]chain.Transaction{{
			From: from, Contract: contracts.DataNFTName, Method: method,
			Args: contracts.EncodeArgs(args...), Nonce: m.Chain.NonceOf(from),
		}}).Outcomes[0]
		if o.Err == nil {
			o.Err = o.Receipt.Err
		}
		if o.Err != nil {
			failed = fmt.Errorf("%s: %w", method, o.Err)
			return 0, 0
		}
		ret, _ = contracts.DecU64(o.Receipt.Return)
		return o.Receipt.GasUsed, ret
	}
	uri, commit := make([]byte, 32), make([]byte, 64)
	for i := range uri {
		uri[i] = byte(i)
	}

	mint, id1 := submit(alice, "mint", uri, commit)
	_, id2 := submit(alice, "mint", uri, commit)
	submit(bob, "mint", uri, commit) // warms bob's balance slot: transfer is steady-state
	transfer, _ := submit(alice, "transfer", contracts.U64(id2), bob[:])
	burn, _ := submit(bob, "burn", contracts.U64(id2))
	_, id3 := submit(alice, "mint", uri, commit)
	agg, aggID := submit(alice, "aggregate", contracts.U64List([]uint64{id1, id3}), uri, commit)
	part, _ := submit(alice, "partition", contracts.U64(aggID), uri, commit, uri, commit)
	dup, _ := submit(alice, "duplicate", contracts.U64(id1), uri, commit)
	if failed != nil {
		return nil, failed
	}

	t := Table{Header: []string{"operation", "paper", "measured", "ratio"}}
	for _, r := range []struct {
		op         string
		paper, gas uint64
	}{
		{"ZKDET contract deployment", 1020954, deployGas.DataNFT},
		{"Verifier contract deployment", 1644969, deployGas.Verifier},
		{"Token minting", 106048, mint},
		{"Token transferring", 36574, transfer},
		{"Token burning", 50084, burn},
		{"Aggregation", 96780, agg},
		// Our partition mints every child token in one transaction; the
		// paper reports per-invocation gas on a contract that amortizes
		// child bookkeeping, so report it per derived token.
		{"Partition (per derived token)", 83124, part / 2},
		{"Duplication", 94012, dup},
	} {
		t.Rows = append(t.Rows, []any{r.op, r.paper, r.gas, fmt.Sprintf("%.2fx", float64(r.gas)/float64(r.paper))})
	}
	return []Table{t}, nil
}

// --- §VI-B3: proof size ---

// Task labels of the proof-size rows, with each shape's field list.
const (
	proofSizeKey    = "π_k (custom gates: 8 G1 + 7 Fr)"
	proofSizeCustom = "π_e (custom gates: 8 G1 + 7 Fr)"
)

// proofSize serializes two proofs for each size n: π_k, the proof an escrow
// settlement carries (its circuit does not grow with the data), and π_e
// over n entries. Both prove on the custom-gate shape without a lookup
// argument: 742 bytes at every n, 32 below the paper's 9 G1 + 6 Fr — one
// point fewer (the quotient in two pieces), one opening more (the next-row
// wires, once).
func proofSize(s *Session) ([]Table, error) {
	sys, err := s.system()
	if err != nil {
		return nil, err
	}
	t := Table{Header: []string{"proof (6 B header + fields)", "entries", "bytes"}}
	for _, n := range s.Scale.ProofSize {
		data, k := dataset(n), fr.NewElement(7)
		seller, err := core.NewSeller(sys, data, k, core.TruePredicate{})
		if err != nil {
			return nil, err
		}
		kv := fr.NewElement(777)
		_, piK, err := seller.NegotiateKey(kv, core.HashChallenge(kv))
		if err != nil {
			return nil, err
		}
		_, _, _, piE, err := sys.EncryptAndProve(data, k)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows,
			[]any{proofSizeKey, n, len(piK.Bytes())},
			[]any{proofSizeCustom, n, len(piE.Bytes())})
	}
	return []Table{t}, nil
}

// --- Ablation: decoupled π_e/π_t vs monolithic π_f (§IV-B) ---

// ablationDecouple times both strategies over the chain S → D1 → D2 of two
// duplications. Decoupled proves 3 encryptions (S, D1, D2, each once) and 2
// transformations; monolithic embeds both ciphertexts' encryption in each
// of its 2 transformation proofs, so D1's encryption is proven twice.
func ablationDecouple(s *Session) ([]Table, error) {
	sys, err := s.system()
	if err != nil {
		return nil, err
	}
	data := dataset(s.Scale.Decouple)
	cS, oS := data.Commit()
	decoupled, err := warmTimed(func() error {
		for i := range 3 {
			if _, _, _, _, err := sys.EncryptAndProve(data, fr.NewElement(uint64(1001+i))); err != nil {
				return err
			}
		}
		tp, oD1, err := sys.ProveDuplication(data, cS, oS)
		if err != nil {
			return err
		}
		_, _, err = sys.ProveDuplication(data, tp.Derived[0], oD1)
		return err
	})
	if err != nil {
		return nil, err
	}
	monolithic, err := warmTimed(func() error {
		for i := range 2 {
			if _, err := sys.ProveMonolithicDuplication(data,
				fr.NewElement(uint64(2000+i)), fr.NewElement(uint64(3000+i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []Table{{
		Header: []string{"strategy", "proofs", "encryptions proven", "total"},
		Rows: [][]any{
			{"decoupled π_e + π_t (§IV-B)", 5, 3, decoupled},
			{"monolithic π_f (§III-B strawman)", 2, 4, monolithic},
		},
	}}, nil
}

// Package bench implements the measurement harness behind every table and
// figure of the paper's evaluation (§VI). Each experiment is a function
// returning structured rows, consumed both by the root bench_test.go
// (testing.B integration) and by cmd/zkdet-bench (human-readable report).
//
// Sizes are scaled down from the paper's testbed (a from-scratch big-int
// Plonk prover on shared CI hardware versus Snarkjs on an i9-11900K); the
// quantities that must reproduce are the *shapes*: linear proving time,
// constant π_k cost, constant proof size, flat ZKDET verification versus
// growing ZKCP verification, and Table II's gas magnitudes.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"github.com/zkdet/zkdet/internal/apps/logreg"
	"github.com/zkdet/zkdet/internal/apps/transformer"
	"github.com/zkdet/zkdet/internal/chain"
	"github.com/zkdet/zkdet/internal/circuit"
	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/core"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/kzg"
	"github.com/zkdet/zkdet/internal/mimc"
	"github.com/zkdet/zkdet/internal/plonk"
	"github.com/zkdet/zkdet/internal/poseidon"
)

// Environment describes the machine a report was measured on. The prover
// hot paths fan out across a GOMAXPROCS-bounded worker pool (see DESIGN.md
// "Parallelism model"), so recorded times are only comparable alongside
// the core count they were measured with.
func Environment() string {
	return fmt.Sprintf("%s %s/%s, %d CPU(s), GOMAXPROCS=%d",
		runtime.Version(), runtime.GOOS, runtime.GOARCH,
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// newSRS builds a deterministic SRS able to carry circuits of n gates.
func newSRS(maxConstraints int) (*kzg.SRS, error) {
	n := 64
	for n < maxConstraints {
		n <<= 1
	}
	tau := fr.NewElement(0xbe_c4)
	return kzg.NewSRSFromSecret(4*n+16, &tau)
}

// NewSystem builds a deterministic core.System for the experiments.
func NewSystem(maxConstraints int) (*core.System, error) {
	return core.NewTestSystem(maxConstraints)
}

// --- Figure 5: circuit setup time vs number of constraints ---

// Fig5Row is one point of Figure 5.
type Fig5Row struct {
	Constraints       int
	SRSSeconds        float64
	PreprocessSeconds float64
	TotalSeconds      float64
}

// powerCircuit builds an n-gate squaring chain (a representative circuit
// whose size is exactly controllable).
func powerCircuit(n int) (*plonk.ConstraintSystem, []fr.Element) {
	cs := plonk.NewConstraintSystem(1)
	x := cs.NewVariable()
	val := fr.NewElement(3)
	witness := []fr.Element{fr.Zero(), val}
	cur := x
	curVal := val
	minusOne := fr.NewFromInt64(-1)
	for i := 0; i < n; i++ {
		sq := cs.NewVariable()
		var sqVal fr.Element
		sqVal.Square(&curVal)
		witness = append(witness, sqVal)
		cs.MustAddGate(plonk.Gate{QM: fr.One(), QO: minusOne, A: cur, B: cur, C: sq})
		cur, curVal = sq, sqVal
	}
	cs.MustAddGate(plonk.Gate{QL: fr.One(), QO: minusOne, A: cur, B: cur, C: 0})
	witness[0] = curVal
	return cs, witness
}

// Fig5Setup measures universal SRS generation plus circuit preprocessing
// for each constraint count.
func Fig5Setup(sizes []int) ([]Fig5Row, error) {
	rows := make([]Fig5Row, 0, len(sizes))
	for _, n := range sizes {
		start := time.Now()
		srs, err := newSRS(n)
		if err != nil {
			return nil, err
		}
		srsDur := time.Since(start)

		cs, _ := powerCircuit(n - cs0Overhead(n))
		start = time.Now()
		if _, _, err := plonk.Setup(cs, srs); err != nil {
			return nil, err
		}
		preDur := time.Since(start)
		rows = append(rows, Fig5Row{
			Constraints:       n,
			SRSSeconds:        srsDur.Seconds(),
			PreprocessSeconds: preDur.Seconds(),
			TotalSeconds:      (srsDur + preDur).Seconds(),
		})
	}
	return rows, nil
}

// cs0Overhead keeps the generated circuit at ~n constraints including the
// public-input and final equality gates.
func cs0Overhead(int) int { return 2 }

// --- Figure 6: proof generation time vs data size ---

// Fig6Row is one point of Figure 6: proving time for π_e (≈ π_p), π_t
// (duplication — a pure data comparison, like aggregation/partition) and
// π_k (constant, data-independent) at a dataset size.
type Fig6Row struct {
	Entries    int
	DataKB     float64
	PiESeconds float64
	PiTSeconds float64
	PiKSeconds float64
}

// Fig6ProofGen measures proof generation across dataset sizes.
func Fig6ProofGen(sys *core.System, sizes []int) ([]Fig6Row, error) {
	rows := make([]Fig6Row, 0, len(sizes))
	for _, n := range sizes {
		data := make(core.Dataset, n)
		for i := range data {
			data[i] = fr.NewElement(uint64(i + 1))
		}
		k := fr.NewElement(12345)

		// π_e: encryption + commitments (warm up setup first so the
		// measurement isolates proving, as the paper's does).
		if _, _, _, _, err := sys.EncryptAndProve(data, k); err != nil {
			return nil, err
		}
		start := time.Now()
		_, _, _, _, err := sys.EncryptAndProve(data, k)
		if err != nil {
			return nil, err
		}
		piE := time.Since(start)

		// π_t: duplication (data comparison under commitments).
		cs, os := data.Commit()
		if _, _, err := sys.ProveDuplication(data, cs, os); err != nil {
			return nil, err
		}
		start = time.Now()
		if _, _, err := sys.ProveDuplication(data, cs, os); err != nil {
			return nil, err
		}
		piT := time.Since(start)

		// π_k: key negotiation — constant size.
		seller, err := core.NewSeller(sys, data, k, core.TruePredicate{})
		if err != nil {
			return nil, err
		}
		kv := fr.NewElement(777)
		hv := core.HashChallenge(kv)
		if _, _, err := seller.NegotiateKey(kv, hv); err != nil {
			return nil, err
		}
		start = time.Now()
		if _, _, err := seller.NegotiateKey(kv, hv); err != nil {
			return nil, err
		}
		piK := time.Since(start)

		rows = append(rows, Fig6Row{
			Entries:    n,
			DataKB:     float64(n*32) / 1024,
			PiESeconds: piE.Seconds(),
			PiTSeconds: piT.Seconds(),
			PiKSeconds: piK.Seconds(),
		})
	}
	return rows, nil
}

// --- Figure 7: ZKDET vs ZKCP running time (verification) ---

// Fig7Row compares verification time at a public-input size.
type Fig7Row struct {
	Inputs       int
	ZKDETSeconds float64
	ZKCPSeconds  float64
}

// Fig7Verify measures ZKDET's Plonk verification (flat in the input size)
// against the ZKCP baseline's Groth16-style verifier (3 pairings + ℓ G1
// exponentiations, §VI-B3).
func Fig7Verify(sys *core.System, sizes []int) ([]Fig7Row, error) {
	rows := make([]Fig7Row, 0, len(sizes))
	for _, n := range sizes {
		data := make(core.Dataset, n)
		for i := range data {
			data[i] = fr.NewElement(uint64(i + 1))
		}
		k := fr.NewElement(999)
		st, _, _, proof, err := sys.EncryptAndProve(data, k)
		if err != nil {
			return nil, err
		}
		// Warm the verifying key cache.
		if err := sys.VerifyEncryption(st, proof); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := sys.VerifyEncryption(st, proof); err != nil {
			return nil, err
		}
		zkdet := time.Since(start)

		start = time.Now()
		core.ZKCPVerifierCost(n)
		zkcp := time.Since(start)

		rows = append(rows, Fig7Row{
			Inputs:       n,
			ZKDETSeconds: zkdet.Seconds(),
			ZKCPSeconds:  zkcp.Seconds(),
		})
	}
	return rows, nil
}

// --- Table I: proofs of transformation for data processing ---

// Table1Row is one row of Table I.
type Table1Row struct {
	Task         string
	Size         int // entries (logreg) or parameters (transformer)
	ProveSeconds float64
	ProofBytes   int
}

// Table2Row is one row of Table II.
type Table2Row struct {
	Operation string
	PaperGas  uint64
	Gas       uint64
}

// Table2Gas deploys the contract suite and measures every operation of
// Table II on the simulated chain.
func Table2Gas(sys *core.System) ([]Table2Row, error) {
	m, deployGas, err := core.NewMarketplace(sys)
	if err != nil {
		return nil, err
	}
	alice := chain.AddressFromString("alice")
	bob := chain.AddressFromString("bob")
	m.Chain.Faucet(alice, 1_000_000)
	m.Chain.Faucet(bob, 1_000_000)

	submit := func(from chain.Address, method string, args []byte) (*chain.Receipt, error) {
		o := m.Chain.ProduceBlock([]chain.Transaction{{
			From: from, Contract: contracts.DataNFTName, Method: method,
			Args: args, Nonce: m.Chain.NonceOf(from),
		}}).Outcomes[0]
		if o.Err != nil {
			return nil, o.Err
		}
		if o.Receipt.Err != nil {
			return nil, o.Receipt.Err
		}
		return o.Receipt, nil
	}
	uri := make([]byte, 32)
	commit := make([]byte, 64)
	for i := range uri {
		uri[i] = byte(i)
	}

	mint1, err := submit(alice, "mint", contracts.EncodeArgs(uri, commit))
	if err != nil {
		return nil, err
	}
	id1, _ := contracts.DecU64(mint1.Return)
	mint2, err := submit(alice, "mint", contracts.EncodeArgs(uri, commit))
	if err != nil {
		return nil, err
	}
	id2, _ := contracts.DecU64(mint2.Return)
	// Warm bob's balance slot so transfer is measured steady-state.
	if _, err := submit(bob, "mint", contracts.EncodeArgs(uri, commit)); err != nil {
		return nil, err
	}

	transfer, err := submit(alice, "transfer", contracts.EncodeArgs(contracts.U64(id2), bob[:]))
	if err != nil {
		return nil, err
	}
	burn, err := submit(bob, "burn", contracts.EncodeArgs(contracts.U64(id2)))
	if err != nil {
		return nil, err
	}
	mint3, err := submit(alice, "mint", contracts.EncodeArgs(uri, commit))
	if err != nil {
		return nil, err
	}
	id3, _ := contracts.DecU64(mint3.Return)
	agg, err := submit(alice, "aggregate", contracts.EncodeArgs(
		contracts.U64List([]uint64{id1, id3}), uri, commit))
	if err != nil {
		return nil, err
	}
	aggID, _ := contracts.DecU64(agg.Return)
	part, err := submit(alice, "partition", contracts.EncodeArgs(
		contracts.U64(aggID), uri, commit, uri, commit))
	if err != nil {
		return nil, err
	}
	// Our partition mints every child token in one transaction; the paper
	// reports per-invocation gas on a contract that amortizes child
	// bookkeeping. Report per derived token for comparability (see
	// EXPERIMENTS.md).
	partPerChild := part.GasUsed / 2
	dup, err := submit(alice, "duplicate", contracts.EncodeArgs(contracts.U64(id1), uri, commit))
	if err != nil {
		return nil, err
	}

	return []Table2Row{
		{Operation: "ZKDET Contract Deployment", PaperGas: 1020954, Gas: deployGas.DataNFT},
		{Operation: "Verifier Contract Deployment", PaperGas: 1644969, Gas: deployGas.Verifier},
		{Operation: "Token Minting", PaperGas: 106048, Gas: mint1.GasUsed},
		{Operation: "Token Transferring", PaperGas: 36574, Gas: transfer.GasUsed},
		{Operation: "Token Burning", PaperGas: 50084, Gas: burn.GasUsed},
		{Operation: "Aggregation", PaperGas: 96780, Gas: agg.GasUsed},
		{Operation: "Partition (per derived token)", PaperGas: 83124, Gas: partPerChild},
		{Operation: "Duplication", PaperGas: 94012, Gas: dup.GasUsed},
	}, nil
}

// --- Ablations (§IV-C design choices) ---

// AblationRow compares constraint counts of design alternatives.
type AblationRow struct {
	Scheme      string
	Constraints int
	Note        string
}

// AblationCipher quantifies §IV-C1: MiMC's per-block circuit cost versus a
// boolean ARX cipher round function (the AES/SHA-style alternative),
// measured by actually building both circuits.
func AblationCipher() []AblationRow {
	mimcCost := mimc.ConstraintsPerBlock()

	// A single 16-round boolean ARX permutation on two 32-bit words: each
	// round costs two 32-bit decompositions, a modular add and xors — the
	// structure AES/SHA-class ciphers are made of.
	b := circuit.NewBuilder()
	x := b.Secret(fr.NewElement(0x12345678))
	y := b.Secret(fr.NewElement(0x9abcdef0))
	before := b.NbGates()
	for r := 0; r < 16; r++ {
		sum := b.Add(x, y)
		sumBits := b.ToBits(sum, 33) // mod 2^32 via bit truncation
		x = b.FromBits(sumBits[:32])
		yBits := b.ToBits(y, 32)
		xBits := b.ToBits(x, 32)
		z := make([]circuit.Variable, 32)
		for i := range z {
			z[i] = b.Xor(xBits[i], yBits[(i+7)%32])
		}
		y = b.FromBits(z)
	}
	arxCost := b.NbGates() - before

	return []AblationRow{
		{Scheme: "MiMC-p/p (91 rounds, x^7)", Constraints: mimcCost, Note: "per field element (~31 bytes)"},
		{Scheme: "boolean ARX (16 rounds, 64-bit state)", Constraints: arxCost, Note: "per 8 bytes — ~4x more state blocks needed per element"},
		{Scheme: "AES-128 (literature, [12])", Constraints: 160000, Note: "per 16-byte block, optimized boolean circuit"},
	}
}

// AblationCommitment quantifies §IV-C2: Poseidon versus hashing the same
// data through MiMC (Miyaguchi–Preneel) and through bit-level hashing.
func AblationCommitment() []AblationRow {
	poseidonCost := poseidon.ConstraintsPerPermutation()

	b := circuit.NewBuilder()
	k := b.Secret(fr.NewElement(1))
	x := b.Secret(fr.NewElement(2))
	before := b.NbGates()
	_ = mimc.GadgetEncrypt(b, k, x)
	mimcCost := b.NbGates() - before

	return []AblationRow{
		{Scheme: "Poseidon permutation (t=3, rate 2)", Constraints: poseidonCost, Note: "absorbs 2 elements"},
		{Scheme: "MiMC Miyaguchi–Preneel step", Constraints: mimcCost, Note: "absorbs 1 element"},
		{Scheme: "Pedersen commitment (literature, [8])", Constraints: poseidonCost * 8, Note: "~8x Poseidon per the paper"},
	}
}

// DecoupleRow compares the monolithic π_f strategy of §III-B against the
// decoupled π_e/π_t strategy of §IV-B over a two-step transformation chain.
type DecoupleRow struct {
	Strategy     string
	Proofs       int
	TotalSeconds float64
}

// AblationDecouple measures both strategies for S → D1 → D2 (duplications),
// demonstrating the "halves the cost of proof generation" claim: the
// monolithic strategy proves each ciphertext's encryption twice.
func AblationDecouple(sys *core.System, entries int) ([]DecoupleRow, error) {
	data := make(core.Dataset, entries)
	for i := range data {
		data[i] = fr.NewElement(uint64(i + 1))
	}

	// Warm up both circuit setups so the comparison isolates proving.
	if _, _, _, _, err := sys.EncryptAndProve(data, fr.NewElement(1)); err != nil {
		return nil, err
	}
	if _, err := sys.ProveMonolithicDuplication(data, fr.NewElement(2), fr.NewElement(3)); err != nil {
		return nil, err
	}
	{
		cs, os := data.Commit()
		if _, _, err := sys.ProveDuplication(data, cs, os); err != nil {
			return nil, err
		}
	}

	// Decoupled (§IV-B): 3 proofs of encryption (S, D1, D2 — each computed
	// once) + 2 proofs of transformation.
	start := time.Now()
	for i := 0; i < 3; i++ {
		if _, _, _, _, err := sys.EncryptAndProve(data, fr.NewElement(uint64(1001+i))); err != nil {
			return nil, err
		}
	}
	cS, oS := data.Commit()
	tp1, oD1, err := sys.ProveDuplication(data, cS, oS)
	if err != nil {
		return nil, err
	}
	if _, _, err := sys.ProveDuplication(data, tp1.Derived[0], oD1); err != nil {
		return nil, err
	}
	decoupled := time.Since(start)

	// Monolithic (§III-B strawman): each transformation proof embeds
	// proofs of encryption for both its source and derived ciphertexts, so
	// the chain S→D1→D2 proves 4 encryptions (D1's twice) plus the two
	// transformations inside 2 big circuits.
	start = time.Now()
	for i := 0; i < 2; i++ {
		if _, err := sys.ProveMonolithicDuplication(data,
			fr.NewElement(uint64(2000+i)), fr.NewElement(uint64(3000+i))); err != nil {
			return nil, err
		}
	}
	monolithic := time.Since(start)

	return []DecoupleRow{
		{Strategy: "decoupled π_e + π_t (§IV-B)", Proofs: 5, TotalSeconds: decoupled.Seconds()},
		{Strategy: "monolithic π_f (§III-B strawman)", Proofs: 2, TotalSeconds: monolithic.Seconds()},
	}, nil
}

// FormatSeconds renders a duration in the style of the paper's tables.
func FormatSeconds(s float64) string {
	switch {
	case s < 1:
		return fmt.Sprintf("%.0fms", s*1000)
	case s < 60:
		return fmt.Sprintf("%.2fs", s)
	default:
		return fmt.Sprintf("%dmin%02.0fs", int(s)/60, s-float64(int(s)/60*60))
	}
}

// Table1LogReg measures logistic-regression convergence proofs at several
// training-set sizes (the paper's 495/1,963/10,210-entry rows, scaled).
func Table1LogReg(sys *core.System, sampleCounts []int) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(sampleCounts))
	for _, n := range sampleCounts {
		data, trainer, err := logregWorkload(n)
		if err != nil {
			return nil, err
		}
		cs, os := data.Commit()
		// Warm the circuit setup, then time proving.
		if _, _, _, err := sys.ProveProcessing(trainer, data, cs, os); err != nil {
			return nil, err
		}
		start := time.Now()
		tp, _, _, err := sys.ProveProcessing(trainer, data, cs, os)
		if err != nil {
			return nil, err
		}
		dur := time.Since(start)
		rows = append(rows, Table1Row{
			Task:         "Logistic Regression",
			Size:         n,
			ProveSeconds: dur.Seconds(),
			ProofBytes:   len(tp.Proof.Bytes()),
		})
	}
	return rows, nil
}

// logregWorkload builds a synthetic separable training set of n samples and
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
	if err != nil {
		return nil, nil, err
	}
	trainer := &logreg.Trainer{
		N: n, K: 2, Step: 0.5, Lambda: 0.05, MaxIters: 8000, Epsilon: 0.03,
	}
	return data, trainer, nil
}

// Table1Transformer measures transformer forward-pass proofs at two model
// sizes (the paper's 201k/1M-parameter rows, scaled).
func Table1Transformer(sys *core.System, cfgs []transformer.Config) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(cfgs))
	for i, cfg := range cfgs {
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
		cs, os := data.Commit()
		if _, _, _, err := sys.ProveProcessing(bl, data, cs, os); err != nil {
			return nil, err
		}
		start := time.Now()
		tp, _, _, err := sys.ProveProcessing(bl, data, cs, os)
		if err != nil {
			return nil, err
		}
		dur := time.Since(start)
		rows = append(rows, Table1Row{
			Task:         "Transformer",
			Size:         cfg.ParamCount(),
			ProveSeconds: dur.Seconds(),
			ProofBytes:   len(tp.Proof.Bytes()),
		})
	}
	return rows, nil
}

// Task labels of ProofSizeConstant's rows, with each shape's field list.
const (
	ProofSizeClassicTask = "π_t sum (classic: 9 G1 + 6 Fr)"
	ProofSizeCustomTask  = "π_e (custom gates: 12 G1 + 12 Fr)"
)

// sumProcessor is the smallest classic processing transform, D = (Σ S): it
// does not ask for the lookup lowering, so its π_t proves on the classic
// shape, the paper's 9 G1 + 6 Fr proof.
type sumProcessor struct{}

func (sumProcessor) Name() string { return "bench/sum" }

func (sumProcessor) Apply(src core.Dataset) (core.Dataset, error) {
	var s fr.Element
	for i := range src {
		s.Add(&s, &src[i])
	}
	return core.Dataset{s}, nil
}

func (sumProcessor) Gadget(b *circuit.Builder, src []circuit.Variable) []circuit.Variable {
	s := src[0]
	for _, v := range src[1:] {
		s = b.Add(s, v)
	}
	return []circuit.Variable{s}
}

// ProofSizeConstant returns serialized proof sizes across circuit scales —
// the §VI-B3 claim that a proof's length does not depend on the relation's
// size — for two proofs over n entries each: a classic π_t (774 bytes at
// every n, the paper's shape) and π_e, which proves on the custom-gate shape
// without a lookup argument (1 158 bytes at every n).
func ProofSizeConstant(sys *core.System, sizes []int) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, 2*len(sizes))
	for _, n := range sizes {
		data := make(core.Dataset, n)
		for i := range data {
			data[i] = fr.NewElement(uint64(i + 1))
		}
		cs, os := data.Commit()
		tp, _, _, err := sys.ProveProcessing(sumProcessor{}, data, cs, os)
		if err != nil {
			return nil, err
		}
		_, _, _, proof, err := sys.EncryptAndProve(data, fr.NewElement(7))
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			Table1Row{Task: ProofSizeClassicTask, Size: n, ProofBytes: len(tp.Proof.Bytes())},
			Table1Row{Task: ProofSizeCustomTask, Size: n, ProofBytes: len(proof.Bytes())})
	}
	return rows, nil
}

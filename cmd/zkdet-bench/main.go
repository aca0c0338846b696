// Command zkdet-bench regenerates every table and figure of the paper's
// evaluation (§VI) on the local machine and prints them side by side with
// the published numbers.
//
// Usage:
//
//	zkdet-bench -all                 # everything at the default small scale
//	zkdet-bench -fig 5|6|7           # one figure
//	zkdet-bench -table 1|2           # one table
//	zkdet-bench -proofsize           # §VI-B3 constant-proof-size check
//	zkdet-bench -ablation cipher|commitment|decouple
//	zkdet-bench -p2p                 # network layer: gossip propagation, chain sync
//	zkdet-bench -exec                # execution layer: sealed tx/s
//	zkdet-bench -ct                  # confidential exchange: prove/verify/batch-verify per shape
//	zkdet-bench -wal                 # durability: WAL appends, durable sealing, recovery time
//	zkdet-bench -scale medium        # larger workloads (slower)
//
// Absolute times are not expected to match the paper (this is a
// from-scratch big-integer Plonk prover, not Snarkjs on the authors'
// i9-11900K); the shapes — linear proving, constant π_k, flat
// verification, gas magnitudes — are the reproduction targets. See
// EXPERIMENTS.md for the recorded comparison.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/zkdet/zkdet/internal/apps/transformer"
	"github.com/zkdet/zkdet/internal/bench"
	"github.com/zkdet/zkdet/internal/core"
)

type scaleConfig struct {
	fig5Sizes    []int
	fig6Sizes    []int
	fig7Sizes    []int
	logregSizes  []int
	transformers []transformer.Config
	sysSize      int
}

func scales() map[string]scaleConfig {
	return map[string]scaleConfig{
		"small": {
			fig5Sizes:   []int{1 << 8, 1 << 9, 1 << 10, 1 << 11, 1 << 12},
			fig6Sizes:   []int{2, 4, 8, 16},
			fig7Sizes:   []int{2, 4, 8, 16},
			logregSizes: []int{4, 8},
			transformers: []transformer.Config{
				{SeqLen: 2, DModel: 2, DK: 2, DFF: 2, DOut: 2},
				{SeqLen: 2, DModel: 4, DK: 2, DFF: 4, DOut: 2},
			},
			sysSize: 1 << 14,
		},
		"medium": {
			fig5Sizes:   []int{1 << 10, 1 << 12, 1 << 14, 1 << 16},
			fig6Sizes:   []int{4, 8, 16, 32, 64},
			fig7Sizes:   []int{4, 16, 64},
			logregSizes: []int{8, 16, 32},
			transformers: []transformer.Config{
				{SeqLen: 3, DModel: 4, DK: 4, DFF: 8, DOut: 4},
				{SeqLen: 4, DModel: 8, DK: 4, DFF: 16, DOut: 8},
			},
			sysSize: 1 << 17,
		},
	}
}

func main() {
	log.SetFlags(0)
	var (
		figFlag      = flag.Int("fig", 0, "regenerate figure 5, 6 or 7")
		tableFlag    = flag.Int("table", 0, "regenerate table 1 or 2")
		proofSize    = flag.Bool("proofsize", false, "check the constant-proof-size claim (§VI-B3)")
		constraints  = flag.Bool("constraints", false, "per-gadget constraint report: classic vs lookup/custom-gate lowering")
		ablationFlag = flag.String("ablation", "", "run an ablation: cipher, commitment or decouple")
		p2pFlag      = flag.Bool("p2p", false, "run the network-layer experiments (gossip, sync)")
		execFlag     = flag.Bool("exec", false, "run the execution-layer experiment (sealed tx/s)")
		ctFlag       = flag.Bool("ct", false, "run the confidential-exchange experiment (prove/verify/batch-verify per transfer shape)")
		walFlag      = flag.Bool("wal", false, "run the durability experiments (WAL appends, durable sealing, recovery time)")
		allFlag      = flag.Bool("all", false, "run every experiment")
		scaleFlag    = flag.String("scale", "small", "workload scale: small or medium")
	)
	flag.Parse()

	cfg, ok := scales()[*scaleFlag]
	if !ok {
		log.Fatalf("unknown scale %q (want small or medium)", *scaleFlag)
	}
	if !*allFlag && *figFlag == 0 && *tableFlag == 0 && *ablationFlag == "" && !*proofSize && !*constraints && !*p2pFlag && !*execFlag && !*ctFlag && !*walFlag {
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("environment: %s\n", bench.Environment())

	var sys *core.System
	system := func() *core.System {
		if sys == nil {
			fmt.Printf("(building a %s-scale proving system — one-time setup)\n", *scaleFlag)
			var err error
			sys, err = bench.NewSystem(cfg.sysSize)
			if err != nil {
				log.Fatalf("system setup: %v", err)
			}
		}
		return sys
	}

	if *allFlag || *figFlag == 5 {
		runFig5(cfg)
	}
	if *allFlag || *figFlag == 6 {
		runFig6(system(), cfg)
	}
	if *allFlag || *figFlag == 7 {
		runFig7(system(), cfg)
	}
	if *allFlag || *tableFlag == 1 {
		runTable1(system(), cfg)
	}
	if *allFlag || *tableFlag == 2 {
		runTable2(system())
	}
	if *allFlag || *proofSize {
		runProofSize(system())
	}
	if *allFlag || *constraints {
		runConstraints(system())
	}
	if *allFlag || *ablationFlag == "cipher" {
		runAblationCipher()
	}
	if *allFlag || *ablationFlag == "commitment" {
		runAblationCommitment()
	}
	if *allFlag || *ablationFlag == "decouple" {
		runAblationDecouple(system())
	}
	if *allFlag || *p2pFlag {
		runP2P()
	}
	if *allFlag || *execFlag {
		runExec()
	}
	if *allFlag || *ctFlag {
		runCT(system())
	}
	if *allFlag || *walFlag {
		runWAL()
	}
}

func header(title string) {
	fmt.Printf("\n══ %s ══\n", title)
}

func runFig5(cfg scaleConfig) {
	header("Figure 5 — time consumed for circuit setup")
	fmt.Println("paper shape: setup grows ~linearly with constraints; <2 min at 2^20 constraints")
	rows, err := bench.Fig5Setup(cfg.fig5Sizes)
	if err != nil {
		log.Fatalf("fig5: %v", err)
	}
	fmt.Printf("%-14s %-12s %-12s %s\n", "constraints", "SRS", "preprocess", "total")
	for _, r := range rows {
		fmt.Printf("%-14d %-12s %-12s %s\n", r.Constraints,
			bench.FormatSeconds(r.SRSSeconds),
			bench.FormatSeconds(r.PreprocessSeconds),
			bench.FormatSeconds(r.TotalSeconds))
	}
}

func runFig6(sys *core.System, cfg scaleConfig) {
	header("Figure 6 — time consumed for proof generation")
	fmt.Println("paper shape: π_e/π_p linear in data size; π_t ~linear (comparisons); π_k constant ~120ms")
	rows, err := bench.Fig6ProofGen(sys, cfg.fig6Sizes)
	if err != nil {
		log.Fatalf("fig6: %v", err)
	}
	fmt.Printf("%-10s %-10s %-12s %-12s %s\n", "entries", "size", "π_e", "π_t(dup)", "π_k")
	for _, r := range rows {
		fmt.Printf("%-10d %-10s %-12s %-12s %s\n", r.Entries,
			fmt.Sprintf("%.2fKB", r.DataKB),
			bench.FormatSeconds(r.PiESeconds),
			bench.FormatSeconds(r.PiTSeconds),
			bench.FormatSeconds(r.PiKSeconds))
	}
}

func runFig7(sys *core.System, cfg scaleConfig) {
	header("Figure 7 — running time of ZKDET and ZKCP (verification)")
	fmt.Println("paper shape: ZKDET flat (<0.1s, 2 pairings + 18 exps); ZKCP grows with ℓ (3 pairings + ℓ exps)")
	rows, err := bench.Fig7Verify(sys, cfg.fig7Sizes)
	if err != nil {
		log.Fatalf("fig7: %v", err)
	}
	fmt.Printf("%-10s %-14s %s\n", "inputs", "ZKDET verify", "ZKCP verify")
	for _, r := range rows {
		fmt.Printf("%-10d %-14s %s\n", r.Inputs,
			bench.FormatSeconds(r.ZKDETSeconds),
			bench.FormatSeconds(r.ZKCPSeconds))
	}
	// The ZKCP verifier needs no SRS, so its ℓ-linear growth can be shown
	// well past the sizes the π_e circuits above cover.
	fmt.Println("ZKCP verifier extrapolation (3 pairings + ℓ G1 exponentiations):")
	fmt.Printf("%-10s %s\n", "ℓ", "ZKCP verify")
	for _, n := range []int{64, 256, 1024, 4096} {
		start := time.Now()
		core.ZKCPVerifierCost(n)
		fmt.Printf("%-10d %s\n", n, bench.FormatSeconds(time.Since(start).Seconds()))
	}
}

func runTable1(sys *core.System, cfg scaleConfig) {
	header("Table I — proof of transformation for data processing")
	fmt.Println("paper: LR 495→3.11s, 1963→21.73s, 10210→131.44s; Transformer 201k→1m29s, 1M→8m12s; ~2.4KB proofs")
	lr, err := bench.Table1LogReg(sys, cfg.logregSizes)
	if err != nil {
		log.Fatalf("table1 logreg: %v", err)
	}
	tf, err := bench.Table1Transformer(sys, cfg.transformers)
	if err != nil {
		log.Fatalf("table1 transformer: %v", err)
	}
	fmt.Printf("%-22s %-14s %-14s %s\n", "task", "entries/params", "prove", "proof size")
	for _, r := range append(lr, tf...) {
		fmt.Printf("%-22s %-14d %-14s %dB\n", r.Task, r.Size,
			bench.FormatSeconds(r.ProveSeconds), r.ProofBytes)
	}
}

func runTable2(sys *core.System) {
	header("Table II — gas consumption of smart contracts")
	rows, err := bench.Table2Gas(sys)
	if err != nil {
		log.Fatalf("table2: %v", err)
	}
	fmt.Printf("%-34s %-12s %-12s %s\n", "operation", "paper", "measured", "ratio")
	for _, r := range rows {
		fmt.Printf("%-34s %-12d %-12d %.2fx\n", r.Operation, r.PaperGas, r.Gas,
			float64(r.Gas)/float64(r.PaperGas))
	}
}

func runProofSize(sys *core.System) {
	header("§VI-B3 — proof length is constant")
	rows, err := bench.ProofSizeConstant(sys, []int{2, 8, 16})
	if err != nil {
		log.Fatalf("proofsize: %v", err)
	}
	fmt.Printf("%-36s %-10s %s\n", "task (6B header + fields)", "entries", "proof bytes")
	for _, r := range rows {
		fmt.Printf("%-36s %-10d %d\n", r.Task, r.Size, r.ProofBytes)
	}
}

func runConstraints(sys *core.System) {
	header("Constraint report — classic vs lookup/custom-gate lowering (DESIGN.md §15)")
	fmt.Println("lookup lowering: 12-bit range table, one lookup row per limb; hash rounds as custom gates")
	fmt.Printf("%-28s %-10s %-10s %-8s %s\n", "gadget", "classic", "lookup", "ratio", "what changes")
	for _, r := range bench.ConstraintReport() {
		fmt.Printf("%-28s %-10d %-10d %-8s %s\n", r.Gadget, r.Classic, r.Lookup,
			fmt.Sprintf("%.1fx", r.Ratio()), r.Note)
	}

	fmt.Println("\nprove wall time — same logreg π_t statement, classic vs lookup lowering:")
	rows, err := bench.LookupProveCompare(sys, 8)
	if err != nil {
		log.Fatalf("lookup prove compare: %v", err)
	}
	fmt.Printf("%-28s %-10s %-12s %s\n", "task", "variant", "constraints", "prove")
	for _, r := range rows {
		fmt.Printf("%-28s %-10s %-12d %.2fs\n", r.Task, r.Variant, r.Constraints, r.ProveSeconds)
	}
}

func runAblationCipher() {
	header("Ablation — cipher choice in-circuit (§IV-C1)")
	for _, r := range bench.AblationCipher() {
		fmt.Printf("%-42s %8d constraints   %s\n", r.Scheme, r.Constraints, r.Note)
	}
}

func runAblationCommitment() {
	header("Ablation — commitment choice in-circuit (§IV-C2)")
	for _, r := range bench.AblationCommitment() {
		fmt.Printf("%-42s %8d constraints   %s\n", r.Scheme, r.Constraints, r.Note)
	}
}

func runAblationDecouple(sys *core.System) {
	header("Ablation — decoupled π_e/π_t vs monolithic π_f (§IV-B)")
	rows, err := bench.AblationDecouple(sys, 8)
	if err != nil {
		log.Fatalf("decouple: %v", err)
	}
	for _, r := range rows {
		fmt.Printf("%-38s %d proofs   %s total\n", r.Strategy, r.Proofs,
			bench.FormatSeconds(r.TotalSeconds))
	}
	fmt.Println("(structurally, the monolithic strategy re-proves the shared ciphertext's encryption on")
	fmt.Println(" every transformation — 2L encryption sub-proofs for an L-step chain vs the decoupled")
	fmt.Println(" strategy's L+1, each reusable. Wall-clock, our π_t re-hashes commitments in-circuit,")
	fmt.Println(" so it costs ~π_e; the paper's CP-NIZK links commitments natively and its π_t is ~18x")
	fmt.Println(" cheaper than π_e, which is where the paper's halving comes from. See EXPERIMENTS.md.)")
}

func runP2P() {
	header("Network layer — gossip propagation latency vs fanout (7 nodes, SimNet)")
	grows, err := bench.GossipPropagation(7, []int{1, 2, 3, 6}, 10)
	if err != nil {
		log.Fatalf("p2p gossip: %v", err)
	}
	fmt.Printf("%-10s %-10s %-16s %s\n", "fanout", "nodes", "propagation", "msgs/tx")
	for _, r := range grows {
		fmt.Printf("%-10d %-10d %-16s %.1f\n", r.Fanout, r.Nodes, r.Propagation.Round(10*time.Microsecond), r.Messages)
	}
	fmt.Println("(low fanout leans on the periodic pooled-tx rebroadcast to finish coverage;")
	fmt.Println(" full fanout floods in one hop and pays for it in messages)")

	header("Network layer — headers-first sync time vs chain length (fresh node, SimNet)")
	srows, err := bench.ChainSync([]int{8, 32, 128}, 4)
	if err != nil {
		log.Fatalf("p2p sync: %v", err)
	}
	fmt.Printf("%-10s %-14s %-16s %s\n", "blocks", "txs/block", "sync time", "blocks/s")
	for _, r := range srows {
		fmt.Printf("%-10d %-14d %-16s %.1f\n", r.Blocks, r.TxsPerBlock, r.SyncTime.Round(100*time.Microsecond), r.BlocksPerS)
	}
	fmt.Println("(throughput rises with length as the per-cluster start-up cost and the first")
	fmt.Println(" status round-trip amortize across more 64-header batches)")
}

func runExec() {
	header("Execution layer — sealed tx/s of the journaled executor")
	fmt.Println("workload: DataNFT transfers between disjoint client pairs, one produced")
	fmt.Println("block per round")
	rows, err := bench.ExecSweep([]int{100, 1000, 10000})
	if err != nil {
		log.Fatalf("exec: %v", err)
	}
	fmt.Printf("%-10s %-8s %s\n", "clients", "txs", "tx/s")
	for _, r := range rows {
		fmt.Printf("%-10d %-8d %.0f\n", r.Clients, r.Txs, r.TxPerSec)
	}
}

func runCT(sys *core.System) {
	header("Confidential exchange — prove/verify/batch-verify per transfer shape")
	fmt.Println("shapes are (spent notes → created notes); mint is (0 → n); sigma is the")
	fmt.Println("pairing-free gossip pre-screen; one π_ct range proof covers up to 4 created")
	fmt.Println("notes, so prove steps with ⌈n/4⌉; batch folds 16 range proofs into one")
	fmt.Println("pairing check, the seal-time path (ns/proof flattens as folds amortize)")
	rows, err := bench.CTSweep(sys, [][2]int{{0, 1}, {1, 1}, {1, 2}, {2, 2}, {2, 4}, {2, 5}, {1, 16}}, 16)
	if err != nil {
		log.Fatalf("ct: %v", err)
	}
	fmt.Printf("%-10s %-12s %-12s %-12s %-16s %-12s %s\n",
		"shape", "prove", "verify", "sigma", "batch(16)/π_ct", "proof size", "sigma gas")
	for _, r := range rows {
		fmt.Printf("%d→%-8d %-12s %-12s %-12s %-16s %-12s %d\n",
			r.Inputs, r.Outputs,
			bench.FormatSeconds(r.ProveSeconds),
			bench.FormatSeconds(r.VerifySeconds),
			bench.FormatSeconds(r.SigmaSeconds),
			fmt.Sprintf("%.2fms", r.BatchPerProofSecs*1000),
			fmt.Sprintf("%dB", r.ProofBytes),
			r.SigmaGas)
	}
	fmt.Println("(the public token path carries no proof at all — confidentiality costs one")
	fmt.Println(" π_ct per four created notes plus the sigma relations; amounts never appear on-chain)")
}

func runWAL() {
	dirFor := func() string {
		d, err := os.MkdirTemp("", "zkdet-bench-wal-")
		if err != nil {
			log.Fatalf("wal: %v", err)
		}
		return d
	}
	var dirs []string
	track := func() string { d := dirFor(); dirs = append(dirs, d); return d }
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()

	header("Durability layer — WAL append throughput by sync policy (4 KiB records)")
	fmt.Println("group commit's point: concurrent AppendSync callers share one fsync, so")
	fmt.Println("fsyncs << records while every acknowledged record is still durable")
	arows, err := bench.WALAppendSweep(track, []string{"sync-each", "group-commit", "nosync"}, []int{1, 4, 16}, 2048, 4096)
	if err != nil {
		log.Fatalf("wal append: %v", err)
	}
	fmt.Printf("%-14s %-9s %-10s %-12s %-10s %s\n", "mode", "writers", "records", "rec/s", "MB/s", "fsyncs")
	for _, r := range arows {
		fmt.Printf("%-14s %-9d %-10d %-12.0f %-10.1f %d\n",
			r.Mode, r.Writers, r.Records, r.RecPerSec, r.MBPerSec, r.Syncs)
	}

	header("Durability layer — durable vs in-memory sealed tx/s (acceptance: ≤2x at default group commit)")
	fmt.Printf("%-16s %-10s %-8s %-12s %-12s %-9s %s\n", "mode", "clients", "txs", "tx/s", "slowdown", "fsyncs", "checkpoints")
	for _, clients := range []int{100, 1000} {
		rounds := 4096 / clients
		drows, err := bench.DurableExecCompare(track, clients, rounds)
		if err != nil {
			log.Fatalf("wal durable: %v", err)
		}
		for _, r := range drows {
			fmt.Printf("%-16s %-10d %-8d %-12.0f %-12s %-9d %d\n",
				r.Mode, r.Clients, r.Txs, r.TxPerSec,
				fmt.Sprintf("%.2fx", r.Slowdown), r.Syncs, r.Checkpoints)
		}
	}

	header("Durability layer — crash-recovery time vs chain length (100 clients, 50 tx/block)")
	fmt.Println("WAL-only replays every block through chain.ImportBlock; a checkpoint")
	fmt.Println("shifts the prefix into a state-root-verified snapshot restore")
	rrows, err := bench.RecoverySweep(track, []int{16, 64, 256}, 100)
	if err != nil {
		log.Fatalf("wal recovery: %v", err)
	}
	fmt.Printf("%-10s %-12s %-16s %-12s %-14s %s\n", "blocks", "txs/block", "snapshot-height", "wal-blocks", "recovery", "blocks/s replay")
	for _, r := range rrows {
		fmt.Printf("%-10d %-12d %-16d %-12d %-14s %.0f\n",
			r.Blocks, r.TxsPerBlock, r.SnapshotHeight, r.WALBlocks,
			bench.FormatSeconds(r.Seconds), r.BlocksPerSec)
	}
}

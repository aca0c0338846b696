package main

// decl declares one metric: the name the benchmark prints, its unit, and
// which direction is better. BENCHMARK.json carries the same list; a test
// keeps the two in step.
type decl struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// workloadNames are the four workloads, in the order BENCHMARK.json lists
// them.
var workloadNames = []string{"exchange-public", "exchange-confidential", "node-settle", "node-mixed"}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all six on an untraced run. Timings are host-calibrated.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"gas_per_op", "gas", "lower", 0.002},
	{"alloc_mb_per_op", "MB", "lower", 0.03},
}

// rawTwins are per-layer metrics an untraced run also prints (as text, not
// in its JSON line), so that -selfcheck can show what calibration removed.
var rawTwins = []decl{
	{"raw.setup_s", "s", "lower", 0},
	{"raw.op_p50_ms", "ms", "lower", 0},
	{"raw.ops_per_s", "1/s", "higher", 0},
	{"raw.read_p50_ms", "ms", "lower", 0},
	{"host.calib_serial_ms", "ms", "lower", 0},
	{"host.calib_ms", "ms", "lower", 0},
}

// perLayer are the single-layer metrics of a traced run, module name first.
// A metric a workload does not exercise reads 0 there.
var perLayer = []decl{
	// Span metrics: the exchange workloads' waterfall, per op.
	{"core.mint_ms", "ms", "lower", 0},
	{"core.duplicate_ms", "ms", "lower", 0},
	{"core.sell_ms", "ms", "lower", 0},
	{"core.audit_ms", "ms", "lower", 0},
	{"ct.transfer_ms", "ms", "lower", 0},
	{"core.prove_self_ms", "ms", "lower", 0},
	{"node.commit_ms", "ms", "lower", 0},
	{"node.commits_per_op", "count", "lower", 0},
	{"storage.put_ms", "ms", "lower", 0},
	{"storage.get_ms", "ms", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.spans_per_op", "count", "lower", 0},

	// Kernel probes.
	{"fr.mul_ns", "ns", "lower", 0},
	{"fr.batch_inv_ns", "ns", "lower", 0},
	{"poly.fft_ms", "ms", "lower", 0},
	{"poly.fft_coset_ms", "ms", "lower", 0},
	{"bn254.msm_ms", "ms", "lower", 0},
	{"bn254.pairing_check2_ms", "ms", "lower", 0},
	{"kzg.commit_ms", "ms", "lower", 0},
	{"kzg.open_ms", "ms", "lower", 0},
	{"plonk.setup_ms", "ms", "lower", 0},
	{"plonk.prove_classic_ms", "ms", "lower", 0},
	{"plonk.prove_lookup_ms", "ms", "lower", 0},
	{"plonk.verify_ms", "ms", "lower", 0},
	{"plonk.batch_verify_ms_per_proof", "ms", "lower", 0},
	{"plonk.proof_bytes", "B", "lower", 0},
	{"core.prove_pi_e_ms", "ms", "lower", 0},
	{"core.verify_pi_e_ms", "ms", "lower", 0},
	{"core.prove_pi_p_ms", "ms", "lower", 0},
	{"core.verify_pi_p_ms", "ms", "lower", 0},
	{"core.prove_pi_k_ms", "ms", "lower", 0},
	{"core.prove_pi_t_ms", "ms", "lower", 0},
	{"core.verify_pi_t_ms", "ms", "lower", 0},
	{"ct.prove_ms_per_output", "ms", "lower", 0},
	{"ct.sigma_verify_ms", "ms", "lower", 0},
	{"ct.audit_open_ms", "ms", "lower", 0},
	{"circuit.pi_e_gates", "count", "lower", 0},
	{"circuit.pi_p_gates", "count", "lower", 0},
	{"circuit.pi_k_gates", "count", "lower", 0},
	{"circuit.pi_t_gates", "count", "lower", 0},
	{"circuit.pi_ct_gates", "count", "lower", 0},
	{"contracts.gossip_check_ms_per_tx", "ms", "lower", 0},
	{"contracts.mint_gas", "gas", "lower", 0},
	{"contracts.duplicate_gas", "gas", "lower", 0},
	{"contracts.open_gas", "gas", "lower", 0},
	{"contracts.settle_gas", "gas", "lower", 0},
	{"contracts.transfer_gas", "gas", "lower", 0},
	{"contracts.ct_transfer_gas", "gas", "lower", 0},
	{"contracts.ct_settle_gas", "gas", "lower", 0},
	{"chain.submit_batch_tx_per_s_w1", "1/s", "higher", 0},
	{"chain.submit_batch_tx_per_s_w2", "1/s", "higher", 0},
	{"wal.append_sync_ms", "ms", "lower", 0},

	// Counters: Stats() deltas over the measured window.
	{"node.commit_p50_ms", "ms", "lower", 0},
	{"node.commit_p99_ms", "ms", "lower", 0},
	{"node.txs_per_block", "count", "higher", 0},
	{"node.blocks_sealed", "count", "lower", 0},
	{"node.rejected", "count", "lower", 0},
	{"node.evicted", "count", "lower", 0},
	{"node.proofs_preverified", "count", "higher", 0},
	{"node.proofs_evicted", "count", "lower", 0},
	{"chain.exec_speculated", "count", "lower", 0},
	{"chain.exec_committed", "count", "higher", 0},
	{"chain.exec_conflicts", "count", "lower", 0},
	{"chain.exec_serial", "count", "lower", 0},
	{"chain.exec_commit_ratio", "ratio", "higher", 0},
	{"wal.appends_per_op", "count", "lower", 0},
	{"wal.fsyncs_per_op", "count", "lower", 0},
	{"wal.bytes_per_op", "B", "lower", 0},
	{"snapshot.checkpoints", "count", "lower", 0},
	{"snapshot.checkpoint_skips", "count", "lower", 0},
	{"snapshot.checkpoint_ms", "ms", "lower", 0},
	{"snapshot.recover_ms", "ms", "lower", 0},
	{"snapshot.disk_mb", "MB", "lower", 0},
	{"indexer.lineage_p50_ms", "ms", "lower", 0},
	{"indexer.query_p50_ms", "ms", "lower", 0},
	{"indexer.events_per_op", "count", "lower", 0},
	{"indexer.bloom_skipped", "count", "higher", 0},

	// Tails and sample counts of the end-to-end timings.
	{"op.samples", "count", "higher", 0},
	{"op.tail_percentile", "%", "higher", 0},
	{"op.tail_ms", "ms", "lower", 0},
	{"read.samples", "count", "higher", 0},
	{"read.tail_ms", "ms", "lower", 0},

	// Process, host, and the uncalibrated twins of the end-to-end timings.
	{"process.peak_rss_mb", "MB", "lower", 0},
	{"process.cpu_s_per_op", "s", "lower", 0},
	{"process.mallocs_per_op", "count", "lower", 0},
	{"process.gc_cycles", "count", "lower", 0},
	{"process.goroutines_end", "count", "lower", 0},
	{"host.calib_serial_ms", "ms", "lower", 0},
	{"host.calib_ms", "ms", "lower", 0},
	{"host.calib_cv", "ratio", "lower", 0},
	{"host.calib_samples", "count", "higher", 0},
	{"host.gomaxprocs", "count", "higher", 0},
	{"raw.setup_s", "s", "lower", 0},
	{"raw.op_p50_ms", "ms", "lower", 0},
	{"raw.ops_per_s", "1/s", "higher", 0},
	{"raw.read_p50_ms", "ms", "lower", 0},
}

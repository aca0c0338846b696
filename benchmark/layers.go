package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/zkdet/zkdet/internal/contracts"
	"github.com/zkdet/zkdet/internal/indexer"
	"github.com/zkdet/zkdet/internal/node"
	"github.com/zkdet/zkdet/internal/snapshot"
)

// counters is a point-in-time reading of every cumulative count the
// per-layer metrics are deltas of.
type counters struct {
	gas        uint64
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	cpu        time.Duration

	node                                     node.Stats
	speculated, committed, conflicts, serial uint64
	durable                                  snapshot.Stats
	index                                    indexer.Stats
	walBytes                                 int64
}

func takeCounters(e *env) counters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c := counters{
		gas:        e.gas,
		allocBytes: m.TotalAlloc, mallocs: m.Mallocs, gcCycles: m.NumGC, cpu: cpuTime(),
		node: e.node.Stats(), durable: e.durable.Stats(), index: e.ix.Stats(),
	}
	c.speculated, c.committed, c.conflicts, c.serial = e.mkt.Chain.ExecStats()
	// Bytes the log holds, plus what pruning already deleted (whole
	// segments of about walSegmentBytes each).
	c.walBytes, _ = dirSize(filepath.Join(e.dir, "wal"))
	c.walBytes += int64(c.durable.WAL.PrunedSegments) * walSegmentBytes
	return c
}

// walSegmentBytes is the WAL's default rotation threshold.
const walSegmentBytes = 4 << 20

func (c counters) sub(b counters) counters {
	d := c
	d.gas -= b.gas
	d.allocBytes -= b.allocBytes
	d.mallocs -= b.mallocs
	d.gcCycles -= b.gcCycles
	d.cpu -= b.cpu
	d.node.Rejected -= b.node.Rejected
	d.node.Evicted -= b.node.Evicted
	d.node.BlocksSealed -= b.node.BlocksSealed
	d.node.TxsIncluded -= b.node.TxsIncluded
	d.node.ProofsPreverified -= b.node.ProofsPreverified
	d.node.ProofsEvicted -= b.node.ProofsEvicted
	d.speculated -= b.speculated
	d.committed -= b.committed
	d.conflicts -= b.conflicts
	d.serial -= b.serial
	d.durable.Checkpoints -= b.durable.Checkpoints
	d.durable.CheckpointSkip -= b.durable.CheckpointSkip
	d.durable.WAL.Appends -= b.durable.WAL.Appends
	d.durable.WAL.Syncs -= b.durable.WAL.Syncs
	d.index.Events -= b.index.Events
	d.index.Skipped -= b.index.Skipped
	d.walBytes -= b.walBytes
	return d
}

// checkpointCrashRecover is the durability check every run ends with: the
// engine is killed as SIGKILL would kill it and a fresh process's worth of
// state must reproduce head hash and state root with every acknowledged
// transaction present. It returns the recovery time, and the time of one
// synchronous checkpoint of the recovered state.
//
// Workloads whose blocks carry seal-time-verified proofs force a
// checkpoint first, as a clean shutdown does. Without it recovery would
// replay those blocks from the WAL, and replay fails today: the sealer
// charges a settlement the amortised BatchVerifiedGas(n) of its block's
// fold, a replay re-verifies it alone and charges VerificationGas, and the
// engine's receipt cross-check reports ErrReplayDrift. That is a defect of
// the system (durable node + SealVerifier), recorded in README.md; the
// benchmark does not get to fix it, and node-mixed, whose blocks carry no
// proofs, exercises the WAL-tail replay path for real.
func (e *env) checkpointCrashRecover(r *runner) (recoverIv, checkpointIv interval, err error) {
	if r.cfg.workload != "node-mixed" {
		if err := e.durable.Checkpoint(); err != nil {
			return recoverIv, checkpointIv, checkf("pre-crash checkpoint: %v", err)
		}
	}
	d, rec, err := e.crashAndRecover(r)
	if err != nil {
		return recoverIv, checkpointIv, err
	}
	defer d.Crash()
	r.boundary()
	iv := r.begin(shareSerial)
	if err := d.Checkpoint(); err != nil {
		return recoverIv, checkpointIv, checkf("checkpoint of the recovered state: %v", err)
	}
	return rec, r.since(iv), nil
}

// perLayer assembles the per-layer metrics of a traced run, running the
// kernel probes and the recovery check on the way.
func (r *runner) perLayer(e *env, delta counters, okOps int) (map[string]metric, error) {
	out := make(map[string]metric, len(perLayer))
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	ops := float64(okOps)
	// The run-wide host factor scales readings that have no interval of
	// their own (counter-derived latencies, CPU seconds).
	var first, last time.Duration
	if len(r.windows) > 0 {
		first, last = r.windows[0].start, r.windows[len(r.windows)-1].end
	}
	hRun := hostFactor(r.calibs, interval{start: first, end: last, share: r.plan.opShare})

	r.spanMetrics(set)
	// Node transactions are single spans; only an exchange has a waterfall
	// that must sum to the clock.
	if cov := out["trace.coverage"].Value; strings.HasPrefix(r.cfg.workload, "exchange-") && cov < 0.95 {
		return nil, fmt.Errorf("%w: the waterfall accounts for %.3f of the operation's wall time", errCoverage, cov)
	}

	// Index read probes, on the index the workload built.
	lineage, query, err := e.indexProbes(r)
	if err != nil {
		return nil, err
	}
	set("indexer.lineage_p50_ms", lineage, "ms")
	set("indexer.query_p50_ms", query, "ms")

	disk, err := dirSize(e.dir)
	if err != nil {
		return nil, err
	}
	rec, ckpt, err := e.checkpointCrashRecover(r)
	if err != nil {
		return nil, err
	}
	set("snapshot.recover_ms", r.calibratedMS(rec), "ms")
	set("snapshot.checkpoint_ms", r.calibratedMS(ckpt), "ms")
	set("snapshot.disk_mb", float64(disk)/1e6, "MB")
	set("snapshot.checkpoints", float64(delta.durable.Checkpoints), "count")
	set("snapshot.checkpoint_skips", float64(delta.durable.CheckpointSkip), "count")

	probes, err := runProbes(r, e.sys)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		out[k] = v
	}

	set("node.commit_p50_ms", ms(delta.node.LatencyP50)/hRun, "ms")
	set("node.commit_p99_ms", ms(delta.node.LatencyP99)/hRun, "ms")
	set("node.txs_per_block", ratio(float64(delta.node.TxsIncluded), float64(delta.node.BlocksSealed)), "count")
	set("node.blocks_sealed", float64(delta.node.BlocksSealed), "count")
	set("node.rejected", float64(delta.node.Rejected), "count")
	set("node.evicted", float64(delta.node.Evicted), "count")
	set("node.proofs_preverified", float64(delta.node.ProofsPreverified), "count")
	set("node.proofs_evicted", float64(delta.node.ProofsEvicted), "count")
	set("chain.exec_speculated", float64(delta.speculated), "count")
	set("chain.exec_committed", float64(delta.committed), "count")
	set("chain.exec_conflicts", float64(delta.conflicts), "count")
	set("chain.exec_serial", float64(delta.serial), "count")
	set("chain.exec_commit_ratio", ratio(float64(delta.committed), float64(delta.speculated)), "ratio")
	set("wal.appends_per_op", float64(delta.durable.WAL.Appends)/ops, "count")
	set("wal.fsyncs_per_op", float64(delta.durable.WAL.Syncs)/ops, "count")
	set("wal.bytes_per_op", float64(delta.walBytes)/ops, "B")
	set("indexer.events_per_op", float64(delta.index.Events)/ops, "count")
	set("indexer.bloom_skipped", float64(delta.index.Skipped), "count")

	opCal, readCal := r.calibratedValues(r.ops), r.calibratedValues(r.reads)
	tail := highestSupportable(len(opCal))
	set("op.samples", float64(len(opCal)), "count")
	set("op.tail_percentile", tail*100, "%")
	set("op.tail_ms", percentile(opCal, tail), "ms")
	set("read.samples", float64(len(readCal)), "count")
	set("read.tail_ms", percentile(readCal, highestSupportable(len(readCal))), "ms")

	set("process.peak_rss_mb", peakRSSMB(), "MB")
	set("process.cpu_s_per_op", delta.cpu.Seconds()/ops/hRun, "s")
	set("process.mallocs_per_op", float64(delta.mallocs)/ops, "count")
	set("process.gc_cycles", float64(delta.gcCycles), "count")
	e.crash() // everything the run started is stopped before goroutines are counted
	set("process.goroutines_end", float64(runtime.NumGoroutine()), "count")

	_, parallel := r.calibMS()
	set("host.calib_cv", coefficientOfVariation(parallel), "ratio")
	set("host.calib_samples", float64(len(parallel)), "count")
	set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	for k, v := range r.rawTwins(okOps) {
		out[k] = v
	}
	return out, nil
}

// calibMS are the kernel's readings, phase by phase.
func (r *runner) calibMS() (serial, parallel []float64) {
	for _, c := range r.calibs {
		serial = append(serial, c.serial)
		parallel = append(parallel, c.parallel)
	}
	return serial, parallel
}

// rawTwins are the uncalibrated readings behind the calibrated end-to-end
// timings, and the host's median calibration times: what the run measured
// before the host was divided out.
func (r *runner) rawTwins(okOps int) map[string]metric {
	serial, parallel := r.calibMS()
	var rawSecs float64
	for _, w := range r.windows {
		rawSecs += w.net().Seconds()
	}
	return map[string]metric{
		"raw.setup_s":          {r.setup.net().Seconds(), "s"},
		"raw.op_p50_ms":        {median(rawValues(r.ops)), "ms"},
		"raw.ops_per_s":        {float64(okOps) / rawSecs, "1/s"},
		"raw.read_p50_ms":      {median(rawValues(r.reads)), "ms"},
		"host.calib_serial_ms": {median(serial), "ms"},
		"host.calib_ms":        {median(parallel), "ms"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanMetrics turns the recorded spans into the waterfall metrics: for each
// layer span, the calibrated median over operations of the time one
// operation spent in it.
func (r *runner) spanMetrics(set func(string, float64, string)) {
	spans := r.tr.spans
	self, net := selfTimes(spans), netTimes(spans)
	type opAcc struct {
		root      int
		net, self map[string]time.Duration
		commits   int
		spans     int
	}
	byTrace := make(map[int]*opAcc)
	for i, s := range spans {
		if s.trace == 0 || inPause(spans, i) {
			continue
		}
		acc := byTrace[s.trace]
		if acc == nil {
			acc = &opAcc{root: -1, net: make(map[string]time.Duration), self: make(map[string]time.Duration)}
			byTrace[s.trace] = acc
		}
		if s.parent == -1 {
			// An operation's root; the reads that follow it in the same
			// trace are parentless too and belong to no waterfall.
			if s.name == spanOp || s.name == spanTx {
				acc.root = i
				acc.spans++
			}
			continue
		}
		if rootOf(spans, i) != acc.root {
			continue
		}
		acc.spans++
		acc.net[s.name] += net[i]
		acc.self[s.name] += self[i]
		if s.name == spanCommit {
			acc.commits++
		}
	}
	// Only exchange operations have a waterfall: node transactions are
	// single spans, counted but not broken down.
	perOp := make(map[string][]float64)
	var commits, spanCounts, coverages []float64
	for _, acc := range byTrace {
		if acc.root < 0 || spans[acc.root].name != spanOp {
			spanCounts = append(spanCounts, float64(acc.spans))
			continue
		}
		root := spans[acc.root]
		h := hostFactor(r.calibs, interval{start: root.start, end: root.end, share: r.plan.opShare})
		var proveSelf time.Duration
		for name, d := range acc.self {
			if layerOf(name) == "core" || layerOf(name) == "ct" {
				proveSelf += d
			}
		}
		for _, name := range opSpanNames {
			perOp[name] = append(perOp[name], ms(acc.net[name])/h)
		}
		perOp["core.prove_self"] = append(perOp["core.prove_self"], ms(proveSelf)/h)
		commits = append(commits, float64(acc.commits))
		spanCounts = append(spanCounts, float64(acc.spans))
		coverages = append(coverages, 1-float64(self[acc.root])/float64(net[acc.root]))
	}
	med := func(vs []float64) float64 {
		if len(vs) == 0 {
			return 0
		}
		return median(vs)
	}
	for _, name := range opSpanNames {
		set(name+"_ms", med(perOp[name]), "ms")
	}
	set("core.prove_self_ms", med(perOp["core.prove_self"]), "ms")
	set("node.commits_per_op", med(commits), "count")
	set("trace.coverage", med(coverages), "ratio")
	set("trace.spans_per_op", med(spanCounts), "count")
	// Tracing's cost is what its spans cost: spans per op times the price
	// of one begin/end pair, over the op's untraced time. Comparing traced
	// and untraced op medians directly would need the timings to be a
	// hundred times steadier than this host lets them be.
	opRaw := median(rawValues(r.ops))
	set("trace.overhead_ratio", 1+med(spanCounts)*spanPairCostMS()/opRaw, "ratio")
}

// rootOf walks a span's parent links to its root.
func rootOf(spans []span, i int) int {
	for spans[i].parent >= 0 {
		i = spans[i].parent
	}
	return i
}

// opSpanNames are the layer spans of one exchange operation.
var opSpanNames = []string{"core.mint", "core.duplicate", "core.sell", "core.audit", "ct.transfer", spanCommit, "storage.put", "storage.get"}

const (
	spanOp        = "op"
	spanTx        = "node.tx"
	spanCommit    = "node.commit"
	spanIndexRead = "indexer.read"
)

// spanPairCostMS measures what recording one span costs.
func spanPairCostMS() float64 {
	const pairs = 200_000
	t := newTracer(time.Now())
	t.spans = make([]span, 0, pairs)
	start := time.Now()
	for i := 0; i < pairs; i++ {
		t.end(t.begin(spanOp))
	}
	return ms(time.Since(start)) / pairs
}

// indexProbes times the two index queries the gateway serves, on the index
// the workload built: a lineage walk and a paginated event range.
func (e *env) indexProbes(r *runner) (lineageMS, queryMS float64, err error) {
	tokens := e.ix.Stats().Tokens
	if tokens == 0 {
		return 0, 0, fmt.Errorf("index holds no tokens after the workload")
	}
	const lookups = 512
	p := &probeSet{r: r}
	lineageMS, err = p.timed(probeFastReps, shareSerial, func() error {
		for i := 0; i < lookups; i++ {
			if _, err := e.ix.Lineage(1 + uint64(r.readRng.IntN(tokens))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	head := e.ix.Head()
	queryMS, err = p.timed(probeFastReps, shareSerial, func() error {
		for i := 0; i < lookups; i++ {
			from := r.readRng.Uint64N(head + 1)
			if _, _, err := e.ix.Query(indexer.Filter{Contract: contracts.DataNFTName, Name: "Transfer",
				FromBlock: from, ToBlock: from + 16, Limit: 50}); err != nil {
				return err
			}
		}
		return nil
	})
	return lineageMS / lookups, queryMS / lookups, err
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

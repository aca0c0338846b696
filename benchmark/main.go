// Command benchmark is the repository's benchmark: four workloads over the
// real system (two full-exchange workloads through a durable node, two raw
// node-traffic workloads), six host-calibrated end-to-end metrics each, a
// per-layer waterfall and kernel probes on traced runs, and correctness
// checks on every run. See README.md.
//
//	go run . -workload exchange-public -seed 1 -seconds 10 -trace 0
//
// (from this directory; benchmark/run.sh builds and runs it from the
// repository root). The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// processStart is when the process began: set-up time counts from here.
var processStart = time.Now()

func main() { os.Exit(realMain()) }

func realMain() int {
	// Pinned so that a bigger host does not silently change what the
	// parallel loops of the prover and the executor measure.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	cfg := config{scratch: ".bench_build"}
	var trace, selfcheck int
	var neighbour bool
	flag.StringVar(&cfg.workload, "workload", "", "one of "+fmt.Sprint(workloadNames))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seeds every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 16, "measured-window budget in seconds (reference-host time)")
	flag.IntVar(&trace, "trace", 0, "1: record spans, run the kernel probes, print the per-layer metrics")
	flag.BoolVar(&cfg.verbose, "v", false, "log progress to standard error")
	flag.IntVar(&selfcheck, "selfcheck", 0, "run two interleaved sets of N full runs per workload and compare their medians")
	flag.BoolVar(&neighbour, "selfcheck-neighbour", false, "with -selfcheck: keep one core busy during set B")
	flag.Parse()
	cfg.trace = trace != 0

	if selfcheck > 0 {
		return runSelfcheck(cfg, selfcheck, neighbour)
	}
	if !validWorkload(cfg.workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; want one of %v\n", cfg.workload, workloadNames)
		return 2
	}
	res, err := run(cfg, processStart)
	if err != nil {
		reason := "run failed"
		switch {
		case errors.Is(err, errCheck):
			reason = "wrong output"
		case errors.Is(err, errTooSlow), errors.Is(err, errCoverage):
			reason = "measurement refused"
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s: %v\n", cfg.workload, reason, err)
		return 1
	}
	if err := res.print(os.Stdout, cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

func validWorkload(name string) bool { return slices.Contains(workloadNames, name) }

// metric is one named reading with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	attempted int
	failed    int
	e2e       map[string]metric
	raw       map[string]metric // the rawTwins
	layer     map[string]metric // filled on traced runs
}

// print writes every metric by name with its unit, then the one-line JSON
// object the driver reads: end-to-end metrics on an untraced run, per-layer
// metrics on a traced one.
func (res *result) print(w *os.File, traced bool) error {
	metrics, decls := res.e2e, endToEnd
	if traced {
		metrics, decls = res.layer, perLayer
	}
	for _, d := range decls {
		m, ok := metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v: too many operations failed to report it", d.name, m.Value)
		}
		fmt.Fprintf(w, "%-36s %16.6f %s\n", d.name, m.Value, m.Unit)
	}
	if len(metrics) != len(decls) {
		return fmt.Errorf("%d metrics measured, %d declared", len(metrics), len(decls))
	}
	if !traced {
		for _, d := range rawTwins {
			fmt.Fprintf(w, "%-36s %16.6f %s\n", d.name, res.raw[d.name].Value, d.unit)
		}
	}
	fmt.Fprintf(w, "attempted %d failed %d\n", res.attempted, res.failed)
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// workload is what run drives: set-up has already happened when it gets
// one; measure runs one measured window.
type workload interface {
	measure() error
	finalChecks() error
	environment() *env
	close()
}

func newWorkload(r *runner) (workload, error) {
	switch r.cfg.workload {
	case "exchange-public", "exchange-confidential":
		w, err := newExchangeWorkload(r, r.cfg.workload == "exchange-confidential")
		if err != nil {
			return nil, err
		}
		// One warm-up exchange: circuit keys are preprocessed, caches and
		// lazy tables filled, before anything is timed.
		if err := w.measure(); err != nil {
			w.close()
			return nil, err
		}
		if r.failed > 0 {
			w.close()
			return nil, fmt.Errorf("warm-up exchange failed")
		}
		return w, nil
	default:
		w, err := newNodeWorkload(r, r.cfg.workload == "node-settle")
		if err != nil {
			return nil, err
		}
		if err := w.warmup(); err != nil {
			w.close()
			return nil, err
		}
		return w, nil
	}
}

// plan is what is fixed about a workload's run: how much work a second of
// budget buys, and the parallel shares that weight the host factor of its
// set-up and of its operations and windows (calib.go).
type plan struct {
	// windowsPerSecond is how many measured windows fit one second of
	// budget on the reference host, rounded so that the driver's 16 s plan
	// 4 exchanges, 10 node-settle slices and 26 node-mixed slices (see
	// plannedWindows for why those counts and no more).
	windowsPerSecond    float64
	setupShare, opShare float64
}

var plans = map[string]plan{
	"exchange-public":       {0.25, shareProver, shareProver},
	"exchange-confidential": {0.25, shareProver, shareProver},
	// Set-up proves the sixteen fixtures; the window's parallel part is
	// the seal-time fold and the two-wide executor.
	"node-settle": {0.625, shareProver, 0.25},
	// No proofs: one sealer, one generator, a two-wide executor that is
	// seldom the bottleneck.
	"node-mixed": {1.625, 0.35, 0.1},
}

// runDeadline is how long after process start a run may still begin a
// measured window. The driver allows a run 180 s; a host so slow that the
// planned windows do not fit fails the run, it does not shorten it.
const runDeadline = 150 * time.Second

// errTooSlow reports a run that could not reach its planned sample count.
var errTooSlow = errors.New("planned sample count not reached")

// errCoverage reports a traced exchange whose waterfall leaves too much of
// the operation's wall time unattributed.
var errCoverage = errors.New("trace coverage below 0.95")

// plannedWindows turns the --seconds budget into a fixed amount of work.
// The work is fixed, not the duration, because the node's throughput falls
// as its chain grows (a node-mixed slice takes 0.1 s on an empty chain and
// 0.6 s after 50 k transactions): runs cut by the clock would each measure a
// different stretch of that curve, and gas, allocation and checkpoint
// counts per op would differ with it. At the reference host's speed the
// planned windows take about --seconds on the exchange workloads and less on
// the node workloads, whose counts keep the chain clear of a checkpoint
// threshold (every 64 blocks): 10 and 26 slices end near blocks 105 and 235,
// so every run sees one and three background checkpoints, not sometimes one
// more, and alloc_mb_per_op does not jump by 12 % with it.
func plannedWindows(cfg config) int {
	return max(1, int(math.Round(cfg.seconds*plans[cfg.workload].windowsPerSecond)))
}

// removeOnSignal deletes dir and exits when the process is interrupted or
// terminated, so that no exit path the process can see leaves a data
// directory behind. The returned function ends the watch.
func removeOnSignal(dir string) (stop func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			os.RemoveAll(dir)
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(done)
	}
}

// run is one full benchmark run: set-up, the planned measured windows,
// correctness checks, crash recovery, metrics. start is
// when set-up began (process start for the command).
func run(cfg config, start time.Time) (*result, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	// Everything the run writes except the trace lives here and goes with
	// it on every exit path.
	dir, err := os.MkdirTemp(cfg.scratch, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer removeOnSignal(dir)()

	r := newRunner(cfg, start, dir)
	// The process's first kernel run pays for cold caches and a core that
	// was asleep (it reads 1.5 to 3 times the next one): not a sample.
	r.calibrateNow()
	r.calibs = r.calibs[:0]
	r.calibrateNow()
	setup := interval{share: r.plan.setupShare} // from process start; the runner's clock starts there too
	w, err := newWorkload(r)
	if err != nil {
		return nil, err
	}
	defer w.close()
	e := w.environment()
	r.calibrateNow()
	r.setup = r.since(setup)
	r.logf("set-up done: %.2fs raw", r.setup.net().Seconds())

	// Warm-up samples are not measurements.
	r.ops, r.reads, r.windows, r.attempted, r.failed = nil, nil, nil, 0, 0
	base := takeCounters(e)
	planned := plannedWindows(cfg)
	for i := 0; i < planned; i++ {
		if r.now() > runDeadline {
			return nil, fmt.Errorf("%w: host too slow, %d of %d windows measured %.0f s after start",
				errTooSlow, i, planned, r.now().Seconds())
		}
		if err := w.measure(); err != nil {
			return nil, err
		}
	}
	r.calibrateNow()
	delta := takeCounters(e).sub(base)
	r.logf("measured %d ops in %d windows, %.2fs; %d blocks, %d checkpoints (%d skipped), %.1f MB allocated",
		len(r.ops), len(r.windows), r.measuredFor().Seconds(), delta.node.BlocksSealed,
		delta.durable.Checkpoints, delta.durable.CheckpointSkip, float64(delta.allocBytes)/1e6)

	if cfg.verbose {
		if reads := r.calibratedValues(r.reads); len(reads) <= 64 {
			r.logf("reads (calibrated ms): %.2f", reads)
		}
		for i, win := range r.windows {
			h := hostFactor(r.calibs, win)
			r.logf("window %2d: %.3fs raw, h=%.3f, %.3fs calibrated", i, win.net().Seconds(), h, win.net().Seconds()/h)
		}
	}
	if err := w.finalChecks(); err != nil {
		return nil, err
	}
	res := &result{attempted: r.attempted, failed: r.failed}
	okOps := r.attempted - r.failed
	if okOps == 0 {
		return nil, fmt.Errorf("all %d operations failed", r.attempted)
	}
	res.e2e, res.raw = r.endToEnd(delta, okOps), r.rawTwins(okOps)

	if cfg.trace {
		if res.layer, err = r.perLayer(e, delta, okOps); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.scratch, "trace-"+cfg.workload+".json")
		if err := r.tr.writeChrome(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		r.logf("trace written to %s", path)
	} else {
		// Crash-discard recovery runs on every invocation; the traced path
		// does it inside perLayer, where it is also timed.
		if _, _, err := e.checkpointCrashRecover(r); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// endToEnd assembles the six end-to-end metrics.
func (r *runner) endToEnd(delta counters, okOps int) map[string]metric {
	net := make([]float64, len(r.windows))
	h := make([]float64, len(r.windows))
	for i, w := range r.windows {
		net[i] = w.net().Seconds()
		h[i] = hostFactor(r.calibs, w)
	}
	return map[string]metric{
		"setup_s":         {r.calibratedMS(r.setup) / 1000, "s"},
		"op_p50_ms":       {median(r.calibratedValues(r.ops)), "ms"},
		"ops_per_s":       {calibratedThroughput(okOps, net, h), "1/s"},
		"read_p50_ms":     {median(r.calibratedValues(r.reads)), "ms"},
		"gas_per_op":      {float64(delta.gas) / float64(okOps), "gas"},
		"alloc_mb_per_op": {float64(delta.allocBytes) / 1e6 / float64(okOps), "MB"},
	}
}

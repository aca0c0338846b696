package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/big"
	"os"
	"testing"
	"time"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	vs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}} {
		if got := percentile(vs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median(vs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	// A failed op is +Inf: it must push the percentile up, not vanish.
	withFailure := []float64{1, 2, 3, math.Inf(1)}
	if got := percentile(withFailure, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with a failed sample = %v, want +Inf", got)
	}
	if got := percentile(withFailure, 0.5); got != 2 {
		t.Errorf("p50 with one failed sample of four = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("empty input must be NaN, not a number that looks measured")
	}
}

func TestHighestSupportablePercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{2, 0.5}, {9, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.90}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}, {57344, 0.999}} {
		if got := highestSupportable(c.n); got != c.want {
			t.Errorf("highestSupportable(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestCalibratedThroughput(t *testing.T) {
	// 300 ops over three one-second windows on a host that ran at half,
	// full and double the reference speed: the reference host would have
	// needed 2 + 1 + 0.5 seconds.
	got := calibratedThroughput(300, []float64{1, 1, 1}, []float64{0.5, 1, 2})
	if !approx(got, 300/3.5) {
		t.Errorf("throughput = %v, want %v", got, 300/3.5)
	}
	if !math.IsNaN(calibratedThroughput(1, nil, nil)) {
		t.Error("no windows must be NaN")
	}
}

func TestHostFactorAveragesTheWindow(t *testing.T) {
	at := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	// The serial phase reads k times its reference, the parallel phase 2k.
	sample := func(s, k float64) calibSample {
		return calibSample{at: at(s), serial: calibRefSerialMS * k, parallel: calibRefParallelMS * 2 * k}
	}
	calibs := []calibSample{
		sample(0, 4), // far before: outside the window
		sample(7, 1),
		sample(10, 2),
		sample(12, 3),
		sample(15.5, 2), // within calibWindow after the end
		sample(30, 9),   // far after
	}
	// Interval [10s, 12s]: samples from 6s to 16s count, mean(1,2,3,2) = 2.
	// Serial work sees the serial phase, all-cores work the parallel one,
	// anything between a blend by its share.
	for _, c := range []struct{ share, want float64 }{{0, 2}, {1, 4}, {0.25, 2.5}} {
		if got := hostFactor(calibs, interval{start: at(10), end: at(12), share: c.share}); !approx(got, c.want) {
			t.Errorf("hostFactor at share %v = %v, want %v", c.share, got, c.want)
		}
	}
	// No sample in reach: the nearest one stands in.
	if got := hostFactor(calibs, interval{start: at(21), end: at(22)}); !approx(got, 2) {
		t.Errorf("hostFactor far from every sample = %v, want the nearest (2)", got)
	}
	// Calibration time inside an interval is not part of its timing.
	iv := interval{start: at(1), end: at(4), paused: at(0.5)}
	if iv.net() != at(2.5) {
		t.Errorf("net = %v, want 2.5s", iv.net())
	}
}

func TestSpanSelfTimeAndCoverage(t *testing.T) {
	msd := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	// op [0,1000]
	//   core.mint [10,500]      → node.commit [400,480], host.calibrate [300,360]
	//   core.sell [500,990]     → node.commit [600,650], node.commit [640,700] (overlap)
	spans := []span{
		{name: spanOp, trace: 1, parent: -1, start: 0, end: msd(1000)},
		{name: "core.mint", trace: 1, parent: 0, start: msd(10), end: msd(500)},
		{name: spanCommit, trace: 1, parent: 1, start: msd(400), end: msd(480)},
		{name: spanCalibrate, trace: 1, parent: 1, start: msd(300), end: msd(360)},
		{name: "core.sell", trace: 1, parent: 0, start: msd(500), end: msd(990)},
		{name: spanCommit, trace: 1, parent: 4, start: msd(600), end: msd(650)},
		{name: spanCommit, trace: 1, parent: 4, start: msd(640), end: msd(700)},
	}
	self := selfTimes(spans)
	for i, want := range []int{20, 350, 80, 60, 390, 50, 60} {
		if self[i] != msd(want) {
			t.Errorf("self[%d] (%s) = %v, want %dms", i, spans[i].name, self[i], want)
		}
	}
	net := netTimes(spans)
	if net[0] != msd(940) || net[1] != msd(430) || net[4] != msd(490) {
		t.Errorf("net times %v: calibration must be subtracted at every depth", net)
	}
	// The waterfall must sum to the clock: self times of everything but the
	// calibration add up to the root's net time.
	var sum time.Duration
	for i, s := range spans {
		if s.name != spanCalibrate {
			sum += self[i]
		}
	}
	// The overlapping commits double-count their 10 ms overlap in their own
	// self times; the parent's union does not.
	if sum != net[0]+msd(10) {
		t.Errorf("Σ self = %v, root net = %v", sum, net[0])
	}

	r := &runner{tr: &tracer{spans: spans}, calibs: []calibSample{{0, calibRefSerialMS, calibRefParallelMS}}}
	r.ops = []sample{{iv: interval{start: 0, end: msd(1000)}, ok: true}}
	got := map[string]float64{}
	r.spanMetrics(func(name string, v float64, _ string) { got[name] = v })
	want := map[string]float64{
		"core.mint_ms": 430, "core.sell_ms": 490, "node.commit_ms": 190, "node.commits_per_op": 3,
		"core.prove_self_ms": 350 + 390, "trace.coverage": 1 - 20.0/940, "trace.spans_per_op": 6,
		"core.duplicate_ms": 0,
	}
	for k, v := range want {
		if !approx(got[k], v) {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if got["trace.overhead_ratio"] < 1 || got["trace.overhead_ratio"] > 1.01 {
		t.Errorf("trace.overhead_ratio = %v for 6 spans in a 1 s op", got["trace.overhead_ratio"])
	}
}

func TestMontMulMatchesBigInt(t *testing.T) {
	q := new(big.Int)
	for i := 3; i >= 0; i-- {
		q.Lsh(q, 64).Or(q, new(big.Int).SetUint64(calibQ[i]))
	}
	toBig := func(x *[4]uint64) *big.Int {
		v := new(big.Int)
		for i := 3; i >= 0; i-- {
			v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(x[i]))
		}
		return v
	}
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 256), q)
	x := [4]uint64{0x1234567890abcdef, 0xfedcba0987654321, 0x0f0f0f0f0f0f0f0f, 0x2a2a2a2a2a2a2a2a}
	y := [4]uint64{0xdeadbeefcafebabe, 7, 0xffffffffffffffff, 0x1fffffffffffffff}
	for i := 0; i < 200; i++ {
		want := new(big.Int).Mul(toBig(&x), toBig(&y))
		want.Mul(want, rInv).Mod(want, q)
		var z [4]uint64
		montMul(&z, &x, &y)
		if toBig(&z).Cmp(want) != 0 {
			t.Fatalf("round %d: montMul = %x, want %x", i, toBig(&z), want)
		}
		x, y = y, z
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !approx(q1, 2.75) || !approx(q2, 5.5) || !approx(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if !approx(q1, 1) || !approx(q2, 3) || !approx(q3, 4.5) {
		t.Errorf("quartiles = %v %v %v, want 1 3 4.5", q1, q2, q3)
	}
}

// benchmarkJSON mirrors the BENCHMARK.json contract.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONParity keeps BENCHMARK.json and the tables the benchmark
// prints from in step: every declared name is emitted, nothing undeclared.
// (result.print refuses at run time to emit a set that differs from the
// tables, so table parity is emission parity.)
func TestBenchmarkJSONParity(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d emitted", len(doc.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("setup_s (s, lower) is required")
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d emitted (limit 128)", len(doc.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("%s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, d := range rawTwins {
		if !seen[d.name] {
			t.Errorf("raw twin %s is not a declared per-layer metric", d.name)
		}
	}
}

// smoke runs one measured window of a workload with every correctness check
// on, including crash-discard recovery, and requires all six end-to-end
// metrics to come out finite and positive.
func smoke(t *testing.T, workload string) {
	t.Helper()
	res, err := run(config{workload: workload, seed: 7, seconds: 0.001, scratch: t.TempDir()}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%d attempted, %d failed", res.attempted, res.failed)
	}
	for _, d := range endToEnd {
		m, ok := res.e2e[d.name]
		if !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) || m.Unit != d.unit {
			t.Errorf("%s = %+v", d.name, m)
		}
	}
}

func TestSmokeNodeMixed(t *testing.T) { smoke(t, "node-mixed") }

// A host too slow for the planned windows fails the run with the typed
// reason instead of reporting a shorter one, and the run's data directory
// is gone on that exit path too.
func TestTooSlowHostFailsLoudly(t *testing.T) {
	scratch := t.TempDir()
	started := time.Now().Add(-runDeadline) // as if set-up had taken the whole allowance
	_, err := run(config{workload: "node-mixed", seed: 7, seconds: 1, scratch: scratch}, started)
	if !errors.Is(err, errTooSlow) {
		t.Fatalf("err = %v, want errTooSlow", err)
	}
	left, err := os.ReadDir(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("%d entries left under the scratch directory, first %q", len(left), left[0].Name())
	}
}

func TestSmokeExchangePublic(t *testing.T) {
	if testing.Short() {
		t.Skip("proves two full exchanges (~10 s)")
	}
	smoke(t, "exchange-public")
}

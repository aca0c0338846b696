package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // measured-window budget, reference-host time
	trace    bool
	scratch  string // directory for the run's data and the trace file
	verbose  bool
}

// calibSample is one run of the calibration kernel: the wall time of its
// single-goroutine phase and of its all-cores phase.
type calibSample struct {
	at               time.Duration // midpoint, since the run started
	serial, parallel float64       // ms
}

// interval is a timed stretch of the run: wall-clock bounds, the
// calibration time that fell inside it, which is never part of a timing,
// and the parallel share of the work it times, which weights its host
// factor.
type interval struct {
	start, end time.Duration
	paused     time.Duration
	share      float64
}

func (iv interval) net() time.Duration { return iv.end - iv.start - iv.paused }

// sample is one timed event. A failed event counts as missing any latency
// limit: it sorts above every successful sample instead of vanishing.
type sample struct {
	iv interval
	ok bool
}

// runner carries one run's measurement state. All load, and every call to
// the calibration kernel, comes from the one goroutine that owns it.
type runner struct {
	cfg  config
	plan plan
	rng  *rand.Rand // every input the system receives
	// readRng picks read targets. Reads are issued when blocks are
	// observed, so how many happen depends on timing; on a stream of their
	// own they cannot shift the inputs drawn from rng.
	readRng *rand.Rand
	tr      *tracer // nil unless cfg.trace
	t0      time.Time
	dir     string // the run's own directory under cfg.scratch; run removes it

	calibs    []calibSample
	paused    time.Duration // total time spent inside the calibration kernel
	lastCalib time.Duration // when the last calibration ended

	setup     interval
	windows   []interval // measured windows; throughput is ops over these
	ops       []sample
	reads     []sample
	attempted int
	failed    int
}

// newRunner starts a run whose clock counts from t0 and whose files go
// under dir.
func newRunner(cfg config, t0 time.Time, dir string) *runner {
	r := &runner{cfg: cfg, plan: plans[cfg.workload], t0: t0, dir: dir,
		rng:     rand.New(rand.NewPCG(cfg.seed, 0x7a6b646574)),
		readRng: rand.New(rand.NewPCG(cfg.seed, 0x72656164))}
	if cfg.trace {
		r.tr = newTracer(r.t0)
	}
	return r
}

func (r *runner) now() time.Duration { return time.Since(r.t0) }

// calibrateNow runs the kernel and records the sample. Callers make sure
// the system is quiescent: nothing of the benchmark's is running beside it.
func (r *runner) calibrateNow() {
	sp := r.tr.begin(spanCalibrate)
	start := r.now()
	serial, parallel := calibrate()
	end := r.now()
	r.tr.end(sp)
	r.calibs = append(r.calibs, calibSample{at: (start + end) / 2, serial: serial, parallel: parallel})
	r.paused += end - start
	r.lastCalib = end
}

// boundary is called wherever the benchmark's wrappers sit between two
// stretches of system work with nothing in flight. It calibrates when the
// last sample is older than calibEvery, so the host's speed is sampled all
// through an operation, not only at its ends.
func (r *runner) boundary() {
	if r.now()-r.lastCalib >= calibEvery {
		r.calibrateNow()
	}
}

// begin opens an interval over work of the given parallel share; pair it
// with since.
func (r *runner) begin(share float64) interval {
	return interval{start: r.now(), paused: r.paused, share: share}
}

// since closes an interval begin opened.
func (r *runner) since(iv interval) interval {
	iv.end = r.now()
	iv.paused = r.paused - iv.paused
	return iv
}

// hostFactor is the host's slowness over iv relative to the reference host:
// the kernel's two phases, each averaged over the calibration samples taken
// from calibWindow before the interval to calibWindow after it and divided
// by its reference time, blended by the interval's parallel share.
// Averaging over a window wider than the interval is deliberate: one sample
// of this host scatters by ±20 % around the speed the surrounding seconds of
// work actually saw, a dozen do not.
func hostFactor(calibs []calibSample, iv interval) float64 {
	var serial, parallel float64
	var n int
	for _, c := range calibs {
		if c.at >= iv.start-calibWindow && c.at <= iv.end+calibWindow {
			serial += c.serial
			parallel += c.parallel
			n++
		}
	}
	if n == 0 {
		// No sample that close: fall back on the nearest one.
		best := calibs[0]
		mid := (iv.start + iv.end) / 2
		for _, c := range calibs[1:] {
			if (c.at - mid).Abs() < (best.at - mid).Abs() {
				best = c
			}
		}
		serial, parallel, n = best.serial, best.parallel, 1
	}
	serial /= float64(n) * calibRefSerialMS
	parallel /= float64(n) * calibRefParallelMS
	return (1-iv.share)*serial + iv.share*parallel
}

// calibratedMS is the interval's net time on the reference host.
func (r *runner) calibratedMS(iv interval) float64 {
	return ms(iv.net()) / hostFactor(r.calibs, iv)
}

func (r *runner) recordOp(iv interval, ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
	r.ops = append(r.ops, sample{iv: iv, ok: ok})
}

func (r *runner) recordRead(iv interval, ok bool) {
	r.reads = append(r.reads, sample{iv: iv, ok: ok})
}

// measuredFor is the wall time inside measured windows so far.
func (r *runner) measuredFor() time.Duration {
	var d time.Duration
	for _, w := range r.windows {
		d += w.net()
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *runner) logf(format string, args ...any) {
	if r.cfg.verbose {
		fmt.Fprintf(os.Stderr, "  [%s %6.2fs] "+format+"\n", append([]any{r.cfg.workload, r.now().Seconds()}, args...)...)
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

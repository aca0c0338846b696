package main

import (
	"math/bits"
	"runtime"
	"sync"
	"time"
)

// Host calibration.
//
// The benchmark runs on a small shared VM whose speed moves by tens of
// percent within seconds and by more when a neighbour takes a core. Every
// timing it reports is therefore divided by a host factor: how long a fixed
// kernel takes now, over how long it takes on the reference host. The
// kernel imports nothing from the repository, so no change to the system
// can make it faster; it moves only with the host.
//
// The kernel runs in two phases, because a host does not slow serial and
// parallel work alike: first on one goroutine, then on one goroutine per
// GOMAXPROCS at once. A neighbour that takes one of two cores leaves the
// first phase as it was and nearly doubles the second; a frequency drop
// slows both. Each timed interval is scaled by a blend of the two factors,
// weighted by how much of its work keeps every core busy (its parallel
// share, below).

// calibRefSerialMS and calibRefParallelMS are the two phases' wall times on
// the reference host: round values in the middle of what the 2-vCPU box
// this benchmark was defined on showed over a day (run medians between 0.85
// and 1.3 times these). A calibrated metric reads as "time on the reference
// host". Frozen: changing them rescales every calibrated metric and voids
// comparison with earlier readings.
const (
	calibRefSerialMS   = 22.0
	calibRefParallelMS = 25.0
)

// A parallel share is the part of an interval's wall time during which its
// work keeps every core busy: the weight its host factor gives the kernel's
// parallel phase. The shares belong to the workload definitions (who proves,
// who only executes), not to the code under test. They were measured on the
// reference host as the weight at which eight runs beside a busy loop
// pinned to one core read the same as eight runs without it (README.md,
// "Host calibration"), and are frozen like the reference times. These two
// are shared; the node workloads' own are in the plans table (main.go).
const (
	shareSerial = 0.0 // reads, index queries, single-goroutine kernels
	shareProver = 0.7 // client-side proving, and kernels built on the parallel loops
)

const (
	// calibEvery is the longest stretch of system work the benchmark lets
	// pass, where it has a quiescent boundary to stop at, without sampling
	// the host.
	calibEvery = 400 * time.Millisecond
	// calibWindow is how far beyond a timed interval's ends calibration
	// samples still count towards its host factor.
	calibWindow = 4 * time.Second
)

const (
	calibVecLen    = 4096    // field elements per vector (128 KiB: stays in L2)
	calibMulRounds = 75      // element-wise multiply passes over the vector
	calibBufSize   = 8 << 20 // bytes walked by the strided pass (beyond L2)
	calibPasses    = 12      // strided passes
	calibStride    = 64      // one touch per cache line
)

// The BN254 scalar field modulus, little-endian limbs, and −q⁻¹ mod 2⁶⁴:
// the kernel multiplies in the same field the prover does.
var (
	calibQ    = [4]uint64{0x43e1f593f0000001, 0x2833e84879b97091, 0xb85045b68181585d, 0x30644e72e131a029}
	calibQInv = uint64(0xc2e1f593efffffff)
)

// montMul sets z = x·y·2⁻²⁵⁶ mod q (Montgomery CIOS over four limbs).
func montMul(z, x, y *[4]uint64) {
	var t [5]uint64
	for i := 0; i < 4; i++ {
		var c uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(x[j], y[i])
			lo, c1 := bits.Add64(lo, t[j], 0)
			lo, c2 := bits.Add64(lo, c, 0)
			t[j], c = lo, hi+c1+c2
		}
		t4, over := bits.Add64(t[4], c, 0)

		m := t[0] * calibQInv
		hi, lo := bits.Mul64(m, calibQ[0])
		_, c1 := bits.Add64(lo, t[0], 0)
		c = hi + c1
		for j := 1; j < 4; j++ {
			hi, lo := bits.Mul64(m, calibQ[j])
			lo, c1 := bits.Add64(lo, t[j], 0)
			lo, c2 := bits.Add64(lo, c, 0)
			t[j-1], c = lo, hi+c1+c2
		}
		t[3], c1 = bits.Add64(t4, c, 0)
		t[4] = over + c1
	}
	// One conditional subtraction brings t below q.
	var d [4]uint64
	var b uint64
	d[0], b = bits.Sub64(t[0], calibQ[0], 0)
	d[1], b = bits.Sub64(t[1], calibQ[1], b)
	d[2], b = bits.Sub64(t[2], calibQ[2], b)
	d[3], b = bits.Sub64(t[3], calibQ[3], b)
	if t[4] != 0 || b == 0 {
		*z = d
		return
	}
	copy(z[:], t[:4])
}

// calibWorker is one goroutine's share of the kernel's memory, allocated
// once so that page faults and the allocator are never timed.
type calibWorker struct {
	a, b []([4]uint64)
	buf  []byte
	sink uint64
}

var (
	calibOnce    sync.Once
	calibWorkers []*calibWorker
)

func calibInit() {
	calibWorkers = make([]*calibWorker, runtime.GOMAXPROCS(0))
	for w := range calibWorkers {
		cw := &calibWorker{
			a:   make([]([4]uint64), calibVecLen),
			b:   make([]([4]uint64), calibVecLen),
			buf: make([]byte, calibBufSize),
		}
		for i := range cw.a {
			cw.a[i] = [4]uint64{uint64(i + 3), uint64(w + 1), 5, 7}
			cw.b[i] = [4]uint64{uint64(2*i + 1), 11, uint64(w + 13), 1}
		}
		for i := range cw.buf {
			cw.buf[i] = byte(i)
		}
		calibWorkers[w] = cw
	}
}

// run is one goroutine's work: element-wise field multiplication over a
// cache-resident vector (compute bound and pipelined, like FFT butterflies
// and MSM bucket additions), then strided passes over 8 MiB (memory bound,
// like the prover's large-polynomial traffic).
func (cw *calibWorker) run() {
	for r := 0; r < calibMulRounds; r++ {
		for i := range cw.a {
			montMul(&cw.a[i], &cw.a[i], &cw.b[i])
		}
	}
	var acc uint64
	for p := 0; p < calibPasses; p++ {
		for i := p; i < len(cw.buf); i += calibStride {
			cw.buf[i] += byte(i)
			acc += uint64(cw.buf[i])
		}
	}
	cw.sink += acc + cw.a[0][0]
}

// calibrate runs the kernel's two phases — one goroutine, then one per
// GOMAXPROCS — and returns their wall times in milliseconds; the parallel
// phase's is the slowest goroutine's, as it is for the prover's parallel
// loops. It allocates nothing after the first call.
func calibrate() (serialMS, parallelMS float64) {
	calibOnce.Do(calibInit)
	start := time.Now()
	calibWorkers[0].run()
	mid := time.Now()
	var wg sync.WaitGroup
	for _, cw := range calibWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cw.run()
		}()
	}
	wg.Wait()
	return ms(mid.Sub(start)), ms(time.Since(mid))
}

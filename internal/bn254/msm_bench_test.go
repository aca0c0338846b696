package bn254

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/fr"
)

func BenchmarkG1MSM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const maxLog = 16
	points := msmTestPoints(1 << maxLog)
	scalars := msmTestScalars(rng, 1<<maxLog)
	// Powers of two, and the 3·2^k lengths a key on such a domain commits
	// to (768, 1 536, 6 144), each between its neighbours.
	for _, n := range []int{1 << 9, 3 << 8, 1 << 10, 3 << 9, 1 << 11, 1 << 12, 3 << 11, 1 << 13, 1 << 14, 1 << 16} {
		name := fmt.Sprintf("2^%d", bits.Len(uint(n))-1)
		if n%3 == 0 {
			name = fmt.Sprintf("3·2^%d", bits.Len(uint(n/3))-1)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := G1MSM(points[:n], scalars[:n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchTakingTurns times candidate implementations of one computation
// against each other: every iteration runs each of them once, in order, so
// a host that drifts between fast and slow (this repository's benchmarks
// run on shared machines) slows all of them alike. It reports each
// candidate's fastest and median run in µs.
func benchTakingTurns(b *testing.B, names []string, run func(candidate int)) {
	runs := make([][]float64, len(names))
	for i := 0; i < b.N; i++ {
		for k := range names {
			start := time.Now()
			run(k)
			runs[k] = append(runs[k], float64(time.Since(start).Microseconds()))
		}
	}
	for k, name := range names {
		sort.Float64s(runs[k])
		b.ReportMetric(runs[k][0], "us-min/"+name)
		b.ReportMetric(runs[k][len(runs[k])/2], "us-med/"+name)
	}
}

// BenchmarkMSMWindow sweeps the Pippenger window width around windowSize's
// choice with full-width scalars, the widths taking turns; windowSize's
// table is read off its output.
func BenchmarkMSMWindow(b *testing.B) {
	const maxLog = 16
	points := msmTestPoints(1 << maxLog)
	scalars := make([]fr.Element, 1<<maxLog)
	for i := range scalars {
		scalars[i] = fr.MustRandom()
	}
	for _, n := range []int{4, 6, 8, 12, 16, 24, 32, 64, 128, 160, 192, 224, 256, 512, 1024, 2048, 4096, 8192, 1 << 14, 1 << 15, 1 << 16} {
		lo := max(2, windowSize(n)-2)
		var names []string
		for c := lo; c <= min(16, windowSize(n)+2); c++ {
			names = append(names, fmt.Sprintf("c=%d", c))
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchTakingTurns(b, names, func(k int) {
				msmWithWindow(points[:n], scalars[:n], lo+k, msmMinBatch)
			})
		})
	}
}

// BenchmarkMSMBatchThreshold times the Pippenger core around the size where
// one shared inversion per round starts to pay, with no batched round at
// all (XYZZ mixed additions only) and once per candidate msmMinBatch; the
// constant is read off its output (table in EXPERIMENTS.md).
func BenchmarkMSMBatchThreshold(b *testing.B) {
	const maxN = 2048
	points := msmTestPoints(maxN)
	scalars := make([]fr.Element, maxN)
	for i := range scalars {
		scalars[i] = fr.MustRandom()
	}
	candidates := []int{msmNeverBatch, 32, 64, 96, 128, 192, 256}
	names := []string{"no-rounds"}
	for _, minBatch := range candidates[1:] {
		names = append(names, fmt.Sprintf("minBatch=%d", minBatch))
	}
	for _, n := range []int{128, 192, 256, 384, 512, 768, 1024, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchTakingTurns(b, names, func(k int) {
				msmWithWindow(points[:n], scalars[:n], windowSize(n), candidates[k])
			})
		})
	}
}

// BenchmarkMSMTableWidth sweeps G1MSMTable's digit width over c = 8…12 at
// the lengths the prover commits to (π_e and π_ct at N = 512, π_k at
// N = 1 536, a 3 072-row key), with G1MSM beside them, all taking turns on
// warm tables; msmTableWidth is read off its output.
func BenchmarkMSMTableWidth(b *testing.B) {
	const maxN = 3075
	points := msmTestPoints(maxN)
	scalars := make([]fr.Element, maxN)
	for i := range scalars {
		scalars[i] = fr.MustRandom()
	}
	widths := tableWidths
	names := []string{"G1MSM"}
	for _, c := range widths {
		names = append(names, fmt.Sprintf("c=%d", c))
	}
	for _, n := range []int{515, 1539, 3075} {
		tables := make([]G1MSMTable, len(widths))
		for k := range tables {
			tables[k].extend(points[:n], widths[k])
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchTakingTurns(b, names, func(k int) {
				if k == 0 {
					msmWithWindow(points[:n], scalars[:n], windowSize(n), msmMinBatch)
					return
				}
				tables[k-1].msm(scalars[:n], widths[k-1])
			})
		})
	}
}

// fixedBaseWidths are the digit widths BenchmarkFixedBaseWidth sweeps,
// fixedBaseWidth among them.
var fixedBaseWidths = []int{8, 9, 10, 11, 12, 13}

// BenchmarkFixedBaseWidth sweeps G1FixedBaseMul's digit width over
// c = 8…13 on the powers of one τ at the SRS sizes of zkdet-node (16 400)
// and of the benchmark and cluster (32 784), table build included, the
// widths taking turns; fixedBaseWidth is read off its output.
func BenchmarkFixedBaseWidth(b *testing.B) {
	g := G1Generator()
	tau := fr.NewElement(0x5eed2025)
	for _, n := range []int{16400, 32784} {
		scalars := fr.Powers(&tau, n)
		var names []string
		for _, c := range fixedBaseWidths {
			names = append(names, fmt.Sprintf("c=%d", c))
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchTakingTurns(b, names, func(k int) {
				fixedBaseMul(&g, scalars, fixedBaseWidths[k])
			})
		})
	}
}

// BenchmarkMSMTableCrossover times G1MSM against the table pass at
// msmTableWidth at both ends of the lengths the table serves, the two
// taking turns on a warm table: msmTableMinLen and msmTableMaxLen are read
// off its output.
func BenchmarkMSMTableCrossover(b *testing.B) {
	const maxN = 1 << 14
	points := msmTestPoints(maxN)
	scalars := make([]fr.Element, maxN)
	for i := range scalars {
		scalars[i] = fr.MustRandom()
	}
	var table G1MSMTable
	table.extend(points, msmTableWidth)
	for _, n := range []int{2, 3, 4, 6, 8, 12, 16, 32, 4096, 6147, 8195, 12291, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchTakingTurns(b, []string{"G1MSM", "table"}, func(k int) {
				if k == 0 {
					if _, err := G1MSM(points[:n], scalars[:n]); err != nil {
						b.Fatal(err)
					}
					return
				}
				table.msm(scalars[:n], msmTableWidth)
			})
		})
	}
}

package bn254

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

func BenchmarkG1MSM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const maxLog = 16
	points := msmTestPoints(1 << maxLog)
	scalars := msmTestScalars(rng, 1<<maxLog)
	for _, logN := range []int{10, 12, 13, 14, 16} {
		n := 1 << logN
		b.Run(fmt.Sprintf("2^%d", logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := G1MSM(points[:n], scalars[:n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMSMWindow sweeps the Pippenger window width around windowSize's
// choice with full-width scalars; windowSize's table is read off its output.
func BenchmarkMSMWindow(b *testing.B) {
	const maxLog = 16
	points := msmTestPoints(1 << maxLog)
	scalars := make([]fr.Element, 1<<maxLog)
	for i := range scalars {
		scalars[i] = fr.MustRandom()
	}
	for _, n := range []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 1 << 14, 1 << 15, 1 << 16} {
		for c := max(2, windowSize(n)-2); c <= min(16, windowSize(n)+2); c++ {
			b.Run(fmt.Sprintf("n=%d/c=%d", n, c), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					msmWithWindow(points[:n], scalars[:n], c)
				}
			})
		}
	}
}

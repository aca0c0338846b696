package poly

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// benchFFTSizes are the domain sizes the BENCH trajectories track: the
// powers of two, and the 3·2^k sizes the prover's keys (768, 1 536) and
// custom-gate quotient cosets (3 072 for π_e and π_p at four entries,
// 6 144) now take, each between its neighbours.
var benchFFTSizes = []uint64{1 << 9, 3 << 8, 1 << 10, 3 << 9, 1 << 11, 3 << 10, 1 << 12, 3 << 11, 1 << 13, 1 << 14, 1 << 16}

// sizeName prints a domain size as the benchmarks name their rows.
func sizeName(n uint64) string {
	if n%3 == 0 {
		return fmt.Sprintf("3·2^%d", bits.Len64(n/3)-1)
	}
	return fmt.Sprintf("2^%d", bits.Len64(n)-1)
}

func BenchmarkFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range benchFFTSizes {
		d, err := NewDomain(n)
		if err != nil {
			b.Fatal(err)
		}
		in := randVec(rng, n)
		d.FFT(append([]fr.Element(nil), in...)) // warm the twiddle cache
		b.Run(sizeName(n), func(b *testing.B) {
			a := make([]fr.Element, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(a, in)
				d.FFT(a)
			}
		})
	}
}

func BenchmarkIFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range benchFFTSizes {
		d, err := NewDomain(n)
		if err != nil {
			b.Fatal(err)
		}
		in := randVec(rng, n)
		d.IFFT(append([]fr.Element(nil), in...))
		b.Run(sizeName(n), func(b *testing.B) {
			a := make([]fr.Element, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(a, in)
				d.IFFT(a)
			}
		})
	}
}

func BenchmarkFFTCoset(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range benchFFTSizes {
		d, err := NewDomain(n)
		if err != nil {
			b.Fatal(err)
		}
		in := randVec(rng, n)
		d.FFTCoset(append([]fr.Element(nil), in...))
		b.Run(sizeName(n), func(b *testing.B) {
			a := make([]fr.Element, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(a, in)
				d.FFTCoset(a)
			}
		})
	}
}

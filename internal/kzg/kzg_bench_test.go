package kzg

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/zkdet/zkdet/internal/bn254"
	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/poly"
)

// BenchmarkCommit times Commit, on the SRS's window table, against G1MSM
// over the same SRS prefix at the lengths the prover commits to (π_e, π_p
// and π_ct on N = 512, π_k on N = 1 536, a 3 072-row key, and 2^13, past
// the table's longest MSM), the two taking turns inside every iteration so
// a drifting host slows both alike. It reports each one's fastest and
// median run in µs.
func BenchmarkCommit(b *testing.B) {
	tau := fr.NewElement(0x5eed)
	srs, err := NewSRSFromSecret((1<<13)+9, &tau)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{515, 1539, 3075, 1 << 13} {
		p := make(poly.Polynomial, n)
		for i := range p {
			p[i] = fr.MustRandom()
		}
		if _, err := Commit(srs, p); err != nil { // build the table outside the timing
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var runs [2][]float64
			for i := 0; i < b.N; i++ {
				for k, commit := range []func() (Commitment, error){
					func() (Commitment, error) { return Commit(srs, p) },
					func() (Commitment, error) { return bn254.G1MSM(srs.G1[:n], p) },
				} {
					start := time.Now()
					if _, err := commit(); err != nil {
						b.Fatal(err)
					}
					runs[k] = append(runs[k], float64(time.Since(start).Microseconds()))
				}
			}
			for k, name := range []string{"table", "G1MSM"} {
				slices.Sort(runs[k])
				b.ReportMetric(runs[k][0], "us-min/"+name)
				b.ReportMetric(runs[k][len(runs[k])/2], "us-med/"+name)
			}
		})
	}
}

// BenchmarkNewSRSFromSecret times SRS generation at the sizes of
// zkdet-node (16 400 powers) and of the benchmark and cluster (32 784).
func BenchmarkNewSRSFromSecret(b *testing.B) {
	for _, size := range []int{16400, 32784} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tau := fr.NewElement(0x5eed2025)
				if _, err := NewSRSFromSecret(size, &tau); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCeremonyContribution measures one Powers-of-Tau contribution.
func BenchmarkCeremonyContribution(b *testing.B) {
	cer, err := NewCeremony(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cer.Contribute([]byte{byte(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

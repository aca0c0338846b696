package kzg

import (
	"fmt"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
	"github.com/zkdet/zkdet/internal/poly"
)

func BenchmarkCommit(b *testing.B) {
	const maxLog = 16
	tau := fr.NewElement(0x5eed)
	srs, err := NewSRSFromSecret((1<<maxLog)+1, &tau)
	if err != nil {
		b.Fatal(err)
	}
	for _, logN := range []int{10, 12, 14, 16} {
		n := 1 << logN
		p := make(poly.Polynomial, n)
		for i := range p {
			p[i] = fr.NewElement(uint64(i)*2654435761 + 1)
		}
		b.Run(fmt.Sprintf("2^%d", logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Commit(srs, p); err != nil {
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

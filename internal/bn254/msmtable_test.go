package bn254

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/zkdet/zkdet/internal/fr"
)

// tableWidths are the widths BenchmarkMSMTableWidth sweeps, msmTableWidth
// among them.
var tableWidths = []int{8, 9, 10, 11, 12}

// msmTableTopCarry returns the scalar whose every window below the top one
// is all ones at width c: each recodes to -1 and carries, and the last
// carry lands in the top window.
func msmTableTopCarry(c int) fr.Element {
	v := new(big.Int).Lsh(big.NewInt(1), uint(c*(msmWindows(scalarBits, c)-1)))
	return fr.FromBig(v.Sub(v, big.NewInt(1)))
}

// TestMSMTableWindowsHoldEveryScalar checks msmWindows at every width
// msmWithWindow supports: the signed digits of r-1, of the top-carry scalar
// and of random scalars fit in that many windows (a longer recoding would
// index past the slice) and sum back to the scalar.
func TestMSMTableWindowsHoldEveryScalar(t *testing.T) {
	for _, c := range msmTestWindows {
		W := msmWindows(scalarBits, c)
		scalars := []fr.Element{fr.NewFromInt64(-1), msmTableTopCarry(c), fr.MustRandom(), fr.MustRandom()}
		for _, s := range scalars {
			d := make([]int16, W)
			l := s.Limbs()
			recodeSigned(&l, c, d, 1)
			sum := new(big.Int)
			for w := W - 1; w >= 0; w-- {
				sum.Lsh(sum, uint(c))
				sum.Add(sum, big.NewInt(int64(d[w])))
			}
			if sum.Cmp(s.BigInt()) != 0 {
				t.Fatalf("c=%d: %d digits of %v sum to %v", c, W, s.BigInt(), sum)
			}
		}
	}
}

// TestMSMTableEdgeScalars runs the table pass at every swept width on the
// scalars its recoding can get wrong — 0, 1, r-1, the digits ±2^(c-1) in
// the first and a higher window, a carry through every window into the top
// one — beside points at infinity, against the naive sum. Four copies of
// the list make the chunks long enough for batch-affine rounds, where a
// point at infinity that kept its digits would corrupt a slope.
func TestMSMTableEdgeScalars(t *testing.T) {
	for _, c := range tableWidths {
		edge := append(msmEdgeScalars(c), msmTableTopCarry(c), msmTableTopCarry(c))
		var scalars []fr.Element
		for range 4 {
			scalars = append(scalars, edge...)
		}
		points := msmTestPoints(len(scalars))
		points[len(edge)] = G1Affine{}   // scalar 0
		points[len(edge)+7] = G1Affine{} // a full-width scalar, its digits in many buckets
		points[len(points)-1] = G1Affine{}
		var table G1MSMTable
		table.extend(points, c)
		for _, n := range []int{len(scalars), 1} {
			got := table.msm(scalars[:n], c)
			if want := msmNaive(points[:n], scalars[:n]); !got.Equal(&want) {
				t.Fatalf("c=%d n=%d: table pass differs from the naive sum", c, n)
			}
		}
	}
}

// TestMSMTableBounds pins when G1MSMTable runs on its table: an empty
// table sends MSMs of msmTableMinLen to msmTableMaxLen points to G1MSM
// until the msmTableGrowAfter-th, which builds it over the longest of them
// plus headroom up to the next multiple of msmTableStep; after that an MSM
// longer than the table extends it at once, never past msmTableMaxLen.
// Shorter and longer MSMs never count and never grow it. Every result
// equals G1MSM's.
func TestMSMTableBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	points := msmTestPoints(msmTableMaxLen + 1)
	scalars := msmTestScalars(rng, len(points))
	var table G1MSMTable
	covered := func() int {
		table.mu.Lock()
		defer table.mu.Unlock()
		return table.n
	}
	msm := func(n, wantCovered int) {
		t.Helper()
		got, err := table.MSM(points, scalars[:n])
		if err != nil {
			t.Fatal(err)
		}
		want, _ := G1MSM(points[:n], scalars[:n])
		if !got.Equal(&want) {
			t.Fatalf("n=%d: G1MSMTable differs from G1MSM", n)
		}
		if covered() != wantCovered {
			t.Fatalf("after an MSM of %d points the table covers %d, want %d", n, covered(), wantCovered)
		}
	}
	for i := 0; i < msmTableGrowAfter; i++ {
		msm(msmTableMinLen-1, 0)
		msm(msmTableMaxLen+1, 0)
	}
	for i := 1; i < msmTableGrowAfter; i++ {
		msm(msmTableMinLen+i%2, 0)
	}
	msm(msmTableMinLen, msmTableStep)
	msm(msmTableStep, msmTableStep)
	msm(msmTableStep+1, 2*msmTableStep)
	msm(msmTableMaxLen+1, 2*msmTableStep)
	msm(msmTableMaxLen, msmTableMaxLen)
	if _, err := table.MSM(points[:3], scalars[:4]); err == nil {
		t.Fatal("an MSM with more scalars than bases was accepted")
	}
}

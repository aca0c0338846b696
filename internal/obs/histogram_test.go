package obs

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantileBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		var h Histogram
		n := 1 + rng.IntN(2000)
		vals := make([]time.Duration, n)
		for i := range vals {
			// Spread over ~16 octaves, from nanoseconds to tens of ms,
			// with some exact small values.
			vals[i] = time.Duration(rng.Int64N(1 << (1 + rng.IntN(26))))
			h.Observe(vals[i])
		}
		slices.Sort(vals)
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			exact := vals[min(int(q*float64(n)), n-1)]
			got := h.Quantile(q)
			if got < exact || float64(got) > 1.125*float64(exact) {
				t.Fatalf("trial %d, n=%d: q=%v reads %d, exact %d", trial, n, q, got, exact)
			}
		}
	}
}

func TestHistogramEdges(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram reads %v, want 0", got)
	}
	h.Observe(-time.Second)
	if got := h.Quantile(1); got != 0 {
		t.Fatalf("a negative duration reads %v, want 0", got)
	}
	for b := 0; b < numBuckets; b++ {
		if got := bucket(upperEdge(b)); got != b {
			t.Fatalf("upper edge of bucket %d lands in bucket %d", b, got)
		}
		if b > 0 && bucket(upperEdge(b-1)+1) != b {
			t.Fatalf("bucket %d does not start right after bucket %d", b, b-1)
		}
	}
	if got := bucket(1<<63 - 1); got != numBuckets-1 {
		t.Fatalf("the largest duration lands in bucket %d of %d", got, numBuckets)
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	var h Histogram
	if a := testing.AllocsPerRun(1000, func() { h.Observe(1234 * time.Microsecond) }); a != 0 {
		t.Fatalf("Observe allocates %v times per call", a)
	}
}

// TestHistogramConcurrent is for -race: writers and a reader at once.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(w*1000 + i))
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		_ = h.Quantile(0.99)
	}
	wg.Wait()
	if got := h.Quantile(1); got < 3999 || got > 3999*9/8 {
		t.Fatalf("max reads %v after 4000 observations up to 3999ns", got)
	}
}

// TestHistogramMerge checks that a merged histogram reads what one
// histogram fed every observation reads, and that Merge allocates nothing.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var a, b, all, merged Histogram
	for i := 0; i < 500; i++ {
		d := time.Duration(rng.Int64N(1 << 24))
		if i%3 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
		all.Observe(d)
	}
	merged.Merge(&a)
	merged.Merge(&b)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got, want := merged.Quantile(q), all.Quantile(q); got != want {
			t.Fatalf("q=%v: merged reads %v, one histogram %v", q, got, want)
		}
	}
	var sink Histogram
	if n := testing.AllocsPerRun(100, func() { sink.Merge(&a) }); n != 0 {
		t.Fatalf("Merge allocates %v times per call", n)
	}
}

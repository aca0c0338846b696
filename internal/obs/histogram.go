// Package obs holds the runtime instruments components report through
// their Metrics maps.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// subBits splits each power-of-two octave into 2^subBits linear buckets,
// so a bucket's upper edge is at most 1/8 above any value it holds. Values
// below 2^subBits get a bucket each; numBuckets covers every int64.
const (
	subBits    = 3
	numBuckets = (64 - subBits) << subBits
)

// Histogram is a log-linear histogram of durations. Observe is lock-free
// and does not allocate. The zero value is ready to use.
type Histogram struct{ counts [numBuckets]atomic.Uint64 }

// bucket returns the index of the bucket holding v, from v's top subBits+1 bits.
func bucket(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - 1 - subBits
	return (e+1)<<subBits | int(v>>e)&(1<<subBits-1)
}

// upperEdge returns the largest value bucket b holds.
func upperEdge(b int) uint64 {
	if b < 1<<subBits {
		return uint64(b)
	}
	e := b>>subBits - 1
	return uint64(1<<subBits|b&(1<<subBits-1))<<e + (1<<e - 1)
}

// Observe records one duration; a negative one counts as zero.
func (h *Histogram) Observe(d time.Duration) { h.counts[bucket(uint64(max(d, 0)))].Add(1) }

// Quantile returns the upper edge of the bucket holding the observation of
// 0-based rank ⌊q·n⌋ (at most n−1) among the n recorded: a value within
// [exact, 1.125·exact]. An empty histogram reads 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	var counts [numBuckets]uint64
	var n uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		n += counts[i]
	}
	rank, seen := min(uint64(q*float64(n)), n-1), uint64(0) // no bucket passes rank 0 when n == 0
	for b, c := range counts {
		if seen += c; seen > rank {
			return time.Duration(upperEdge(b))
		}
	}
	return 0
}

// Merge adds every observation o holds to h, so one histogram can report
// the quantiles of several. It allocates nothing; observations made on o
// while it runs may or may not be included.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
}

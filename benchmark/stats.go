package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0<q<1) of vs by the nearest-rank
// method on a sorted copy. Failed samples are +Inf, so they push the
// percentile up instead of vanishing. An empty input returns NaN.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank]
}

// median is the 0.5 quantile with the usual mean of the two middle values
// for an even count.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPermille are the candidates highestSupportable chooses from, in
// thousandths so the sample arithmetic is exact.
var tailPermille = []int{999, 990, 950, 900, 750}

// highestSupportable returns the highest percentile that still has at
// least ten samples beyond it among n samples, or 0.5 when even p75 does
// not: with a handful of exchange ops only the median is honest, with
// thousands of node transactions p99.9 is.
func highestSupportable(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 1000
		}
	}
	return 0.5
}

// calibratedThroughput is ops / Σ(tᵢ / hᵢ) over the measured windows: the
// operations per second the reference host would have completed.
func calibratedThroughput(ops int, netSeconds, h []float64) float64 {
	var refSeconds float64
	for i := range netSeconds {
		refSeconds += netSeconds[i] / h[i]
	}
	if refSeconds == 0 {
		return math.NaN()
	}
	return float64(ops) / refSeconds
}

// calibratedValues are the samples' times on the reference host; a failed
// sample is +Inf.
func (r *runner) calibratedValues(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = math.Inf(1)
		if s.ok {
			out[i] = r.calibratedMS(s.iv)
		}
	}
	return out
}

// rawValues are the samples' wall times as measured.
func rawValues(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = math.Inf(1)
		if s.ok {
			out[i] = ms(s.iv.net())
		}
	}
	return out
}

// coefficientOfVariation is stddev/mean.
func coefficientOfVariation(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	mean := sum / float64(len(vs))
	var ss float64
	for _, v := range vs {
		ss += (v - mean) * (v - mean)
	}
	return math.Sqrt(ss/float64(len(vs)-1)) / mean
}

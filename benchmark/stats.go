package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// the two nearest order statistics (0 for an empty sample).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// topPercentile is the highest percentile a sample of n supports: the largest
// of 50, 90, 99, 99.9, ... that still has at least ten samples beyond it. It
// returns 0 when even the median has fewer than ten samples above it.
func topPercentile(n int) float64 {
	best := 0.0
	for _, c := range []struct {
		p     float64
		oneIn int // 1 sample in oneIn lies beyond p
	}{{0.5, 2}, {0.9, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10_000}, {0.99999, 100_000}} {
		if n/c.oneIn >= 10 {
			best = c.p
		}
	}
	return best
}

// summary is what the benchmark reports beside every latency percentile.
type summary struct {
	N        int     `json:"n"`
	P50      float64 `json:"p50"`
	P99      float64 `json:"p99"`
	TopP     float64 `json:"top_p"`     // highest percentile with ten samples beyond it
	TopValue float64 `json:"top_value"` // its value
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	top := topPercentile(len(s))
	return summary{N: len(s), P50: quantile(s, 0.5), P99: quantile(s, 0.99), TopP: top, TopValue: quantile(s, top)}
}

func nsToFloat(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}

// histQuantile estimates a quantile from the delta of two log2-bucket
// histogram snapshots (obs.HistogramSnapshot.Buckets: bucket i holds values
// with bits.Len64(v) == i), interpolating inside the bucket.
func histQuantile(cur, prev []uint64, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(cur))
	for i := range cur {
		delta[i] = cur[i]
		if i < len(prev) {
			delta[i] -= prev[i]
		}
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var seen float64
	for i, c := range delta {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			if i == 0 {
				return 0
			}
			lo := math.Ldexp(1, i-1)
			return lo + lo*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	return math.Ldexp(1, len(delta)-1)
}

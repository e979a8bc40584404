package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the 1-based rank of the p-th percentile (0 < p <=
// 100) among n >= 1 sorted samples: the smallest rank with at least p% of
// the samples at or below it.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return min(max(rank, 1), n)
}

// percentile returns the nearest-rank p-th percentile of xs. Nearest
// rank never invents a value between two samples, so a tail figure is
// always a latency some operation really had. Empty input gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[nearestRank(len(xs), p)-1]
}

// median returns the middle sample (mean of the two middle samples for
// an even count). Empty input gives 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mad returns the median absolute deviation from the median — the
// spread figure printed beside every probe median.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// samplesBeyond returns how many of n samples lie above the nearest-rank
// p-th percentile: the support a tail figure has. The choosing-metrics
// rule asks for at least ten.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// relDiff returns |b-a| as a share of |a|, the first of two runs; 0 when
// both are 0.
func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a)
}

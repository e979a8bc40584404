package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{1, 1}, {20, 1}, {21, 2}, {50, 3}, {80, 4}, {95, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestMedianAndMAD(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of no samples = %v, want 0", got)
	}
	// Deviations from the median 3 are 2,1,0,1,97: their median is 1. One
	// outlier moves neither figure.
	if got := mad([]float64{1, 2, 3, 4, 100}); got != 1 {
		t.Errorf("mad = %v, want 1", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	cases := []struct{ n, want int }{{0, 0}, {5, 0}, {10, 1}, {99, 9}, {100, 10}, {1000, 100}}
	for _, c := range cases {
		if got := samplesBeyond(c.n, 90); got != c.want {
			t.Errorf("samplesBeyond(%d, 90) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(100, 92); math.Abs(got-0.08) > 1e-12 {
		t.Errorf("relDiff(100, 92) = %v, want 0.08", got)
	}
	if got := relDiff(0, 0); got != 0 {
		t.Errorf("relDiff(0, 0) = %v, want 0", got)
	}
	if got := relDiff(0, 1); !math.IsInf(got, 1) {
		t.Errorf("relDiff(0, 1) = %v, want +Inf", got)
	}
}

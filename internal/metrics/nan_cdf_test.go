package metrics

import (
	"math"
	"testing"
)

// TestNaNInputsDeterministic is the regression test for NaN poisoning:
// NaN breaks sort's ordering, so the old code returned
// permutation-dependent results. Now NaN in, NaN out (or an error).
func TestNaNInputsDeterministic(t *testing.T) {
	nan := math.NaN()
	perms := [][]float64{
		{nan, 1, 2, 3},
		{1, nan, 2, 3},
		{1, 2, 3, nan},
	}
	clean := []float64{1, 2, 3, 4}

	for _, p := range perms {
		if got := W1(p, clean); !math.IsNaN(got) {
			t.Fatalf("W1(%v, clean) = %v, want NaN", p, got)
		}
		if got := W1(clean, p); !math.IsNaN(got) {
			t.Fatalf("W1(clean, %v) = %v, want NaN", p, got)
		}
		if got := Percentile(p, 50); !math.IsNaN(got) {
			t.Fatalf("Percentile(%v) = %v, want NaN", p, got)
		}
		if _, err := NewCDF(p); err == nil {
			t.Fatalf("NewCDF(%v) succeeded, want error", p)
		}
	}
	// Unequal lengths drive W1 through the quantile-merge path; NaN must
	// be caught there too.
	if got := W1([]float64{1, nan}, clean); !math.IsNaN(got) {
		t.Fatalf("W1 merge path = %v, want NaN", got)
	}

	// Clean inputs are unaffected.
	if got := W1(clean, clean); got != 0 {
		t.Fatalf("W1(clean, clean) = %v, want 0", got)
	}
	if got := Percentile(clean, 50); got != 2.5 {
		t.Fatalf("Percentile(clean, 50) = %v, want 2.5", got)
	}
	if _, err := NewCDF(clean); err != nil {
		t.Fatalf("NewCDF(clean): %v", err)
	}
}

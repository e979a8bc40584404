package queueing

import (
	"errors"
	"math"
	"testing"
)

// TestHostileRates drives every closed form over hostile rate inputs:
// NaN, ±Inf, zeros, and negatives must all be rejected with a
// descriptive error, never silently propagated. The NaN rows are the
// regression cases for the comparison-only guard this suite replaced
// (`NaN <= 0` and `NaN >= mu` are both false, so NaN used to sail
// through checkStable and poison the result).
func TestHostileRates(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name       string
		lambda, mu float64
	}{
		{"nan lambda", nan, 1000},
		{"nan mu", 500, nan},
		{"both nan", nan, nan},
		{"+inf lambda", inf, 1000},
		{"-inf lambda", -inf, 1000},
		{"+inf mu", 500, inf},
		{"-inf mu", 500, -inf},
		{"zero lambda", 0, 1000},
		{"zero mu", 500, 0},
		{"negative lambda", -1, 1000},
		{"negative mu", 500, -1},
		{"unstable equal", 1000, 1000},
		{"unstable over", 1500, 1000},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			check := func(fn string, v float64, err error) {
				t.Helper()
				if err == nil {
					t.Errorf("%s(%v, %v) accepted hostile input (returned %v)", fn, tc.lambda, tc.mu, v)
					return
				}
				if err.Error() == "" {
					t.Errorf("%s: empty error message", fn)
				}
			}
			v, err := MM1MeanSojourn(tc.lambda, tc.mu)
			check("MM1MeanSojourn", v, err)
			v, err = KingmanGG1Wait(tc.lambda, tc.mu, 1, 1)
			check("KingmanGG1Wait", v, err)
			if tc.name != "unstable equal" && tc.name != "unstable over" {
				// MM1KBlocking is defined for rho >= 1 (finite queues
				// always have a steady state), so only the non-finite and
				// non-positive rows are hostile to it.
				v, err = MM1KBlocking(tc.lambda, tc.mu, 4)
				check("MM1KBlocking", v, err)
			}
		})
	}
}

// TestHostileSCV: NaN, Inf, and negative squared coefficients of
// variation must be rejected by the general-service form.
func TestHostileSCV(t *testing.T) {
	for _, scv := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
		if v, err := KingmanGG1Wait(500, 1000, scv, 0); err == nil {
			t.Errorf("KingmanGG1Wait accepted Ca² %v (returned %v)", scv, v)
		}
		if v, err := KingmanGG1Wait(500, 1000, 1, scv); err == nil {
			t.Errorf("KingmanGG1Wait accepted Cs² %v (returned %v)", scv, v)
		}
	}
}

// TestUnstableIsTyped: saturation must surface as ErrUnstable so the
// serving layer's degradation ladder can match on it.
func TestUnstableIsTyped(t *testing.T) {
	_, err := KingmanGG1Wait(1000, 1000, 1, 1)
	if !errors.Is(err, ErrUnstable) {
		t.Fatalf("saturated Kingman error %v, want ErrUnstable", err)
	}
	_, err = MM1MeanSojourn(2000, 1000)
	if !errors.Is(err, ErrUnstable) {
		t.Fatalf("saturated M/M/1 error %v, want ErrUnstable", err)
	}
	// A stable queue must not read as unstable.
	if _, err := MM1MeanSojourn(500, 1000); err != nil {
		t.Fatalf("stable queue rejected: %v", err)
	}
}

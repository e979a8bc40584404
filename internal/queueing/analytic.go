package queueing

import (
	"errors"
	"fmt"
	"math"
)

// Closed-form single-queue results used to cross-validate both the DES
// and the LDQBD solver. All take arrival rate lambda and service rate mu
// in packets/second.

// MM1MeanSojourn returns E[T] = 1/(µ−λ) for the M/M/1 queue.
func MM1MeanSojourn(lambda, mu float64) (float64, error) {
	if err := checkStable(lambda, mu); err != nil {
		return 0, err
	}
	return 1 / (mu - lambda), nil
}

// MM1KBlocking returns the Erlang loss of the finite M/M/1/K queue:
// P(N = K) = (1−ρ)ρᴷ / (1−ρ^{K+1}) (ρ ≠ 1), the probability an arrival
// is dropped.
func MM1KBlocking(lambda, mu float64, k int) (float64, error) {
	if err := checkRates(lambda, mu); err != nil {
		return 0, err
	}
	if k < 1 {
		return 0, errors.New("queueing: capacity must be >= 1")
	}
	rho := lambda / mu
	if math.Abs(rho-1) < 1e-12 {
		return 1 / float64(k+1), nil
	}
	return (1 - rho) * math.Pow(rho, float64(k)) / (1 - math.Pow(rho, float64(k+1))), nil
}

// KingmanGG1Wait returns Kingman's heavy-traffic approximation of the
// G/G/1 mean wait: W ≈ ρ/(1−ρ) · (Ca²+Cs²)/2 · 1/µ.
// The analytic tier calls it once per loaded port per estimate, so the
// valid case is one comparison chain (NaN fails every comparison) and
// the checks run only to name what is wrong.
func KingmanGG1Wait(lambda, mu, ca2, cs2 float64) (float64, error) {
	if !(lambda > 0 && lambda < mu && mu <= math.MaxFloat64 &&
		ca2 >= 0 && ca2 <= math.MaxFloat64 && cs2 >= 0 && cs2 <= math.MaxFloat64) {
		if err := checkStable(lambda, mu); err != nil {
			return 0, err
		}
		if err := checkSCV(ca2); err != nil {
			return 0, err
		}
		return 0, checkSCV(cs2)
	}
	rho := lambda / mu
	return rho / (1 - rho) * (ca2 + cs2) / 2 / mu, nil
}

// ErrUnstable marks a queue whose arrival rate meets or exceeds its
// service rate: no steady state exists and every closed form diverges.
// The serving layer (internal/serve) matches on it to answer such a
// scenario 422 "unstable" rather than as a server fault.
var ErrUnstable = errors.New("queueing: unstable (lambda >= mu)")

// checkRates validates that both rates are finite and strictly
// positive. NaN must be rejected explicitly: `NaN <= 0` and `NaN >= mu`
// are both false, so a plain comparison-based guard would silently
// accept a NaN rate and propagate it through every closed form.
func checkRates(lambda, mu float64) error {
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return fmt.Errorf("queueing: arrival rate is not finite (lambda = %v)", lambda)
	}
	if math.IsNaN(mu) || math.IsInf(mu, 0) {
		return fmt.Errorf("queueing: service rate is not finite (mu = %v)", mu)
	}
	if lambda <= 0 {
		return fmt.Errorf("queueing: arrival rate must be positive (lambda = %v)", lambda)
	}
	if mu <= 0 {
		return fmt.Errorf("queueing: service rate must be positive (mu = %v)", mu)
	}
	return nil
}

// checkSCV validates a squared coefficient of variation: finite and
// non-negative (same NaN caveat as checkRates).
func checkSCV(scv float64) error {
	if math.IsNaN(scv) || math.IsInf(scv, 0) || scv < 0 {
		return fmt.Errorf("queueing: SCV must be finite and non-negative (got %v)", scv)
	}
	return nil
}

// checkStable is checkRates plus the stability condition lambda < mu.
func checkStable(lambda, mu float64) error {
	if err := checkRates(lambda, mu); err != nil {
		return err
	}
	if lambda >= mu {
		return fmt.Errorf("%w: lambda %v, mu %v", ErrUnstable, lambda, mu)
	}
	return nil
}

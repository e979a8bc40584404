package traffic

import (
	"errors"
	"fmt"
	"math"

	"deepqueuenet/internal/linalg"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/rng"
)

// MAP is a Markovian arrival process with rate matrices D0 (transitions
// without arrivals) and D1 (transitions with one arrival); D0+D1 is the
// generator of the underlying CTMC (Appendix A.1).
type MAP struct {
	D0, D1 [][]float64
}

// ExampleMAP2 is the MAP(2) representation from Appendix B.3 (mean rate
// 4800 packets/s).
func ExampleMAP2() *MAP {
	return &MAP{
		D0: [][]float64{{-12000, 0}, {0, -3000}},
		D1: [][]float64{{3600, 8400}, {2100, 900}},
	}
}

// PoissonMAP returns the 1-state MAP equivalent to a Poisson process.
func PoissonMAP(rate float64) *MAP {
	return &MAP{D0: [][]float64{{-rate}}, D1: [][]float64{{rate}}}
}

// States returns the CTMC state count M.
func (m *MAP) States() int { return len(m.D0) }

// Validate checks the structural MAP constraints: D0 off-diagonals and
// all of D1 non-negative, D0 diagonal negative, zero row sums of D0+D1.
func (m *MAP) Validate() error {
	n := len(m.D0)
	if n == 0 || len(m.D1) != n {
		return errors.New("traffic: MAP matrices must be square and same size")
	}
	for i := 0; i < n; i++ {
		if len(m.D0[i]) != n || len(m.D1[i]) != n {
			return errors.New("traffic: MAP matrices must be square")
		}
		sum := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				if m.D0[i][j] >= 0 {
					return fmt.Errorf("traffic: D0[%d][%d] must be negative", i, j)
				}
			} else if m.D0[i][j] < 0 {
				return fmt.Errorf("traffic: D0[%d][%d] must be non-negative", i, j)
			}
			if m.D1[i][j] < 0 {
				return fmt.Errorf("traffic: D1[%d][%d] must be non-negative", i, j)
			}
			sum += m.D0[i][j] + m.D1[i][j]
		}
		if math.Abs(sum) > 1e-6*math.Abs(m.D0[i][i]) {
			return fmt.Errorf("traffic: row %d of D0+D1 sums to %g, want 0", i, sum)
		}
	}
	return nil
}

// Stationary returns π, the stationary distribution of the CTMC D0+D1.
func (m *MAP) Stationary() ([]float64, error) {
	return linalg.StationaryCTMC(linalg.Add(m.D0, m.D1))
}

// Rate returns the mean arrival rate λ = π·D1·1.
func (m *MAP) Rate() (float64, error) {
	pi, err := m.Stationary()
	if err != nil {
		return 0, err
	}
	ones := make([]float64, m.States())
	for i := range ones {
		ones[i] = 1
	}
	return linalg.Dot(linalg.VecMat(pi, m.D1), ones), nil
}

// ArrivalStationary returns π_a, the stationary phase distribution at
// arrival epochs: the stationary vector of P = (−D0)⁻¹·D1.
func (m *MAP) ArrivalStationary() ([]float64, error) {
	p, err := m.phaseMatrix()
	if err != nil {
		return nil, err
	}
	return linalg.StationaryDTMC(p)
}

// phaseMatrix returns P = (−D0)⁻¹·D1, the phase-transition matrix
// embedded at arrivals.
func (m *MAP) phaseMatrix() ([][]float64, error) {
	negD0 := linalg.Scale(m.D0, -1)
	inv, err := linalg.Inverse(negD0)
	if err != nil {
		return nil, err
	}
	return linalg.Mul(inv, m.D1), nil
}

// IATCDF returns F(t) = 1 − π_a·e^{D0·t}·1, the inter-arrival-time CDF
// (Appendix A.1).
func (m *MAP) IATCDF(t float64) (float64, error) {
	if t < 0 {
		return 0, nil
	}
	pia, err := m.ArrivalStationary()
	if err != nil {
		return 0, err
	}
	e := linalg.Expm(linalg.Scale(m.D0, t))
	v := linalg.VecMat(pia, e)
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return 1 - sum, nil
}

// IATMoments returns the mean, squared coefficient of variation, and
// lag-1 autocorrelation of the stationary IAT sequence, using the
// matrix-analytic formulas E[X] = π_a·M·1, E[X²] = 2·π_a·M²·1,
// E[X₁X₂] = π_a·M·P·M·1 with M = (−D0)⁻¹.
func (m *MAP) IATMoments() (mean, scv, lag1 float64, err error) {
	pia, err := m.ArrivalStationary()
	if err != nil {
		return 0, 0, 0, err
	}
	M, err := linalg.Inverse(linalg.Scale(m.D0, -1))
	if err != nil {
		return 0, 0, 0, err
	}
	P, err := m.phaseMatrix()
	if err != nil {
		return 0, 0, 0, err
	}
	ones := make([]float64, m.States())
	for i := range ones {
		ones[i] = 1
	}
	piaM := linalg.VecMat(pia, M)
	mean = linalg.Dot(piaM, ones)
	ex2 := 2 * linalg.Dot(linalg.VecMat(piaM, M), ones)
	variance := ex2 - mean*mean
	if variance <= 0 {
		return mean, 0, 0, nil
	}
	scv = variance / (mean * mean)
	exy := linalg.Dot(linalg.VecMat(linalg.VecMat(piaM, P), M), ones)
	lag1 = (exy - mean*mean) / variance
	return mean, scv, lag1, nil
}

// Scale returns a MAP whose arrival rate is multiplied by factor (time
// compressed by factor), preserving the process shape.
func (m *MAP) Scale(factor float64) *MAP {
	return &MAP{D0: linalg.Scale(m.D0, factor), D1: linalg.Scale(m.D1, factor)}
}

// SplitClass returns the per-class MAP for a class with arrival
// probability p (Appendix B.1.1): D0' = D0 + (1−p)·D1, D1' = p·D1.
func (m *MAP) SplitClass(p float64) *MAP {
	return &MAP{
		D0: linalg.Add(m.D0, linalg.Scale(m.D1, 1-p)),
		D1: linalg.Scale(m.D1, p),
	}
}

// Sampler generates arrivals from the MAP by simulating the CTMC.
type Sampler struct {
	m     *MAP
	Sizes SizeModel
	R     *rng.Rand
	state int
}

// NewSampler returns a MAP arrival generator starting from the CTMC
// stationary distribution.
func (m *MAP) NewSampler(sizes SizeModel, r *rng.Rand) *Sampler {
	s := &Sampler{m: m, Sizes: sizes, R: r}
	if pi, err := m.Stationary(); err == nil {
		s.state = r.Choice(pi)
	}
	return s
}

// NextArrival implements Generator.
func (s *Sampler) NextArrival() (float64, int) {
	gap := 0.0
	n := s.m.States()
	weights := make([]float64, 2*n)
	for {
		j := s.state
		exitRate := -s.m.D0[j][j]
		gap += s.R.Exp(exitRate)
		// Choose the transition: D0 off-diagonals (no arrival) vs D1.
		for k := 0; k < n; k++ {
			if k == j {
				weights[k] = 0
			} else {
				weights[k] = s.m.D0[j][k]
			}
			weights[n+k] = s.m.D1[j][k]
		}
		c := s.R.Choice(weights)
		if c < n {
			s.state = c
			continue
		}
		s.state = c - n
		return gap, s.Sizes.Next()
	}
}

// FitMAP2 fits a 2-state MAP to observed inter-arrival times by moment
// matching (the "MM method" of Appendix A.1): it matches the sample mean
// and SCV with a balanced-means hyperexponential and then tunes a
// phase-stickiness parameter to match the lag-1 autocorrelation. When the
// sample SCV is ≈1 (Poisson-like) it returns a 1-state MAP.
func FitMAP2(iats []float64) (*MAP, error) {
	if len(iats) < 10 {
		return nil, errors.New("traffic: need at least 10 IAT samples to fit")
	}
	mean := metrics.Mean(iats)
	if mean <= 0 {
		return nil, errors.New("traffic: non-positive mean IAT")
	}
	variance := metrics.Variance(iats)
	scv := variance / (mean * mean)
	if scv <= 1.02 {
		return PoissonMAP(1 / mean), nil
	}
	// Lag-1 autocorrelation of the sample.
	lag1 := 0.0
	if variance > 0 {
		n := len(iats)
		s := 0.0
		for i := 0; i+1 < n; i++ {
			s += (iats[i] - mean) * (iats[i+1] - mean)
		}
		lag1 = s / float64(n-1) / variance
	}
	// Balanced-means H2: p·(1/λ1) = (1−p)·(1/λ2) = mean/2.
	p := 0.5 * (1 + math.Sqrt((scv-1)/(scv+1)))
	l1 := 2 * p / mean
	l2 := 2 * (1 - p) / mean

	build := func(a float64) *MAP {
		// Stickiness a keeps the next IAT in the same phase with extra
		// probability a, producing positive IAT autocorrelation.
		q11 := p + a*(1-p)
		q12 := (1 - p) * (1 - a)
		q21 := p * (1 - a)
		q22 := (1 - p) + a*p
		return &MAP{
			D0: [][]float64{{-l1, 0}, {0, -l2}},
			D1: [][]float64{{l1 * q11, l1 * q12}, {l2 * q21, l2 * q22}},
		}
	}
	if lag1 <= 0 {
		return build(0), nil
	}
	// Binary-search stickiness to match lag-1 autocorrelation.
	lo, hi := 0.0, 0.999
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		_, _, r1, err := build(mid).IATMoments()
		if err != nil {
			hi = mid
			continue
		}
		if r1 < lag1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return build((lo + hi) / 2), nil
}

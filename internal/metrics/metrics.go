// Package metrics implements the statistical measures used in the paper's
// evaluation: the Wasserstein-1 distance and its normalized form w1, the
// Pearson correlation coefficient with a Fisher-z 95% confidence interval,
// percentiles, CDFs, and per-flow jitter extraction.
package metrics

import (
	"errors"
	"math"
	"sort"
)

// hasNaN reports whether xs contains a NaN. NaN breaks sort.Float64s'
// strict weak ordering, so the sorted order — and anything derived from
// it — would depend on the input permutation.
func hasNaN(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// W1 returns the Wasserstein-1 distance between the empirical distributions
// of a and b. For one-dimensional samples the distance equals the L1
// distance between the two quantile functions; when len(a) == len(b) it is
// the mean absolute difference of the sorted samples, and in general it is
// computed by integrating |F_a^-1(q) - F_b^-1(q)| over q in [0, 1].
// Empty inputs and inputs containing NaN yield NaN (a NaN sample would
// otherwise make the result depend on input order via the sort).
func W1(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 || hasNaN(a) || hasNaN(b) {
		return math.NaN()
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	if len(as) == len(bs) {
		sum := 0.0
		for i := range as {
			sum += math.Abs(as[i] - bs[i])
		}
		return sum / float64(len(as))
	}
	// Merge the quantile breakpoints of both samples.
	n, m := len(as), len(bs)
	type bp struct{ q float64 }
	qs := make([]float64, 0, n+m)
	for i := 1; i <= n; i++ {
		qs = append(qs, float64(i)/float64(n))
	}
	for i := 1; i <= m; i++ {
		qs = append(qs, float64(i)/float64(m))
	}
	sort.Float64s(qs)
	dist := 0.0
	prev := 0.0
	for _, q := range qs {
		// qs is sorted, so <= covers exactly the duplicate-quantile case
		// without branching on float equality.
		if q <= prev {
			continue
		}
		mid := (q + prev) / 2
		ia := int(mid * float64(n))
		ib := int(mid * float64(m))
		if ia >= n {
			ia = n - 1
		}
		if ib >= m {
			ib = m - 1
		}
		dist += (q - prev) * math.Abs(as[ia]-bs[ib])
		prev = q
	}
	return dist
}

// NormW1 returns the paper's normalized Wasserstein distance:
//
//	w1 = W1(pred, label) / W1(zeros, label)
//
// i.e. the W1 distance scaled by the distance of the label distribution
// from zero. Lower is better; 0 means the predicted distribution matches
// the ground truth exactly.
func NormW1(pred, label []float64) float64 {
	if len(label) == 0 {
		return math.NaN()
	}
	zeros := make([]float64, len(label))
	denom := W1(zeros, label)
	// W1 is non-negative by construction; <= 0 also absorbs any rounding
	// noise below zero instead of dividing by it.
	if denom <= 0 {
		return math.NaN()
	}
	return W1(pred, label) / denom
}

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns NaN if either slice has zero variance or the lengths differ.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	n := float64(len(x))
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	// Sums of squares are non-negative; <= 0 keeps a degenerate (or
	// cancellation-poisoned) variance out of the denominator without an
	// exact float compare.
	if sxx <= 0 || syy <= 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// PearsonCI returns the Pearson correlation between x and y together with
// a 95% confidence interval computed with the Fisher z-transformation.
func PearsonCI(x, y []float64) (rho, lo, hi float64) {
	rho = Pearson(x, y)
	n := float64(len(x))
	if math.IsNaN(rho) || n < 4 {
		return rho, math.NaN(), math.NaN()
	}
	// Clamp to avoid atanh(±1) = ±Inf for degenerate (perfectly
	// correlated) samples.
	rc := math.Max(-0.9999999, math.Min(0.9999999, rho))
	z := math.Atanh(rc)
	se := 1 / math.Sqrt(n-3)
	const z95 = 1.959963984540054
	lo = math.Tanh(z - z95*se)
	hi = math.Tanh(z + z95*se)
	return rho, lo, hi
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs using linear
// interpolation between order statistics. It returns NaN for empty input
// or input containing NaN (which would make the sort, and hence the
// order statistics, depend on input order).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || hasNaN(xs) {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (NaN if len < 1).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// CDF describes an empirical cumulative distribution function as sorted
// sample points; Eval returns P(X <= x).
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples. Empty samples and
// samples containing NaN are rejected: NaN has no place on a CDF, and
// sorting it yields an order-dependent (nondeterministic) layout.
func NewCDF(samples []float64) (*CDF, error) {
	if len(samples) == 0 {
		return nil, errors.New("metrics: empty sample for CDF")
	}
	if hasNaN(samples) {
		return nil, errors.New("metrics: NaN sample for CDF")
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}, nil
}

// Eval returns the empirical probability P(X <= x).
func (c *CDF) Eval(x float64) float64 {
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (q in [0,1]) of the CDF.
func (c *CDF) Quantile(q float64) float64 {
	return Percentile(c.sorted, q*100)
}

// Jitter returns the per-packet jitter series for an ordered sequence of
// per-packet delays belonging to one flow: |d_i - d_{i-1}|.
func Jitter(delays []float64) []float64 {
	if len(delays) < 2 {
		return nil
	}
	out := make([]float64, 0, len(delays)-1)
	for i := 1; i < len(delays); i++ {
		out = append(out, math.Abs(delays[i]-delays[i-1]))
	}
	return out
}

// Summary bundles the four statistics reported throughout the paper's
// evaluation tables (path-wise normalized w1): the distributions, across
// paths, of per-path average RTT, p99 RTT, average jitter, and p99
// jitter, each compared to ground truth with NormW1.
type Summary struct {
	AvgRTTW1    float64
	P99RTTW1    float64
	AvgJitterW1 float64
	P99JitterW1 float64
}

// PathStats are the per-path summary statistics a predictor reports.
// DeepQueueNet and the DES derive them from packet samples; RouteNet
// predicts them directly (it has no packet-level visibility).
type PathStats struct {
	AvgRTT    float64
	P99RTT    float64
	AvgJitter float64
	P99Jitter float64
}

// PathSamples groups per-path delay samples, keyed by an opaque path ID.
type PathSamples map[string][]float64

// Stats reduces per-path samples to per-path summary statistics.
func (ps PathSamples) Stats() map[string]PathStats {
	out := make(map[string]PathStats, len(ps))
	for k, v := range ps {
		if len(v) == 0 {
			continue
		}
		j := Jitter(v)
		st := PathStats{AvgRTT: Mean(v), P99RTT: Percentile(v, 99)}
		if len(j) > 0 {
			st.AvgJitter = Mean(j)
			st.P99Jitter = Percentile(j, 99)
		}
		out[k] = st
	}
	return out
}

// SortedPaths returns the path IDs of m in ascending order: path maps
// are reduced in this order, so a table is a pure function of its
// inputs rather than of Go's randomized map iteration.
func SortedPaths[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CompareStats computes the paper's path-wise normalized w1 summary from
// per-path statistics. Paths present in only one map are ignored.
func CompareStats(pred, truth map[string]PathStats) Summary {
	var pa, ta, p9, t9, pj, tj, pj9, tj9 []float64
	for _, k := range SortedPaths(truth) {
		tv := truth[k]
		pv, ok := pred[k]
		if !ok {
			continue
		}
		pa = append(pa, pv.AvgRTT)
		ta = append(ta, tv.AvgRTT)
		p9 = append(p9, pv.P99RTT)
		t9 = append(t9, tv.P99RTT)
		pj = append(pj, pv.AvgJitter)
		tj = append(tj, tv.AvgJitter)
		pj9 = append(pj9, pv.P99Jitter)
		tj9 = append(tj9, tv.P99Jitter)
	}
	return Summary{
		AvgRTTW1:    NormW1(pa, ta),
		P99RTTW1:    NormW1(p9, t9),
		AvgJitterW1: NormW1(pj, tj),
		P99JitterW1: NormW1(pj9, tj9),
	}
}

// Compare computes the path-wise summary between predicted and
// ground-truth per-path delay samples.
func Compare(pred, truth PathSamples) Summary {
	return CompareStats(pred.Stats(), truth.Stats())
}

// PearsonPathwise returns the Pearson correlation (with 95% CI) between
// predicted and ground-truth per-path average RTTs — the Appendix C
// metric (Tables 8–10). The stat selector picks which statistic to
// correlate.
func PearsonPathwise(pred, truth map[string]PathStats, stat func(PathStats) float64) (rho, lo, hi float64) {
	var xs, ys []float64
	for _, k := range SortedPaths(truth) {
		tv := truth[k]
		pv, ok := pred[k]
		if !ok {
			continue
		}
		xs = append(xs, stat(pv))
		ys = append(ys, stat(tv))
	}
	return PearsonCI(xs, ys)
}

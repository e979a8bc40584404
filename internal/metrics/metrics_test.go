package metrics

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"deepqueuenet/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestW1Identity(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if d := W1(a, a); d != 0 {
		t.Fatalf("W1(a,a) = %v, want 0", d)
	}
}

func TestW1Shift(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{3, 4, 5, 6}
	if d := W1(a, b); !almostEq(d, 2, 1e-12) {
		t.Fatalf("W1 shift = %v, want 2", d)
	}
}

func TestW1Symmetric(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(50)
		m := 5 + r.Intn(50)
		a := make([]float64, n)
		b := make([]float64, m)
		for i := range a {
			a[i] = r.Normal(0, 1)
		}
		for i := range b {
			b[i] = r.Normal(1, 2)
		}
		return almostEq(W1(a, b), W1(b, a), 1e-9)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestW1TriangleInequality(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(20)
		gen := func(mu float64) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.Normal(mu, 1)
			}
			return xs
		}
		a, b, c := gen(0), gen(2), gen(5)
		return W1(a, c) <= W1(a, b)+W1(b, c)+1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestW1UnequalLengths(t *testing.T) {
	// Same empirical distribution expressed with repetition.
	a := []float64{1, 2}
	b := []float64{1, 1, 2, 2}
	if d := W1(a, b); !almostEq(d, 0, 1e-12) {
		t.Fatalf("W1 equal distributions = %v, want 0", d)
	}
}

func TestNormW1PerfectPrediction(t *testing.T) {
	label := []float64{2, 4, 6, 8}
	if w := NormW1(label, label); w != 0 {
		t.Fatalf("NormW1 perfect = %v", w)
	}
	// Predicting all zeros gives exactly 1 by construction.
	if w := NormW1(make([]float64, 4), label); !almostEq(w, 1, 1e-12) {
		t.Fatalf("NormW1 zeros = %v, want 1", w)
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if rho := Pearson(x, y); !almostEq(rho, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", rho)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if rho := Pearson(x, neg); !almostEq(rho, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", rho)
	}
}

func TestPearsonUncorrelated(t *testing.T) {
	r := rng.New(5)
	n := 20000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.Normal(0, 1)
		y[i] = r.Normal(0, 1)
	}
	if rho := Pearson(x, y); math.Abs(rho) > 0.03 {
		t.Fatalf("Pearson independent = %v, want ~0", rho)
	}
}

func TestPearsonCIOrdering(t *testing.T) {
	r := rng.New(9)
	n := 500
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.Normal(0, 1)
		y[i] = x[i] + r.Normal(0, 0.5)
	}
	rho, lo, hi := PearsonCI(x, y)
	if !(lo <= rho && rho <= hi) {
		t.Fatalf("CI [%v,%v] does not bracket rho %v", lo, hi, rho)
	}
	if hi-lo <= 0 || hi-lo > 0.3 {
		t.Fatalf("CI width %v implausible for n=%d", hi-lo, n)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 10 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(xs, 50); !almostEq(p, 5.5, 1e-12) {
		t.Fatalf("p50 = %v, want 5.5", p)
	}
}

func TestPercentileMonotone(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(0, 10)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCDF(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if v := c.Eval(0); v != 0 {
		t.Fatalf("F(0) = %v", v)
	}
	if v := c.Eval(2); !almostEq(v, 0.75, 1e-12) {
		t.Fatalf("F(2) = %v, want 0.75", v)
	}
	if v := c.Eval(10); v != 1 {
		t.Fatalf("F(10) = %v", v)
	}
}

func TestCDFEmpty(t *testing.T) {
	if _, err := NewCDF(nil); err == nil {
		t.Fatal("expected error for empty CDF")
	}
}

func TestJitter(t *testing.T) {
	d := []float64{1, 3, 2, 2}
	j := Jitter(d)
	want := []float64{2, 1, 0}
	if len(j) != len(want) {
		t.Fatalf("jitter len %d", len(j))
	}
	for i := range want {
		if j[i] != want[i] {
			t.Fatalf("jitter[%d] = %v, want %v", i, j[i], want[i])
		}
	}
	if Jitter([]float64{1}) != nil {
		t.Fatal("jitter of single sample should be nil")
	}
}

func TestCompareIdentical(t *testing.T) {
	ps := PathSamples{
		"a": {1, 2, 3, 4, 5},
		"b": {2, 3, 4, 5, 6},
	}
	s := Compare(ps, ps)
	if s.AvgRTTW1 != 0 || s.P99RTTW1 != 0 || s.AvgJitterW1 != 0 || s.P99JitterW1 != 0 {
		t.Fatalf("identical comparison not zero: %+v", s)
	}
}

func TestCompareIgnoresMissingPaths(t *testing.T) {
	truth := PathSamples{"a": {1, 2, 3}, "missing": {9, 9, 9}}
	pred := PathSamples{"a": {1, 2, 3}}
	s := Compare(pred, truth)
	if s.AvgRTTW1 != 0 {
		t.Fatalf("missing path affected result: %+v", s)
	}
}

// TestPearsonPathwiseSameBits: the correlation's sums run over the
// paths in one fixed order, so repeated calls on the same 64-path maps
// return the same bits (ranging over the maps gave a different order,
// and different last bits, on almost every call).
func TestPearsonPathwiseSameBits(t *testing.T) {
	r := rng.New(5)
	pred, truth := map[string]PathStats{}, map[string]PathStats{}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("p%02d", i)
		truth[k] = PathStats{AvgRTT: r.Uniform(1e-6, 1e-3)}
		pred[k] = PathStats{AvgRTT: truth[k].AvgRTT * r.Uniform(0.5, 1.5)}
	}
	avg := func(s PathStats) float64 { return s.AvgRTT }
	rho0, lo0, hi0 := PearsonPathwise(pred, truth, avg)
	for call := 1; call < 20; call++ {
		rho, lo, hi := PearsonPathwise(pred, truth, avg)
		if math.Float64bits(rho) != math.Float64bits(rho0) || math.Float64bits(lo) != math.Float64bits(lo0) ||
			math.Float64bits(hi) != math.Float64bits(hi0) {
			t.Fatalf("call %d: (%v, %v, %v), first call (%v, %v, %v)", call, rho, lo, hi, rho0, lo0, hi0)
		}
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("variance = %v", v)
	}
}

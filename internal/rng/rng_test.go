package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	rate := 4.0
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	mean := sum / float64(n)
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("exp mean %v, want %v", mean, 1/rate)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(17)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(3, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("normal mean %v, want 3", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("normal variance %v, want 4", variance)
	}
}

func TestParetoMinimum(t *testing.T) {
	r := New(29)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(1.5, 2); v < 1.5 {
			t.Fatalf("pareto below xm: %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(31)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	r := New(37)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[r.Choice(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio %v, want ~3", ratio)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(41)
	child := parent.Split()
	// The child stream should not reproduce the parent stream.
	p2 := New(41)
	p2.Uint64() // advance past the Split draw
	match := 0
	for i := 0; i < 100; i++ {
		if child.Uint64() == p2.Uint64() {
			match++
		}
	}
	if match > 0 {
		t.Fatalf("split stream matches parent %d times", match)
	}
}

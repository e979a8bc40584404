package traffic

import (
	"bytes"
	"math"
	"testing"

	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/pcap"
	"deepqueuenet/internal/rng"
)

func collectIATs(g Generator, n int) ([]float64, []int) {
	gaps := make([]float64, n)
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		gaps[i], sizes[i] = g.NextArrival()
	}
	return gaps, sizes
}

func TestPoissonRateAndSCV(t *testing.T) {
	r := rng.New(1)
	g := NewPoisson(1000, ConstSize(500), r)
	gaps, sizes := collectIATs(g, 100000)
	mean := metrics.Mean(gaps)
	if math.Abs(mean-0.001) > 5e-5 {
		t.Fatalf("poisson mean IAT %v", mean)
	}
	scv := metrics.Variance(gaps) / (mean * mean)
	if math.Abs(scv-1) > 0.05 {
		t.Fatalf("poisson SCV %v, want ~1", scv)
	}
	for _, s := range sizes {
		if s != 500 {
			t.Fatalf("size %d", s)
		}
	}
}

func TestOnOffBurstyAndCalibrated(t *testing.T) {
	r := rng.New(2)
	g := NewGenerator(ModelOnOff, 0.5, 1e9, ConstSize(1000), r)
	pps, _ := MeasuredRate(g, 200000)
	want := PacketRateFor(0.5, 1e9, 1000)
	if math.Abs(pps-want)/want > 0.08 {
		t.Fatalf("onoff rate %v, want %v", pps, want)
	}
	gaps, _ := collectIATs(g, 100000)
	mean := metrics.Mean(gaps)
	scv := metrics.Variance(gaps) / (mean * mean)
	if scv < 1.2 {
		t.Fatalf("onoff SCV %v, expected burstier than Poisson", scv)
	}
}

func TestMAPValidation(t *testing.T) {
	if err := (&MAP{D0: [][]float64{{-1, 2}}, D1: [][]float64{{1}}}).Validate(); err == nil {
		t.Fatal("expected shape error")
	}
	// Row sums must be zero.
	if err := (&MAP{D0: [][]float64{{-5}}, D1: [][]float64{{4}}}).Validate(); err == nil {
		t.Fatal("expected row-sum error")
	}
	if err := ExampleMAP2().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExampleMAP2Rate(t *testing.T) {
	m := ExampleMAP2()
	rate, err := m.Rate()
	if err != nil {
		t.Fatal(err)
	}
	// Appendix B.3: average 4800 packets/s.
	if math.Abs(rate-4800) > 1 {
		t.Fatalf("MAP(2) rate %v, want 4800", rate)
	}
	mean, scv, _, err := m.IATMoments()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-1/4800.0)/mean > 1e-9 {
		t.Fatalf("IAT mean %v, want %v", mean, 1/4800.0)
	}
	if scv <= 1 {
		t.Fatalf("MAP(2) SCV %v, expected bursty (>1)", scv)
	}
}

func TestMAPSamplerMatchesTheory(t *testing.T) {
	m := ExampleMAP2()
	r := rng.New(3)
	s := m.NewSampler(ConstSize(1426), r)
	gaps, _ := collectIATs(s, 300000)
	mean := metrics.Mean(gaps)
	theoMean, theoSCV, _, _ := m.IATMoments()
	if math.Abs(mean-theoMean)/theoMean > 0.02 {
		t.Fatalf("sampled mean %v, theory %v", mean, theoMean)
	}
	scv := metrics.Variance(gaps) / (mean * mean)
	if math.Abs(scv-theoSCV)/theoSCV > 0.1 {
		t.Fatalf("sampled SCV %v, theory %v", scv, theoSCV)
	}
}

func TestIATCDFMonotoneAndMatchesSample(t *testing.T) {
	m := ExampleMAP2()
	r := rng.New(4)
	s := m.NewSampler(ConstSize(100), r)
	gaps, _ := collectIATs(s, 100000)
	emp, err := metrics.NewCDF(gaps)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, q := range []float64{0.25, 0.5, 0.75, 0.9} {
		x := emp.Quantile(q)
		f, err := m.IATCDF(x)
		if err != nil {
			t.Fatal(err)
		}
		if f < prev {
			t.Fatalf("CDF not monotone at %v", x)
		}
		prev = f
		if math.Abs(f-q) > 0.02 {
			t.Fatalf("analytic CDF(%v) = %v, empirical %v", x, f, q)
		}
	}
	if f, _ := m.IATCDF(0); math.Abs(f) > 1e-9 {
		t.Fatalf("F(0) = %v", f)
	}
	if f, _ := m.IATCDF(1); f < 0.999 {
		t.Fatalf("F(1s) = %v", f)
	}
}

func TestMAPScale(t *testing.T) {
	m := ExampleMAP2().Scale(2)
	rate, err := m.Rate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rate-9600) > 1 {
		t.Fatalf("scaled rate %v, want 9600", rate)
	}
}

func TestSplitClassRates(t *testing.T) {
	m := ExampleMAP2()
	ps := []float64{0.2, 0.3, 0.5}
	total := 0.0
	for _, p := range ps {
		sub := m.SplitClass(p)
		if err := sub.Validate(); err != nil {
			t.Fatal(err)
		}
		r, err := sub.Rate()
		if err != nil {
			t.Fatal(err)
		}
		want := 4800 * p
		if math.Abs(r-want) > 1 {
			t.Fatalf("class rate %v, want %v", r, want)
		}
		total += r
	}
	if math.Abs(total-4800) > 1 {
		t.Fatalf("split rates sum %v", total)
	}
}

func TestFitMAP2Poisson(t *testing.T) {
	r := rng.New(5)
	iats := make([]float64, 50000)
	for i := range iats {
		iats[i] = r.Exp(2000)
	}
	m, err := FitMAP2(iats)
	if err != nil {
		t.Fatal(err)
	}
	if m.States() != 1 {
		t.Fatalf("Poisson data fit with %d states, want 1", m.States())
	}
	rate, _ := m.Rate()
	if math.Abs(rate-2000)/2000 > 0.02 {
		t.Fatalf("fit rate %v", rate)
	}
}

func TestFitMAP2Bursty(t *testing.T) {
	// Generate from a known bursty MAP, refit, compare moments.
	src := ExampleMAP2()
	r := rng.New(6)
	s := src.NewSampler(ConstSize(1), r)
	iats, _ := collectIATs(s, 200000)
	fit, err := FitMAP2(iats)
	if err != nil {
		t.Fatal(err)
	}
	if fit.States() != 2 {
		t.Fatalf("bursty fit states %d", fit.States())
	}
	wm, wscv, wl1, _ := src.IATMoments()
	gm, gscv, gl1, _ := fit.IATMoments()
	if math.Abs(gm-wm)/wm > 0.03 {
		t.Fatalf("fit mean %v, want %v", gm, wm)
	}
	if math.Abs(gscv-wscv)/wscv > 0.15 {
		t.Fatalf("fit SCV %v, want %v", gscv, wscv)
	}
	if wl1 > 0.02 && math.Abs(gl1-wl1) > 0.05 {
		t.Fatalf("fit lag1 %v, want %v", gl1, wl1)
	}
}

func TestFitMAP2Errors(t *testing.T) {
	if _, err := FitMAP2([]float64{1, 2}); err == nil {
		t.Fatal("expected error for tiny sample")
	}
}

func TestSuperposeRateAdds(t *testing.T) {
	r := rng.New(7)
	g := NewSuperpose(
		NewPoisson(1000, ConstSize(100), r.Split()),
		NewPoisson(3000, ConstSize(100), r.Split()),
	)
	pps, _ := MeasuredRate(g, 100000)
	if math.Abs(pps-4000)/4000 > 0.03 {
		t.Fatalf("superposed rate %v, want 4000", pps)
	}
}

func TestBCLikeCalibration(t *testing.T) {
	r := rng.New(8)
	g := NewBCLike(16, 10000, r)
	pps, _ := MeasuredRate(g, 300000)
	if math.Abs(pps-10000)/10000 > 0.25 {
		t.Fatalf("BC-like rate %v, want ~10000", pps)
	}
	// Self-similar traffic shows over-dispersed counts at coarse
	// timescales: the index of dispersion of counts (IDC) over 100 ms
	// windows must far exceed the Poisson value of 1.
	gaps, _ := collectIATs(g, 300000)
	const win = 0.1
	var counts []float64
	now, next, c := 0.0, win, 0.0
	for _, gp := range gaps {
		now += gp
		for now >= next {
			counts = append(counts, c)
			c = 0
			next += win
		}
		c++
	}
	idc := metrics.Variance(counts) / metrics.Mean(counts)
	if idc < 3 {
		t.Fatalf("BC-like IDC %v over %vs windows, expected >> 1", idc, win)
	}
}

func TestAnarchyLikeCalibration(t *testing.T) {
	r := rng.New(9)
	g := NewAnarchyLike(5000, r)
	pps, _ := MeasuredRate(g, 300000)
	if math.Abs(pps-5000)/5000 > 0.3 {
		t.Fatalf("anarchy-like rate %v, want ~5000", pps)
	}
}

func TestReplay(t *testing.T) {
	g := NewReplay([]float64{1, 2}, []int{10, 20}, false)
	if gap, size := g.NextArrival(); gap != 1 || size != 10 {
		t.Fatal("replay first")
	}
	if gap, size := g.NextArrival(); gap != 2 || size != 20 {
		t.Fatal("replay second")
	}
	if gap, _ := g.NextArrival(); gap < 1e29 {
		t.Fatal("exhausted non-cyclic replay should stop")
	}
	c := NewReplay([]float64{1}, []int{5}, true)
	for i := 0; i < 5; i++ {
		if gap, size := c.NextArrival(); gap != 1 || size != 5 {
			t.Fatal("cyclic replay")
		}
	}
}

func TestSizeModels(t *testing.T) {
	r := rng.New(10)
	u := &UniformSize{Lo: 100, Hi: 200, R: r}
	for i := 0; i < 1000; i++ {
		if s := u.Next(); s < 100 || s > 200 {
			t.Fatalf("uniform size %d", s)
		}
	}
	b := &BimodalSize{Small: 64, Large: 1500, PSmall: 0.4, R: r}
	small := 0
	for i := 0; i < 100000; i++ {
		if b.Next() == 64 {
			small++
		}
	}
	if math.Abs(float64(small)/100000-0.4) > 0.02 {
		t.Fatalf("bimodal PSmall %v", float64(small)/100000)
	}
	if math.Abs(b.Mean()-(0.4*64+0.6*1500)) > 1e-9 {
		t.Fatalf("bimodal mean %v", b.Mean())
	}
}

func TestNewGeneratorAllModelsCalibrated(t *testing.T) {
	for _, m := range []Model{ModelPoisson, ModelOnOff, ModelMAP, ModelBCLike, ModelAnarchyLike} {
		r := rng.New(uint64(20 + m))
		sizes := ConstSize(1000)
		g := NewGenerator(m, 0.4, 1e9, sizes, r)
		pps, _ := MeasuredRate(g, 200000)
		want := PacketRateFor(0.4, 1e9, 1000)
		tol := 0.1
		if m == ModelBCLike || m == ModelAnarchyLike {
			tol = 0.3 // heavy tails converge slowly
		}
		if math.Abs(pps-want)/want > tol {
			t.Fatalf("%v rate %v, want %v", m, pps, want)
		}
	}
}

func TestFromPCAP(t *testing.T) {
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := []pcap.Record{
		{Time: 0.0, OrigLen: 100, Data: []byte{1}},
		{Time: 0.001, OrigLen: 200, Data: []byte{2}},
		{Time: 0.004, OrigLen: 300, Data: []byte{3}},
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	g, err := FromPCAP(bytes.NewReader(buf.Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	gap, size := g.NextArrival()
	if gap != 0 || size != 100 {
		t.Fatalf("first arrival %v %d", gap, size)
	}
	gap, size = g.NextArrival()
	if math.Abs(gap-0.001) > 2e-6 || size != 200 {
		t.Fatalf("second arrival %v %d", gap, size)
	}
	if _, err := FromPCAP(bytes.NewReader([]byte("junk header....")), false); err == nil {
		t.Fatal("garbage pcap accepted")
	}
}

func TestHurstPoissonNearHalf(t *testing.T) {
	r := rng.New(31)
	g := NewPoisson(10000, ConstSize(100), r)
	gaps, _ := collectIATs(g, 200000)
	h, err := HurstAV(gaps, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if h < 0.35 || h > 0.65 {
		t.Fatalf("Poisson Hurst %v, want ~0.5", h)
	}
}

func TestHurstBCLikeHigh(t *testing.T) {
	r := rng.New(32)
	g := NewBCLike(24, 10000, r)
	gaps, _ := collectIATs(g, 400000)
	h, err := HurstAV(gaps, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if h < 0.65 {
		t.Fatalf("BC-like Hurst %v, want self-similar (>= 0.65)", h)
	}
}

func TestHurstErrors(t *testing.T) {
	if _, err := HurstAV([]float64{1, 2}, 0.1); err == nil {
		t.Fatal("tiny sample accepted")
	}
	gaps := make([]float64, 2000)
	for i := range gaps {
		gaps[i] = 0.001
	}
	if _, err := HurstAV(gaps, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "ops")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//dqnlint:allow goguard concurrency hammer: a worker panic crashes the test binary, the failure signal this race test wants
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if v, ok := reg.Value("test_ops_total"); !ok || v != workers*per {
		t.Fatalf("registry Value = %v,%v", v, ok)
	}
	// An unknown family takes Value's early return; registering another
	// family right after must find the registry lock free.
	if v, ok := reg.Value("test_missing_total"); ok || v != 0 {
		t.Fatalf("registry Value of an unknown family = %v,%v, want 0,false", v, ok)
	}
	done := make(chan struct{})
	go func() {
		defer func() {
			if r := recover(); r != nil {
				t.Error(r)
			}
			close(done)
		}()
		reg.Counter("test_after_miss_total", "registered after a Value miss")
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("registry lock still held after Value on an unknown family")
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test_level", "level")
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//dqnlint:allow goguard concurrency hammer: a worker panic crashes the test binary, the failure signal this race test wants
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), float64(workers*per)*0.5; got != want {
		t.Fatalf("gauge = %v, want %v", got, want)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_lat_seconds", "latency", []float64{0.01, 0.1, 1})
	const workers, per = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//dqnlint:allow goguard concurrency hammer: a worker panic crashes the test binary, the failure signal this race test wants
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w%4) * 0.05) // 0, 0.05, 0.10, 0.15
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	// Concurrent CAS addition is order-dependent in the last ULPs;
	// compare with slack.
	want := per * (0 + 0.05 + 0.10 + 0.15) * (workers / 4)
	if got := h.Sum(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %v, want ~%v", got, want)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_h", "h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`test_h_bucket{le="1"} 2`,
		`test_h_bucket{le="2"} 3`,
		`test_h_bucket{le="4"} 4`,
		`test_h_bucket{le="+Inf"} 5`,
		`test_h_count 5`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestHistogramNaNGoesToInfBucket(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_nan", "h", []float64{1})
	h.Observe(0.5)
	h.Observe(math.NaN())
	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2 (NaN must still be counted)", got)
	}
	if got := h.Sum(); got != 0.5 {
		t.Fatalf("sum = %v, want 0.5 (NaN excluded from sum)", got)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `test_nan_bucket{le="+Inf"} 2`) {
		t.Fatalf("NaN not in +Inf bucket:\n%s", b.String())
	}
}

// TestExpositionGolden pins the full output format: HELP/TYPE lines,
// sorted family and series order, canonical label rendering, histogram
// shape. Any byte-level drift in the writer fails here.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz_last_total", "sorts last").Add(3)
	reg.Counter("aa_reqs_total", "requests", L("code", "200"), L("path", "/x")).Add(7)
	reg.Counter("aa_reqs_total", "requests", L("code", "500"), L("path", "/x")).Inc()
	reg.Gauge("mid_depth", "queue depth").Set(2.5)
	h := reg.Histogram("mid_lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_reqs_total requests
# TYPE aa_reqs_total counter
aa_reqs_total{code="200",path="/x"} 7
aa_reqs_total{code="500",path="/x"} 1
# HELP mid_depth queue depth
# TYPE mid_depth gauge
mid_depth 2.5
# HELP mid_lat_seconds latency
# TYPE mid_lat_seconds histogram
mid_lat_seconds_bucket{le="0.1"} 1
mid_lat_seconds_bucket{le="1"} 2
mid_lat_seconds_bucket{le="+Inf"} 3
mid_lat_seconds_sum 5.55
mid_lat_seconds_count 3
# HELP zz_last_total sorts last
# TYPE zz_last_total counter
zz_last_total 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition drift:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	depth := 0
	reg.GaugeFunc("test_depth", "live depth", func() float64 { return float64(depth) })
	depth = 42
	if v, ok := reg.Value("test_depth"); !ok || v != 42 {
		t.Fatalf("GaugeFunc Value = %v,%v, want 42,true", v, ok)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "test_depth 42\n") {
		t.Fatalf("GaugeFunc not rendered:\n%s", b.String())
	}
}

// TestGaugeFuncMayUseRegistry guards the lock discipline: exposition
// must call gauge functions without holding the registry lock, so a fn
// that reads another metric through the registry cannot deadlock.
func TestGaugeFuncMayUseRegistry(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_inner_total", "inner")
	c.Add(5)
	reg.GaugeFunc("test_outer", "outer", func() float64 {
		return float64(c.Value())
	})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "test_outer 5\n") {
		t.Fatalf("gaugeFn snapshot wrong:\n%s", b.String())
	}
}

func TestIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("test_total", "t")
	b := reg.Counter("test_total", "t")
	if a != b {
		t.Fatal("same name+labels must return the same handle")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("handles not aliased")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_total", "t")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	reg.Gauge("test_total", "t")
}

func TestInvalidNamePanics(t *testing.T) {
	reg := NewRegistry()
	for _, bad := range []string{"", "1abc", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q must panic", bad)
				}
			}()
			reg.Counter(bad, "t")
		}()
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_total", "t", L("path", `a"b\c`+"\n")).Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `test_total{path="a\"b\\c\n"} 1`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets(0,...) must panic")
		}
	}()
	ExpBuckets(0, 2, 4)
}

// TestConcurrentRegistrationAndExposition hammers registration, writes,
// and exposition together; run with -race this is the data-race gate
// for the whole kernel.
func TestConcurrentRegistrationAndExposition(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		//dqnlint:allow goguard concurrency hammer: a worker panic crashes the test binary, the failure signal this race test wants
		go func(w int) {
			defer wg.Done()
			names := []string{"test_a_total", "test_b_total", "test_c_total"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				reg.Counter(names[i%len(names)], "t", L("w", "x")).Inc()
				reg.Histogram("test_h", "h", []float64{1, 2}).Observe(float64(i % 3))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

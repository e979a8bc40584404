package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"deepqueuenet/internal/ptm"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("decoding BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, j, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		j := b.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, j, m)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
}

func TestNamesAndUnitsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q is neither higher nor lower", m.Name, m.Better)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; got %+v", endToEnd[0])
	}
	for _, m := range endToEnd[1:] {
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// The result line carries exactly the listed metrics: every name the
// program computes is listed, and every listed name is computed.
func TestResultLineEmitsExactlyTheListedMetrics(t *testing.T) {
	plain := &window{elapsed: time.Second, attempted: 1, ops: []opSample{{latMs: 1, rttMs: 1, tier: "exact"}}}
	traced := &window{elapsed: time.Second, attempted: 1, ops: []opSample{{latMs: 1, rttMs: 1, tier: "exact"}}}
	for _, w := range workloads {
		rep := &report{
			EndToEnd: map[string]float64{"setup_s": 1, "goodput_per_s": 1, "op_p50_ms": 1, "op_p90_ms": 1},
		}
		rep.PerLayer = layerMetrics(&w, rep, plain, traced, nil, &probes{})
		if len(rep.PerLayer) != len(perLayer) {
			t.Errorf("%s: layerMetrics computed %d names, %d are listed", w.Name, len(rep.PerLayer), len(perLayer))
		}
		if len(rep.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end values, %d are listed", w.Name, len(rep.EndToEnd), len(endToEnd))
		}
		for _, traced := range []bool{false, true} {
			line := rep.line(traced)
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line has %d metrics, want %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := line.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or with unit %q", w.Name, traced, m.Name, v.Unit)
				}
			}
			if _, err := json.Marshal(line); err != nil {
				t.Errorf("%s traced=%v: result line does not encode: %v", w.Name, traced, err)
			}
		}
	}
}

// The probes time the four packed GEMMs a window of the shipped
// architecture runs.
func TestGemmShapesOfDefaultArch(t *testing.T) {
	m, err := ptm.New(ptm.DefaultArch, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gemmShapes(m.Net.Specs(), m.TimeSteps)
	if err != nil {
		t.Fatal(err)
	}
	want := []gemmShape{
		{"embed", 32, ptm.NumFeatures, 12, 1},
		{"blstm1", 32, 12, 64, 2},
		{"blstm2", 32, 32, 40, 2},
		{"qkv", 32, 20, 48, 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d shapes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("shape %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	flops, bytes := windowCost(m.Net.Specs(), m.TimeSteps)
	if flops <= 0 || bytes <= 0 {
		t.Errorf("window cost %v flops, %v bytes; want positive", flops, bytes)
	}
}

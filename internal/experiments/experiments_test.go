package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"deepqueuenet/internal/core"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

func TestTopoByName(t *testing.T) {
	cases := map[string]int{ // name -> expected host count
		"line4":          4,
		"line6":          6,
		"torus3x3":       9,
		"fattree16":      16,
		"fattree64":      64,
		"fattree128":     128,
		"abilene":        11,
		"geant":          22,
		"star5":          5,
		"dumbbell3":      6,
		"leafspine4x2x8": 32,
	}
	for name, hosts := range cases {
		g, err := TopoByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := len(g.Hosts()); got != hosts {
			t.Fatalf("%s: %d hosts, want %d", name, got, hosts)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pt, err := parseTopoName(name); err != nil || pt.nodes != g.NumNodes() {
			t.Fatalf("%s: the name counts %d nodes (%v), the builder made %d", name, pt.nodes, err, g.NumNodes())
		}
	}
	for _, bad := range []string{"", "ring5", "lineX", "line1", "torus3", "torusAxB", "leafspine2x2",
		"torus0x3", "torus1x1", "star1", "star-1", "leafspine0x1x1", "dumbbell0", "line2049"} {
		if _, err := TopoByName(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// TestTopoNodesFromTheNameAlone pins the counts of names too large to
// build, including sizes whose node count overflows an int.
func TestTopoNodesFromTheNameAlone(t *testing.T) {
	for name, want := range map[string]int{
		"line20000":                        40000,
		"star100000000":                    100000001,
		"torus100000x100000":               20000000000,
		"leafspine1000x10x1000":            1001010,
		"dumbbell4611686018427387904":      math.MaxInt,
		"torus9223372036854775807x3":       math.MaxInt,
		"leafspine3x9223372036854775807x1": math.MaxInt,
		"torus-3x-3":                       0,
	} {
		if pt, err := parseTopoName(name); err != nil || pt.nodes != want {
			t.Errorf("%s: %d nodes (%v), want %d", name, pt.nodes, err, want)
		}
	}
	for _, bad := range []string{"ring5", "lineX", "torus3", "line99999999999999999999"} {
		if _, err := parseTopoName(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestSchedByName(t *testing.T) {
	c, err := SchedByName("fifo")
	if err != nil || c.Kind != des.FIFO {
		t.Fatalf("fifo: %+v %v", c, err)
	}
	c, err = SchedByName("sp3")
	if err != nil || c.Kind != des.SP || c.Classes != 3 {
		t.Fatalf("sp3: %+v %v", c, err)
	}
	c, err = SchedByName("wfq:5,4")
	if err != nil || c.Kind != des.WFQ || len(c.Weights) != 2 || c.Weights[0] != 5 {
		t.Fatalf("wfq: %+v %v", c, err)
	}
	c, err = SchedByName("drr:1,2,3")
	if err != nil || c.Kind != des.DRR || len(c.Weights) != 3 {
		t.Fatalf("drr: %+v %v", c, err)
	}
	if c, err := SchedByName("sp64"); err != nil || c.Classes != MaxClasses {
		t.Fatalf("sp64: %+v %v", c, err)
	}
	if c, err := SchedByName("wrr:" + strings.Repeat("1,", MaxClasses-1) + "1"); err != nil || len(c.Weights) != MaxClasses {
		t.Fatalf("%d weights: %+v %v", MaxClasses, c, err)
	}
	for _, bad := range []string{"", "lifo", "wfq:", "wfq:0", "wfq:a,b", "wfq:nan", "wfq:inf", "spx", "sp0", "sp-2",
		"sp65", "sp1000000000", "wfq:" + strings.Repeat("1,", MaxClasses) + "1"} {
		if _, err := SchedByName(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestTrafficByName(t *testing.T) {
	for name, want := range map[string]traffic.Model{
		"poisson": traffic.ModelPoisson,
		"onoff":   traffic.ModelOnOff,
		"map":     traffic.ModelMAP,
		"bc":      traffic.ModelBCLike,
		"anarchy": traffic.ModelAnarchyLike,
	} {
		got, err := TrafficByName(name)
		if err != nil || got != want {
			t.Fatalf("%s: %v %v", name, got, err)
		}
	}
	if _, err := TrafficByName("pareto"); err == nil {
		t.Fatal("unknown traffic model accepted")
	}
}

func TestScenarioCalibration(t *testing.T) {
	g := topo.Line(4, topo.DefaultLAN)
	sc, err := NewScenario("t", g, des.SchedConfig{Kind: des.FIFO},
		traffic.ModelPoisson, 0.6, 0.001, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The per-flow load must be scaled down by the worst link sharing,
	// which on a line with permutation traffic exceeds 1.
	if sc.perFlowLoad >= 0.6 {
		t.Fatalf("per-flow load %v not calibrated below target", sc.perFlowLoad)
	}
	if sc.perFlowLoad <= 0 {
		t.Fatalf("per-flow load %v", sc.perFlowLoad)
	}
}

// permutationFlows is the one flow pattern every scenario uses: on each
// named topology it must give every host exactly one flow out and one
// flow in, never to itself, with flow IDs 1..n, and the flows must route.
func TestPermutationFlowsNoSelfFlows(t *testing.T) {
	for _, name := range []string{"line4", "torus3x3", "fattree16", "fattree64", "fattree128",
		"abilene", "geant", "star5", "dumbbell3", "leafspine4x2x8"} {
		g, err := TopoByName(name)
		if err != nil {
			t.Fatal(err)
		}
		hosts := g.Hosts()
		for seed := uint64(0); seed < 20; seed++ {
			flows := permutationFlows(g, seed)
			if len(flows) != len(hosts) {
				t.Fatalf("%s seed %d: %d flows for %d hosts", name, seed, len(flows), len(hosts))
			}
			out, in := map[int]int{}, map[int]int{}
			for i, f := range flows {
				if f.FlowID != i+1 {
					t.Fatalf("%s seed %d: flow %d has ID %d", name, seed, i, f.FlowID)
				}
				if f.Src == f.Dst {
					t.Fatalf("%s seed %d: self flow %+v", name, seed, f)
				}
				out[f.Src]++
				in[f.Dst]++
			}
			for _, h := range hosts {
				if out[h] != 1 || in[h] != 1 {
					t.Fatalf("%s seed %d: host %d sends %d and receives %d flows, want 1 and 1",
						name, seed, h, out[h], in[h])
				}
			}
			if _, err := g.Route(flows); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

func TestScenarioDESvsDQNSampleCountsMatch(t *testing.T) {
	// The DES and DQN runs must see identical packet populations (same
	// generator seeds), so per-path sample counts agree exactly.
	g := topo.Line(3, topo.DefaultLAN)
	sc, err := NewScenario("t", g, des.SchedConfig{Kind: des.FIFO},
		traffic.ModelPoisson, 0.4, 0.0005, 5)
	if err != nil {
		t.Fatal(err)
	}
	truth := sc.RunDES()
	o := Opts{Quick: true, ModelDir: t.TempDir(), Seed: 7}
	model, err := CachedModel(o, "tiny", standardSpec(4, 7, true))
	if err != nil {
		t.Fatal(err)
	}
	pred, _, err := sc.RunDQN(model, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k, tv := range truth {
		if len(pred[k]) != len(tv) {
			t.Fatalf("path %s: DQN %d samples vs DES %d", k, len(pred[k]), len(tv))
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.Add("x", "y")
	tb.Add("long", "z")
	s := tb.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "long") {
		t.Fatalf("render: %q", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("%d lines: %q", len(lines), s)
	}
}

func TestCachedModelRoundTrip(t *testing.T) {
	dir := t.TempDir()
	o := Opts{Quick: true, ModelDir: dir, Seed: 11}
	spec := standardSpec(2, 11, true)
	spec.Streams = 3
	m1, err := CachedModel(o, "cache-test", spec)
	if err != nil {
		t.Fatal(err)
	}
	// Second call must hit the cache (same weights).
	m2, err := CachedModel(o, "cache-test", spec)
	if err != nil {
		t.Fatal(err)
	}
	a := m1.Net.Params()[0].W.Data[0]
	b := m2.Net.Params()[0].W.Data[0]
	if a != b {
		t.Fatal("cache miss: weights differ")
	}
}

func TestRendererTables(t *testing.T) {
	g := []GeneralityRow{{System: "DQN", Traffic: "MAP",
		RhoAvg: 0.99, RhoAvgLo: 0.98, RhoAvgHi: 1.0,
		RhoP99: 0.95, RhoP99Lo: 0.9, RhoP99Hi: 0.97,
		Scatter: [][2]float64{{1e-5, 1.1e-5}}}}
	if s := Table8(g).String(); !strings.Contains(s, "0.990") {
		t.Fatalf("table8 render: %q", s)
	}
	if s := Fig8(g).String(); !strings.Contains(s, "10.00") || !strings.Contains(s, "11.00") {
		t.Fatalf("fig8 render: %q", s)
	}
	tr := []TopoRow{{System: "DQN", Topology: "Line4", RhoAvg: 1}}
	if s := Table9(tr).String(); !strings.Contains(s, "Line4") {
		t.Fatalf("table9 render: %q", s)
	}
	tm := []TMRow{{Config: "2-class SP", RhoAvg: 0.9,
		CDFX: []float64{1e-5}, CDFTruth: []float64{0.5}, CDFPred: []float64{0.4}}}
	if s := Table10(tm).String(); !strings.Contains(s, "2-class SP") {
		t.Fatalf("table10 render: %q", s)
	}
	if s := Fig10(tm).String(); !strings.Contains(s, "0.400") {
		t.Fatalf("fig10 render: %q", s)
	}
}

// TestTable7SpeedupSumsPerSweepCriticalPaths pins Table 7's speedup
// column on hand-made sweeps: total work over the sum of each sweep's
// busiest worker, not over one worker's total across sweeps.
func TestTable7SpeedupSumsPerSweepCriticalPaths(t *testing.T) {
	ms := time.Millisecond
	rec := &sweepRecorder{}
	// Two sweeps reported through the observer, queue order.
	for _, sweep := range [][]time.Duration{{5 * ms, 3 * ms, 2 * ms, 4 * ms}, {6 * ms, 1 * ms, 1 * ms}} {
		for _, d := range sweep {
			rec.ObserveInference(core.InferenceEvent{Duration: d})
		}
		rec.ObserveIteration(core.IterationEvent{})
	}
	// n=2: sweep 1 → (9, 5), sweep 2 → (6, 2): 22 / (9 + 6).
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 1}, {2, 22.0 / 15}, {4, 22.0 / 11}} {
		if got := rec.speedup(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("speedup(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := (&sweepRecorder{}).speedup(2); got != 0 {
		t.Errorf("speedup of no recorded work = %v, want 0", got)
	}
}

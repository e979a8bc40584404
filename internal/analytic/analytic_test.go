package analytic

import (
	"errors"
	"math"
	"testing"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/queueing"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// dumbbell builds h0 — s — h1 with the given rate and delay.
func dumbbell(rateBps, delay float64) (*topo.Graph, []topo.FlowDef, *topo.Routing) {
	g := topo.New()
	h0 := g.AddNode(topo.Host, "h0")
	s := g.AddNode(topo.Switch, "s")
	h1 := g.AddNode(topo.Host, "h1")
	g.Connect(h0, s, rateBps, delay)
	g.Connect(s, h1, rateBps, delay)
	flows := []topo.FlowDef{{FlowID: 1, Src: h0, Dst: h1}}
	rt, err := g.Route(flows)
	if err != nil {
		panic(err)
	}
	return g, flows, rt
}

// TestSingleFlowMatchesClosedForm checks the decomposition by hand on
// the dumbbell: one flow, four loaded egress ports (h0, s→h1 forward;
// h1, s→h0 echo), each an isolated G/G/1 at the same λ and µ.
func TestSingleFlowMatchesClosedForm(t *testing.T) {
	const (
		rate  = 1e9
		delay = 1e-6
		pkt   = 800.0
		lam   = 50000.0 // pps → rho = 0.32
	)
	g, flows, rt := dumbbell(rate, delay)
	est, err := Analyze(Input{G: g, RT: rt, Flows: flows,
		FlowRate: lam, MeanPktBytes: pkt, CA2: 1, CS2: 0})
	if err != nil {
		t.Fatal(err)
	}
	mu := rate / (8 * pkt)
	wait, err := queueing.KingmanGG1Wait(lam, mu, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	perHop := wait + pkt*8/rate + delay
	wantRTT := 4 * perHop // 2 forward legs + 2 echo legs
	if len(est.Paths) != 1 {
		t.Fatalf("%d path estimates, want one per flow (1)", len(est.Paths))
	}
	pe := est.Paths[0]
	if pe.Src != flows[0].Src || pe.Dst != flows[0].Dst {
		t.Fatalf("path estimate for %d->%d, want %d->%d", pe.Src, pe.Dst, flows[0].Src, flows[0].Dst)
	}
	if math.Abs(pe.MeanRTTSec-wantRTT) > 1e-12 {
		t.Errorf("mean RTT %.12g, want %.12g", pe.MeanRTTSec, wantRTT)
	}
	if math.Abs(pe.MeanFwdSec-2*perHop) > 1e-12 {
		t.Errorf("forward mean %.12g, want %.12g", pe.MeanFwdSec, 2*perHop)
	}
	if pe.P99RTTSec < pe.MeanRTTSec {
		t.Errorf("p99 %.12g below mean %.12g", pe.P99RTTSec, pe.MeanRTTSec)
	}
	if math.Abs(est.MaxRho-lam/mu) > 1e-12 {
		t.Errorf("max rho %.6g, want %.6g", est.MaxRho, lam/mu)
	}
	if len(est.Ports()) != 4 {
		t.Errorf("loaded ports %d, want 4", len(est.Ports()))
	}
}

// TestZeroDemandIsDeterministic: with no offered load every wait is
// zero and the estimate is the transmission + propagation sum.
func TestZeroDemandIsDeterministic(t *testing.T) {
	const (
		rate  = 1e9
		delay = 2e-6
		pkt   = 1000.0
	)
	g, flows, rt := dumbbell(rate, delay)
	est, err := Analyze(Input{G: g, RT: rt, Flows: flows,
		FlowRate: 0, MeanPktBytes: pkt, CA2: 1, CS2: 0})
	if err != nil {
		t.Fatal(err)
	}
	pe := est.Paths[0]
	want := 4 * (pkt*8/rate + delay)
	if math.Abs(pe.MeanRTTSec-want) > 1e-15 {
		t.Errorf("zero-demand RTT %.12g, want deterministic %.12g", pe.MeanRTTSec, want)
	}
	if math.Abs(pe.P99RTTSec-want) > 1e-15 {
		t.Errorf("zero-demand p99 %.12g, want %.12g", pe.P99RTTSec, want)
	}
	if pe.WaitRTTSec != 0 || pe.WaitVarSec2 != 0 {
		t.Errorf("zero-demand wait %v var %v, want 0", pe.WaitRTTSec, pe.WaitVarSec2)
	}
}

// TestSaturationIsTypedUnstable: offered load at or beyond capacity
// must surface as ErrUnstable so serve can answer it as 422.
func TestSaturationIsTypedUnstable(t *testing.T) {
	g, flows, rt := dumbbell(1e9, 1e-6)
	mu := 1e9 / (8 * 800.0)
	_, err := Analyze(Input{G: g, RT: rt, Flows: flows,
		FlowRate: mu, MeanPktBytes: 800, CA2: 1, CS2: 0})
	if !errors.Is(err, ErrUnstable) {
		t.Fatalf("saturated network error %v, want ErrUnstable", err)
	}
	_, err = Analyze(Input{G: g, RT: rt, Flows: flows,
		FlowRate: 2 * mu, MeanPktBytes: 800, CA2: 1, CS2: 0})
	if !errors.Is(err, ErrUnstable) {
		t.Fatalf("oversaturated network error %v, want ErrUnstable", err)
	}
}

// TestHostileInputsRejected: non-finite and negative inputs must error,
// never propagate into the estimate.
func TestHostileInputsRejected(t *testing.T) {
	g, flows, rt := dumbbell(1e9, 1e-6)
	base := Input{G: g, RT: rt, Flows: flows, FlowRate: 1000, MeanPktBytes: 800, CA2: 1, CS2: 0}
	mutate := []struct {
		name string
		fn   func(*Input)
	}{
		{"nan rate", func(in *Input) { in.FlowRate = math.NaN() }},
		{"inf rate", func(in *Input) { in.FlowRate = math.Inf(1) }},
		{"negative rate", func(in *Input) { in.FlowRate = -1 }},
		{"nan pkt", func(in *Input) { in.MeanPktBytes = math.NaN() }},
		{"zero pkt", func(in *Input) { in.MeanPktBytes = 0 }},
		{"nan ca2", func(in *Input) { in.CA2 = math.NaN() }},
		{"negative cs2", func(in *Input) { in.CS2 = -0.25 }},
		{"nil topo", func(in *Input) { in.G = nil }},
	}
	for _, tc := range mutate {
		in := base
		tc.fn(&in)
		if est, err := Analyze(in); err == nil {
			t.Errorf("%s: accepted hostile input (est %+v)", tc.name, est)
		}
	}
}

// TestBufferBlocking: a finite buffer reports nonzero blocking on
// loaded ports and zero on an unloaded network.
func TestBufferBlocking(t *testing.T) {
	g, flows, rt := dumbbell(1e9, 1e-6)
	mu := 1e9 / (8 * 800.0)
	est, err := Analyze(Input{G: g, RT: rt, Flows: flows,
		FlowRate: 0.8 * mu, MeanPktBytes: 800, CA2: 1, CS2: 0, Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, err := queueing.MM1KBlocking(0.8*mu, mu, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.MaxBlocking-want) > 1e-12 {
		t.Errorf("max blocking %.6g, want %.6g", est.MaxBlocking, want)
	}
}

// TestFromScenarioFinite runs the scenario-level entry point on a real
// calibrated scenario and checks shape and finiteness: one estimate per
// host pair, all fields finite, PathStats mirrors the estimate.
func TestFromScenarioFinite(t *testing.T) {
	g := topo.Line(4, topo.DefaultLAN)
	sc, err := experiments.NewScenario("t", g, des.SchedConfig{Kind: des.FIFO},
		traffic.ModelPoisson, 0.4, 0.0005, 7)
	if err != nil {
		t.Fatal(err)
	}
	est, err := FromScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Paths) != len(sc.Flows) {
		t.Fatalf("paths %d, want one per flow (%d)", len(est.Paths), len(sc.Flows))
	}
	stats := est.PathStats()
	for _, p := range est.Paths {
		k := des.PathKey(p.Src, p.Dst)
		for name, v := range map[string]float64{
			"mean fwd": p.MeanFwdSec, "mean rtt": p.MeanRTTSec, "p99 rtt": p.P99RTTSec,
			"wait": p.WaitRTTSec, "wait var": p.WaitVarSec2, "det": p.DetRTTSec,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("path %s: %s = %v not finite/non-negative", k, name, v)
			}
		}
		st, ok := stats[k]
		if !ok {
			t.Errorf("PathStats missing key %s", k)
			continue
		}
		if math.Abs(st.AvgRTT-p.MeanRTTSec) > 1e-15 || math.Abs(st.P99RTT-p.P99RTTSec) > 1e-15 {
			t.Errorf("PathStats %s disagrees with estimate", k)
		}
	}
	if est.MeanRTTSec <= 0 || est.P99RTTSec < est.MeanRTTSec {
		t.Errorf("aggregate mean %.3g p99 %.3g malformed", est.MeanRTTSec, est.P99RTTSec)
	}
}

// TestArrivalSCV: Poisson is exactly 1 by definition; the measured
// models must return finite positive values and be stable across calls
// (memoized).
func TestArrivalSCV(t *testing.T) {
	if v := ArrivalSCV(traffic.ModelPoisson); v != 1 {
		t.Fatalf("Poisson SCV %v, want exactly 1", v)
	}
	for _, m := range []traffic.Model{traffic.ModelOnOff, traffic.ModelMAP, traffic.ModelBCLike, traffic.ModelAnarchyLike} {
		v1 := ArrivalSCV(m)
		if math.IsNaN(v1) || math.IsInf(v1, 0) || v1 <= 0 {
			t.Errorf("%v SCV %v not finite positive", m, v1)
		}
		if v2 := ArrivalSCV(m); math.Abs(v2-v1) > 0 {
			t.Errorf("%v SCV not memoized: %v then %v", m, v1, v2)
		}
	}
}

// TestP99IsMaxOverFlows is the regression test for an aggregate p99 that
// only looked at each host pair's first flow: on FatTree16 a second flow
// on flow 1's host pair (26->10, routed over another ECMP path) has the
// largest p99 of all, so PathStats reported that pair above the
// "max per-path" aggregate. The aggregate must be the max over flows and
// bound every PathStats row.
func TestP99IsMaxOverFlows(t *testing.T) {
	g := topo.FatTree(topo.FatTree16, topo.DefaultLAN)
	var flows []topo.FlowDef
	for i, pair := range [][2]int{{26, 10}, {27, 12}, {21, 11}, {14, 11}, {27, 24}, {13, 15}, {9, 26}, {11, 21}, {26, 10}} {
		flows = append(flows, topo.FlowDef{FlowID: i + 1, Src: pair[0], Dst: pair[1]})
	}
	rt, err := g.Route(flows)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Analyze(Input{G: g, RT: rt, Flows: flows, FlowRate: 2.5e5, MeanPktBytes: 800, CA2: 1})
	if err != nil {
		t.Fatal(err)
	}
	var maxP99 float64
	for _, p := range est.Paths {
		maxP99 = math.Max(maxP99, p.P99RTTSec)
	}
	if est.P99RTTSec != maxP99 {
		t.Errorf("aggregate p99 %.6g, want the max over flows %.6g", est.P99RTTSec, maxP99)
	}
	for k, st := range est.PathStats() {
		if st.P99RTT > est.P99RTTSec {
			t.Errorf("path %s p99 %.6g above the aggregate %.6g", k, st.P99RTT, est.P99RTTSec)
		}
	}
}

// maxPortRho is the largest offered load of any port the estimate loads.
func maxPortRho(est *Estimate) float64 {
	most := 0.0
	for _, pl := range est.Ports() {
		most = math.Max(most, pl.Rho)
	}
	return most
}

// echoIsReversal reports whether every flow's routed echo leg retraces
// its forward leg, link for link — the echo model the scenario
// calibration counts with. Per-flow ECMP picks the two legs
// independently, so on multipath topologies this holds for some flow
// patterns only.
func echoIsReversal(sc *experiments.Scenario) bool {
	for i := range sc.Flows {
		fwd, echo := sc.RT.Forward(i), sc.RT.Echo(i)
		if len(echo.Ports) != len(fwd.Ports) {
			return false
		}
		for j, port := range fwd.Ports {
			back := len(fwd.Ports) - 1 - j
			if echo.Nodes[back] != fwd.Nodes[j+1] ||
				int(echo.Ports[back]) != sc.G.Ports[fwd.Nodes[j]][port].PeerPort {
				return false
			}
		}
	}
	return true
}

// TestCalibrationHitsLoad pins the scenario calibration against the
// decomposition that reads it: on every named topology family, the most
// loaded port runs at exactly the spec's Load, whatever the link rates.
// A dumbbell's bottleneck runs at a tenth of the edge rate, so a
// calibration that counted flow legs without weighing them by capacity
// would offer it ten times the target and saturate. On multipath
// families the bound is tight only while per-flow ECMP keeps the echo
// legs off the most loaded link (see FuzzSpecEstimate); it does at
// every family's default flow pattern.
func TestCalibrationHitsLoad(t *testing.T) {
	for _, name := range []string{"line4", "torus3x4", "fattree16", "abilene", "geant",
		"star5", "dumbbell4", "leafspine3x2x2"} {
		for _, load := range []float64{0.3, 0.9} {
			sc, err := experiments.Spec{Topo: name, Load: load}.Build()
			if err != nil {
				t.Fatalf("%s at %v: %v", name, load, err)
			}
			est, err := FromScenario(sc)
			if err != nil {
				t.Fatalf("%s at %v: %v", name, load, err)
			}
			if rho := maxPortRho(est); math.Abs(rho-load) > 1e-12 {
				t.Errorf("%s at %v: most loaded port at rho %.15f", name, load, rho)
			}
		}
	}
}

package analytic

import (
	"errors"
	"math"
	"testing"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/topo"
)

// FuzzAnalyticScenario drives Analyze over hostile scenarios: arbitrary
// chain topologies (including single-switch paths), zero-demand and
// saturated flow rates, and non-finite parameters. The contract under
// fuzz: never panic; a successful estimate is finite everywhere; and
// when the only hostility is offered load at or beyond capacity the
// error must be the typed ErrUnstable (so serve answers 422 rather than
// treating it as a malformed request).
func FuzzAnalyticScenario(f *testing.F) {
	// Seeds: nominal load, zero demand, saturation, single-switch path,
	// finite buffer, hostile NaN/Inf parameters, zero packet size.
	f.Add(uint8(4), uint8(2), 50_000.0, 800.0, 1.0, 0.0, uint8(0))
	f.Add(uint8(2), uint8(1), 0.0, 800.0, 1.0, 0.0, uint8(0))
	f.Add(uint8(2), uint8(1), 1e12, 800.0, 1.0, 0.0, uint8(0))
	f.Add(uint8(6), uint8(1), 10_000.0, 1500.0, 4.0, 0.5, uint8(16))
	f.Add(uint8(3), uint8(3), math.NaN(), 800.0, 1.0, 0.0, uint8(0))
	f.Add(uint8(3), uint8(3), 1000.0, math.Inf(1), 1.0, 0.0, uint8(0))
	f.Add(uint8(3), uint8(2), 1000.0, 0.0, 1.0, 0.0, uint8(4))
	f.Add(uint8(5), uint8(4), 200_000.0, 64.0, 0.0, 2.0, uint8(2))

	f.Fuzz(func(t *testing.T, nHosts, nSw uint8, flowRate, pktBytes, ca2, cs2 float64, buffer uint8) {
		hosts := 2 + int(nHosts)%6 // 2..7
		switches := 1 + int(nSw)%4 // 1..4

		// Chain of switches with hosts attached round-robin; every link
		// 10 Gbps. With one switch this exercises single-device paths.
		g := topo.New()
		sw := make([]int, switches)
		for i := range sw {
			sw[i] = g.AddNode(topo.Switch, "s")
		}
		for i := 1; i < switches; i++ {
			g.Connect(sw[i-1], sw[i], 10e9, 1e-6)
		}
		hs := make([]int, hosts)
		for i := range hs {
			hs[i] = g.AddNode(topo.Host, "h")
			g.Connect(hs[i], sw[i%switches], 10e9, 1e-6)
		}
		// Ring of flows; hosts with index ≥ len(flows) stay silent so
		// some ports carry zero demand.
		nFlows := hosts - 1
		flows := make([]topo.FlowDef, nFlows)
		for i := range flows {
			flows[i] = topo.FlowDef{FlowID: i + 1, Src: hs[i], Dst: hs[(i+1)%hosts]}
		}
		rt, err := g.Route(flows)
		if err != nil {
			t.Skip("unroutable construction")
		}

		est, err := Analyze(Input{G: g, RT: rt, Flows: flows,
			FlowRate: flowRate, MeanPktBytes: pktBytes,
			CA2: ca2, CS2: cs2, Buffer: int(buffer)})

		validParams := !math.IsNaN(flowRate) && !math.IsInf(flowRate, 0) && flowRate >= 0 &&
			!math.IsNaN(pktBytes) && !math.IsInf(pktBytes, 0) && pktBytes > 0 &&
			!math.IsNaN(ca2) && !math.IsInf(ca2, 0) && ca2 >= 0 &&
			!math.IsNaN(cs2) && !math.IsInf(cs2, 0) && cs2 >= 0

		if err != nil {
			if !validParams {
				return // hostile parameters: any descriptive error is correct
			}
			// Valid parameters over a well-formed topology: the only
			// legitimate failure is saturation, and it must be typed.
			if !errors.Is(err, ErrUnstable) {
				t.Fatalf("valid inputs failed with untyped error: %v", err)
			}
			return
		}
		if !validParams {
			t.Fatalf("hostile parameters accepted (rate %v pkt %v ca2 %v cs2 %v)", flowRate, pktBytes, ca2, cs2)
		}
		finite := func(name string, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("%s = %v not finite/non-negative", name, v)
			}
		}
		finite("MeanRTTSec", est.MeanRTTSec)
		finite("P99RTTSec", est.P99RTTSec)
		finite("MaxRho", est.MaxRho)
		finite("MaxBlocking", est.MaxBlocking)
		if est.MaxRho >= 1 {
			t.Fatalf("estimate returned at rho %v >= 1 instead of ErrUnstable", est.MaxRho)
		}
		if len(est.Paths) == 0 {
			t.Fatal("no path estimates for routed flows")
		}
		for _, p := range est.Paths {
			k := des.PathKey(p.Src, p.Dst)
			finite(k+" mean", p.MeanRTTSec)
			finite(k+" p99", p.P99RTTSec)
			finite(k+" wait", p.WaitRTTSec)
			finite(k+" wait var", p.WaitVarSec2)
			if p.P99RTTSec+1e-18 < p.MeanRTTSec {
				t.Fatalf("%s: p99 %v below mean %v", k, p.P99RTTSec, p.MeanRTTSec)
			}
		}
		for _, st := range est.PathStats() {
			finite("AvgRTT", st.AvgRTT)
			finite("P99RTT", st.P99RTT)
			finite("AvgJitter", st.AvgJitter)
			finite("P99Jitter", st.P99Jitter)
		}
	})
}

// FuzzSpecEstimate holds the calibration contract over the whole spec
// grammar: a spec either fails to build, or the analytic tier solves its
// scenario or reports the typed ErrUnstable. Where every echo leg
// retraces its forward leg — the echo model the calibration counts with
// — the estimate must succeed with no port offered more than the spec's
// Load (up to float rounding of the per-port sums). Per-flow ECMP can
// route an echo leg elsewhere and load a port past Load; that is a
// known calibration gap, not asserted here.
func FuzzSpecEstimate(f *testing.F) {
	for _, s := range []experiments.Spec{
		{Topo: "line4"},
		{Topo: "torus3x4", Load: 0.9},
		{Topo: "fattree16", Traffic: "map"},
		{Topo: "fattree16", Seed: 24},
		{Topo: "abilene", Sched: "wfq:9,1", Traffic: "bc", Load: 0.12},
		{Topo: "geant", Load: 0.7},
		{Topo: "star5", Sched: "sp3"},
		{Topo: "dumbbell4", Load: 0.5},
		{Topo: "dumbbell1", Load: 0.99},
		{Topo: "leafspine3x2x2", Load: 0.3},
	} {
		f.Add(s.Topo, s.Sched, s.Traffic, s.Load, s.Duration, s.Seed)
	}
	f.Fuzz(func(t *testing.T, topoName, sched, tm string, load, duration float64, seed uint64) {
		s := experiments.Spec{Topo: topoName, Sched: sched, Traffic: tm, Load: load, Duration: duration, Seed: seed}
		sc, err := s.Build()
		if err != nil {
			return
		}
		est, err := FromScenario(sc)
		if !echoIsReversal(sc) {
			if err != nil && !errors.Is(err, ErrUnstable) {
				t.Fatalf("%+v builds but its estimate fails untyped: %v", s, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%+v builds but has no analytic estimate: %v", s, err)
		}
		if rho := maxPortRho(est); rho > sc.Load*(1+1e-12) {
			t.Fatalf("%+v: a port is offered rho %v above the load %v", s, rho, sc.Load)
		}
	})
}

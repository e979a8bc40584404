package core

import (
	"testing"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// tinyModel builds an untrained PTM adequate for structural tests.
func tinyModel(ports int) *ptm.PTM {
	m, err := ptm.New(ptm.Arch{TimeSteps: 8, Margin: 2, Embed: 4, BLSTM1: 4, BLSTM2: 4,
		Heads: 1, DK: 2, DV: 2, HeadOut: 4}, ports, 1)
	if err != nil {
		panic(err)
	}
	m.Feat = &ptm.MinMax{Min: make([]float64, ptm.NumFeatures), Max: make([]float64, ptm.NumFeatures)}
	for i := range m.Feat.Max {
		m.Feat.Max[i] = 1
	}
	m.TargetMax = 1
	return m
}

func lineSim(t *testing.T, cfg Config) (*Sim, []int) {
	t.Helper()
	g := topo.Line(3, topo.DefaultLAN)
	hosts := g.Hosts()
	rt, err := g.Route([]topo.FlowDef{{FlowID: 1, Src: hosts[0], Dst: hosts[2]}})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Model == nil {
		cfg.Model = tinyModel(4)
	}
	sim, err := NewSim(g, rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, hosts
}

func TestGenPacketsRespectsStop(t *testing.T) {
	sim, hosts := lineSim(t, Config{Sched: des.SchedConfig{Kind: des.FIFO}})
	sim.AddFlow(FlowSpec{FlowID: 1, Src: hosts[0], Dst: hosts[2],
		Gen:  traffic.NewReplay([]float64{1e-5, 1e-5, 1e-5, 1e-5}, []int{100, 100, 100, 100}, true),
		Stop: 2.5e-5})
	pkts, err := sim.genPackets(1)
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals at 10, 20 µs are in; 30 µs is at/after Stop.
	if len(pkts) != 2 {
		t.Fatalf("%d packets, want 2", len(pkts))
	}
	for _, p := range pkts {
		if p.create >= 2.5e-5 {
			t.Fatalf("packet created at %v past stop", p.create)
		}
	}
}

func TestGenPacketsEchoDoublesHops(t *testing.T) {
	simNo, hosts := lineSim(t, Config{Sched: des.SchedConfig{Kind: des.FIFO}})
	simNo.AddFlow(FlowSpec{FlowID: 1, Src: hosts[0], Dst: hosts[2],
		Gen: traffic.NewReplay([]float64{1e-6}, []int{100}, false)})
	pktsNo, _ := simNo.genPackets(1)

	simEcho, hostsE := lineSim(t, Config{Sched: des.SchedConfig{Kind: des.FIFO}, Echo: true})
	simEcho.AddFlow(FlowSpec{FlowID: 1, Src: hostsE[0], Dst: hostsE[2],
		Gen: traffic.NewReplay([]float64{1e-6}, []int{100}, false)})
	pktsEcho, _ := simEcho.genPackets(1)

	if len(pktsNo) != 1 || len(pktsEcho) != 1 {
		t.Fatal("packet counts")
	}
	if got := len(pktsEcho[0].hops); got != 2*len(pktsNo[0].hops) {
		t.Fatalf("echo hops %d, want %d", got, 2*len(pktsNo[0].hops))
	}
	if pktsEcho[0].fwdHops != len(pktsNo[0].hops) {
		t.Fatalf("fwdHops %d", pktsEcho[0].fwdHops)
	}
}

func TestResultOneWayAndRTTDeliveries(t *testing.T) {
	sim, hosts := lineSim(t, Config{Sched: des.SchedConfig{Kind: des.FIFO}, Echo: true})
	sim.AddFlow(FlowSpec{FlowID: 1, Src: hosts[0], Dst: hosts[2],
		Gen: traffic.NewReplay([]float64{1e-6}, []int{100}, false)})
	res, err := sim.Run(0.001)
	if err != nil {
		t.Fatal(err)
	}
	oneWay := res.PathDelays(false)
	rtt := res.PathDelays(true)
	key := des.PathKey(hosts[0], hosts[2])
	if len(oneWay[key]) != 1 || len(rtt[key]) != 1 {
		t.Fatalf("deliveries: oneway %v rtt %v", oneWay, rtt)
	}
	if rtt[key][0] <= oneWay[key][0] {
		t.Fatalf("rtt %v <= one-way %v", rtt[key][0], oneWay[key][0])
	}
}

func TestRunWithoutFlows(t *testing.T) {
	sim, _ := lineSim(t, Config{Sched: des.SchedConfig{Kind: des.FIFO}})
	res, err := sim.Run(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deliveries) != 0 {
		t.Fatal("deliveries from empty simulation")
	}
}

func TestAddFlowNilGenPanics(t *testing.T) {
	sim, hosts := lineSim(t, Config{Sched: des.SchedConfig{Kind: des.FIFO}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sim.AddFlow(FlowSpec{FlowID: 1, Src: hosts[0], Dst: hosts[2]})
}

func TestDampingClampedToValidRange(t *testing.T) {
	// Damping > 1 must behave as 1 (pure updates) without error.
	sim, hosts := lineSim(t, Config{Sched: des.SchedConfig{Kind: des.FIFO}, Damping: 5})
	sim.AddFlow(FlowSpec{FlowID: 1, Src: hosts[0], Dst: hosts[2],
		Gen: traffic.NewReplay([]float64{1e-6}, []int{100}, false)})
	if _, err := sim.Run(0.001); err != nil {
		t.Fatal(err)
	}
}

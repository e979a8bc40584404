package des

import (
	"math"
	"sort"
	"testing"

	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// buildLineNet wires Line(n) with all-pairs-free simple flows.
func buildLineNet(t *testing.T, n int, echo bool, sched SchedConfig) (*Network, []topo.FlowDef) {
	t.Helper()
	g := topo.Line(n, topo.DefaultLAN)
	hosts := g.Hosts()
	flows := []topo.FlowDef{{FlowID: 1, Src: hosts[0], Dst: hosts[n-1]}}
	rt, err := g.Route(flows)
	if err != nil {
		t.Fatal(err)
	}
	return Build(g, rt, NetConfig{Sched: sched, Echo: echo}), flows
}

func TestSinglePacketLatency(t *testing.T) {
	// One 1000-byte packet across Line(2): host -> link -> s0 -> link ->
	// s1 -> link -> host. Expected one-way delay:
	//   3 serializations at 10 Gb/s (host egress + 2 switch egresses)
	//   + 3 propagation delays of 1 µs.
	net, _ := buildLineNet(t, 2, false, SchedConfig{Kind: FIFO})
	hosts := net.Graph.Hosts()
	gen := &arrivalList{gaps: []float64{0.001}, sizes: []int{1000}}
	net.AddFlow(hosts[0], Flow{FlowID: 1, Dst: hosts[1], Source: gen})
	net.Run(1)

	if len(net.Trace.Deliveries) != 1 {
		t.Fatalf("deliveries %d", len(net.Trace.Deliveries))
	}
	d := net.Trace.Deliveries[0]
	tx := float64(1000*8) / 10e9
	want := 3*tx + 3*1e-6
	if math.Abs(d.Delay()-want) > 1e-12 {
		t.Fatalf("delay %v, want %v", d.Delay(), want)
	}
	if net.StrayCount() != 0 {
		t.Fatal("stray packets")
	}
}

func TestEchoRTTIsTwiceOneWay(t *testing.T) {
	net, _ := buildLineNet(t, 3, true, SchedConfig{Kind: FIFO})
	hosts := net.Graph.Hosts()
	gen := &arrivalList{gaps: []float64{0.001}, sizes: []int{500}}
	net.AddFlow(hosts[0], Flow{FlowID: 1, Dst: hosts[2], Source: gen})
	net.Run(1)

	var oneWay, rtt float64
	for _, d := range net.Trace.Deliveries {
		if d.IsRTT {
			rtt = d.Delay()
		} else {
			oneWay = d.Delay()
		}
	}
	if oneWay == 0 || rtt == 0 {
		t.Fatalf("missing deliveries: %+v", net.Trace.Deliveries)
	}
	if math.Abs(rtt-2*oneWay) > 1e-12 {
		t.Fatalf("rtt %v, one-way %v", rtt, oneWay)
	}
}

func TestPacketConservation(t *testing.T) {
	net, _ := buildLineNet(t, 4, true, SchedConfig{Kind: FIFO})
	hosts := net.Graph.Hosts()
	r := rng.New(5)
	gen := traffic.NewPoisson(50000, traffic.ConstSize(800), r)
	net.AddFlow(hosts[0], Flow{FlowID: 1, Dst: hosts[3], Source: gen, Stop: 0.02})
	net.Run(1)

	// Every device: arrivals == departures + drops (all visits complete
	// once the network drains).
	for dev, visits := range net.Trace.ByDevice {
		for _, v := range visits {
			if !v.Dropped && v.Depart < v.Arrive {
				t.Fatalf("device %d: depart before arrive: %+v", dev, v)
			}
		}
	}
	if len(net.Trace.inFlight) != 0 {
		t.Fatalf("%d visits still in flight after drain", len(net.Trace.inFlight))
	}
	if net.StrayCount() != 0 {
		t.Fatal("stray packets")
	}
	if len(net.Trace.Deliveries) == 0 {
		t.Fatal("no deliveries")
	}
}

func TestFIFODeparturesOrderedPerPort(t *testing.T) {
	net, _ := buildLineNet(t, 3, false, SchedConfig{Kind: FIFO})
	hosts := net.Graph.Hosts()
	r := rng.New(7)
	net.AddFlow(hosts[0], Flow{FlowID: 1, Dst: hosts[2],
		Source: traffic.NewPoisson(2e5, traffic.ConstSize(1500), r), Stop: 0.01})
	net.Run(1)

	//dqnlint:allow detguard per-port visit order comes from the deterministic trace slice; device iteration order only reorders independent assertions
	for dev, visits := range net.Trace.ByDevice {
		byPort := map[int][]Visit{}
		for _, v := range visits {
			if !v.Dropped {
				byPort[v.OutPort] = append(byPort[v.OutPort], v)
			}
		}
		for port, vs := range byPort {
			for i := 1; i < len(vs); i++ {
				if vs[i].Depart < vs[i-1].Depart && vs[i].Arrive > vs[i-1].Arrive {
					t.Fatalf("device %d port %d: FIFO violation", dev, port)
				}
			}
		}
	}
}

func TestOverloadDropsWithFiniteBuffer(t *testing.T) {
	// Two hosts blast one egress port at 2x capacity with a tiny buffer.
	g := topo.Star(3, topo.LinkParams{RateBps: 1e9, Delay: 1e-6})
	hosts := g.Hosts()
	flows := []topo.FlowDef{
		{FlowID: 1, Src: hosts[0], Dst: hosts[2]},
		{FlowID: 2, Src: hosts[1], Dst: hosts[2]},
	}
	rt, err := g.Route(flows)
	if err != nil {
		t.Fatal(err)
	}
	net := Build(g, rt, NetConfig{Sched: SchedConfig{Kind: FIFO, Capacity: 4}})
	r := rng.New(9)
	pps := traffic.PacketRateFor(1.0, 1e9, 1000) // each flow alone loads 100%
	net.AddFlow(hosts[0], Flow{FlowID: 1, Dst: hosts[2],
		Source: traffic.NewPoisson(pps, traffic.ConstSize(1000), r.Split()), Stop: 0.01})
	net.AddFlow(hosts[1], Flow{FlowID: 2, Dst: hosts[2],
		Source: traffic.NewPoisson(pps, traffic.ConstSize(1000), r.Split()), Stop: 0.01})
	net.Run(1)

	sw := g.Switches()[0]
	if net.Trace.Drops[sw] == 0 {
		t.Fatal("expected drops under 2x overload with tiny buffer")
	}
	// Deliveries still happen.
	if len(net.Trace.Deliveries) == 0 {
		t.Fatal("no deliveries despite overload")
	}
}

func TestSPPriorityLatencyOrdering(t *testing.T) {
	// Under heavy load, class 0 (high priority) must see lower mean
	// sojourn than class 1 at the shared bottleneck.
	g := topo.Star(3, topo.LinkParams{RateBps: 1e9, Delay: 1e-6})
	hosts := g.Hosts()
	flows := []topo.FlowDef{
		{FlowID: 1, Src: hosts[0], Dst: hosts[2]},
		{FlowID: 2, Src: hosts[1], Dst: hosts[2]},
	}
	rt, _ := g.Route(flows)
	net := Build(g, rt, NetConfig{Sched: SchedConfig{Kind: SP, Classes: 2}})
	r := rng.New(11)
	pps := traffic.PacketRateFor(0.45, 1e9, 1000)
	net.AddFlow(hosts[0], Flow{FlowID: 1, Dst: hosts[2], Class: 0,
		Source: traffic.NewPoisson(pps, traffic.ConstSize(1000), r.Split()), Stop: 0.05})
	net.AddFlow(hosts[1], Flow{FlowID: 2, Dst: hosts[2], Class: 1,
		Source: traffic.NewPoisson(pps, traffic.ConstSize(1000), r.Split()), Stop: 0.05})
	net.Run(1)

	sw := g.Switches()[0]
	var hi, lo []float64
	for _, v := range net.Trace.ByDevice[sw] {
		if v.Dropped {
			continue
		}
		if v.Class == 0 {
			hi = append(hi, v.Sojourn())
		} else {
			lo = append(lo, v.Sojourn())
		}
	}
	if metrics.Mean(hi) >= metrics.Mean(lo) {
		t.Fatalf("SP: high-priority sojourn %v >= low %v", metrics.Mean(hi), metrics.Mean(lo))
	}
}

func TestWFQThroughputShares(t *testing.T) {
	// Saturate one port with two classes weighted 1:3: departures in
	// bytes should split ~1:3.
	g := topo.Star(3, topo.LinkParams{RateBps: 1e8, Delay: 1e-6})
	hosts := g.Hosts()
	flows := []topo.FlowDef{
		{FlowID: 1, Src: hosts[0], Dst: hosts[2]},
		{FlowID: 2, Src: hosts[1], Dst: hosts[2]},
	}
	rt, _ := g.Route(flows)
	net := Build(g, rt, NetConfig{Sched: SchedConfig{Kind: WFQ, Weights: []float64{1, 3}}})
	r := rng.New(13)
	pps := traffic.PacketRateFor(1.5, 1e8, 1000) // each flow alone 150% load
	net.AddFlow(hosts[0], Flow{FlowID: 1, Dst: hosts[2], Class: 0, Weight: 1,
		Source: traffic.NewPoisson(pps, traffic.ConstSize(1000), r.Split()), Stop: 0.05})
	net.AddFlow(hosts[1], Flow{FlowID: 2, Dst: hosts[2], Class: 1, Weight: 3,
		Source: traffic.NewPoisson(pps, traffic.ConstSize(1000), r.Split()), Stop: 0.05})
	net.Run(0.05) // stop while still saturated

	sw := g.Switches()[0]
	bytes := map[int]int{}
	for _, v := range net.Trace.ByDevice[sw] {
		if !v.Dropped && v.Depart > 0.01 { // skip warmup
			bytes[v.Class] += v.Size
		}
	}
	ratio := float64(bytes[1]) / float64(bytes[0])
	if math.Abs(ratio-3) > 0.5 {
		t.Fatalf("WFQ throughput ratio %v, want ~3", ratio)
	}
}

func TestQueueMonitor(t *testing.T) {
	net, _ := buildLineNet(t, 2, false, SchedConfig{Kind: FIFO})
	hosts := net.Graph.Hosts()
	sw := net.Graph.Switches()[0]
	r := rng.New(15)
	net.AddFlow(hosts[0], Flow{FlowID: 1, Dst: hosts[1],
		Source: traffic.NewPoisson(1e5, traffic.ConstSize(1000), r), Stop: 0.01})
	// Find the egress port toward host[1]: monitor all ports is easier —
	// monitor port 0 and 1 if present.
	mon := net.MonitorQueue(sw, 0, 1e-4)
	net.Run(0.01)
	if len(mon.Samples) < 50 {
		t.Fatalf("monitor took %d samples", len(mon.Samples))
	}
	if len(mon.ClassLens(0)) != len(mon.Samples) {
		t.Fatal("ClassLens length mismatch")
	}
}

func TestPathDelays(t *testing.T) {
	net, _ := buildLineNet(t, 3, true, SchedConfig{Kind: FIFO})
	hosts := net.Graph.Hosts()
	r := rng.New(17)
	net.AddFlow(hosts[0], Flow{FlowID: 1, Dst: hosts[2],
		Source: traffic.NewPoisson(1e4, traffic.ConstSize(500), r), Stop: 0.01})
	net.Run(1)
	rtts := net.PathDelays(true)
	key := PathKey(hosts[0], hosts[2])
	if len(rtts[key]) == 0 {
		t.Fatalf("no RTT samples for %s: keys %v", key, rtts)
	}
	oneway := net.PathDelays(false)
	if len(oneway[key]) == 0 {
		t.Fatal("no one-way samples")
	}
	// RTT ≈ 2x one-way on a symmetric uncongested path.
	r1 := metrics.Mean(rtts[key])
	o1 := metrics.Mean(oneway[key])
	if r1 < o1*1.5 || r1 > o1*2.5 {
		t.Fatalf("rtt mean %v vs one-way %v", r1, o1)
	}
}

func TestMMQueueMatchesTheory(t *testing.T) {
	// M/M/1-like check: Poisson arrivals, exponential-ish service via
	// packet size ~ geometric approximation is awkward; instead verify
	// the M/D/1 mean wait formula (deterministic service) within 10%:
	//   W = ρ·S/(2(1−ρ)), sojourn = W + S.
	// A single same-rate input can never queue at the switch (the host
	// egress already serializes), so aggregate 8 independent Poisson
	// senders toward one destination: the superposition is Poisson.
	const nSend = 8
	g := topo.Star(nSend+1, topo.LinkParams{RateBps: 1e9, Delay: 1e-6})
	hosts := g.Hosts()
	dst := hosts[nSend]
	var flows []topo.FlowDef
	for i := 0; i < nSend; i++ {
		flows = append(flows, topo.FlowDef{FlowID: i + 1, Src: hosts[i], Dst: dst})
	}
	rt, _ := g.Route(flows)
	net := Build(g, rt, NetConfig{Sched: SchedConfig{Kind: FIFO}})
	r := rng.New(19)
	const rho = 0.6
	size := 1000
	svc := float64(size*8) / 1e9
	pps := rho / svc / nSend
	for i := 0; i < nSend; i++ {
		net.AddFlow(hosts[i], Flow{FlowID: i + 1, Dst: dst,
			Source: traffic.NewPoisson(pps, traffic.ConstSize(size), r.Split()), Stop: 3})
	}
	net.Run(5)

	sw := g.Switches()[0]
	var sojourns []float64
	for _, v := range net.Trace.ByDevice[sw] {
		if !v.Dropped && v.Arrive > 0.5 {
			sojourns = append(sojourns, v.Sojourn())
		}
	}
	want := rho*svc/(2*(1-rho)) + svc
	got := metrics.Mean(sojourns)
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("M/D/1 sojourn %v, theory %v", got, want)
	}
}

// Work conservation: on one egress port, whenever the next packet is
// already queued at a departure instant, service is back-to-back — the
// gap between consecutive departures equals exactly one transmission
// time.
func TestWorkConservationOnEgressPort(t *testing.T) {
	g := topo.Star(4, topo.LinkParams{RateBps: 1e9, Delay: 1e-6})
	hosts := g.Hosts()
	var flows []topo.FlowDef
	for i := 0; i < 3; i++ {
		flows = append(flows, topo.FlowDef{FlowID: i + 1, Src: hosts[i], Dst: hosts[3]})
	}
	rt, _ := g.Route(flows)
	net := Build(g, rt, NetConfig{Sched: SchedConfig{Kind: FIFO}})
	r := rng.New(23)
	for i := 0; i < 3; i++ {
		net.AddFlow(hosts[i], Flow{FlowID: i + 1, Dst: hosts[3],
			Source: traffic.NewPoisson(8e4, traffic.ConstSize(1000), r.Split()), Stop: 0.01})
	}
	net.Run(1)

	sw := g.Switches()[0]
	var toSink []Visit
	for _, v := range net.Trace.DeviceVisits(sw) {
		if !v.Dropped {
			toSink = append(toSink, v)
		}
	}
	// All flows share the single egress toward hosts[3]; visits are
	// sorted by arrival, re-sort by departure.
	sort.Slice(toSink, func(i, j int) bool { return toSink[i].Depart < toSink[j].Depart })
	tx := 1000 * 8 / 1e9
	checked := 0
	for i := 1; i < len(toSink); i++ {
		if toSink[i].Arrive <= toSink[i-1].Depart { // was queued
			gap := toSink[i].Depart - toSink[i-1].Depart
			if math.Abs(gap-tx) > 1e-12 {
				t.Fatalf("idle server with backlog: departure gap %v, want %v", gap, tx)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d back-to-back services observed; raise the load", checked)
	}
}

package core

import (
	"math"
	"sync"
	"testing"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

var (
	testModelOnce sync.Once
	testModel     *ptm.PTM
)

// testPTM trains (once) a small 4-port FIFO+multi-class PTM used by the
// end-to-end tests.
func testPTM(t *testing.T) *ptm.PTM {
	t.Helper()
	testModelOnce.Do(func() {
		spec := ptm.TrainSpec{
			Ports: 4,
			Arch:  ptm.Arch{TimeSteps: 12, Embed: 10, BLSTM1: 12, BLSTM2: 8, Heads: 2, DK: 6, DV: 6, HeadOut: 12},
			Scheds: []des.SchedConfig{
				{Kind: des.FIFO},
				{Kind: des.SP, Classes: 2},
				{Kind: des.WFQ, Weights: []float64{1, 4}},
			},
			LoadLo: 0.2, LoadHi: 0.7,
			RateBps:            10e9,
			Streams:            9,
			Duration:           0.002,
			MaxChunksPerStream: 400,
			Seed:               17,
		}
		spec.Train.Epochs = 6
		spec.Train.BatchSize = 64
		spec.Train.LR = 0.003
		spec.Train.Workers = 4
		m, rep, err := ptm.TrainDevice(spec)
		if err != nil {
			panic(err)
		}
		_ = rep
		testModel = m
	})
	return testModel
}

// runPair runs the same scenario through DES (ground truth) and
// DeepQueueNet and returns both RTT sample sets.
func runPair(t *testing.T, g *topo.Graph, model *ptm.PTM, load float64, dur float64, seedDES, seedDQN uint64, cfg Config) (dqn, truth metrics.PathSamples) {
	t.Helper()
	hosts := g.Hosts()
	var defs []topo.FlowDef
	r := rng.New(1)
	for i, h := range hosts {
		dst := hosts[(i+len(hosts)/2)%len(hosts)]
		if dst == h {
			dst = hosts[(i+1)%len(hosts)]
		}
		defs = append(defs, topo.FlowDef{FlowID: i + 1, Src: h, Dst: dst})
	}
	_ = r
	rt, err := g.Route(defs)
	if err != nil {
		t.Fatal(err)
	}

	mkFlows := func(seed uint64) []FlowSpec {
		rr := rng.New(seed)
		var fs []FlowSpec
		for _, d := range defs {
			gen := traffic.NewPoisson(
				traffic.PacketRateFor(load, 10e9, 800), traffic.ConstSize(800), rr.Split())
			fs = append(fs, FlowSpec{FlowID: d.FlowID, Src: d.Src, Dst: d.Dst,
				Gen: gen, Stop: dur, Proto: 17})
		}
		return fs
	}

	// Ground truth DES.
	net := des.Build(g, rt, des.NetConfig{Sched: cfg.Sched, Echo: true})
	for _, f := range mkFlows(seedDES) {
		net.AddFlow(f.Src, des.Flow{FlowID: f.FlowID, Dst: f.Dst, Class: f.Class,
			Weight: f.Weight, Proto: f.Proto, Source: f.Gen.(des.ArrivalSource), Stop: dur})
	}
	net.Run(dur * 3)

	// DeepQueueNet.
	cfg.Model = model
	cfg.Echo = true
	sim, err := NewSim(g, rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range mkFlows(seedDQN) {
		sim.AddFlow(f)
	}
	res, err := sim.Run(dur)
	if err != nil {
		t.Fatal(err)
	}
	return res.PathDelays(true), net.PathDelays(true)
}

func TestEndToEndLineAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	model := testPTM(t)
	g := topo.Line(4, topo.DefaultLAN)
	// Two flows share the middle link, so per-flow load 0.25 keeps the
	// worst link at ρ = 0.5.
	dqn, truth := runPair(t, g, model, 0.125, 0.001, 21, 21, Config{Sched: des.SchedConfig{Kind: des.FIFO}})
	sum := metrics.Compare(dqn, truth)
	t.Logf("Line4: avgRTT w1=%.4f p99 w1=%.4f jitter w1=%.4f", sum.AvgRTTW1, sum.P99RTTW1, sum.AvgJitterW1)
	if math.IsNaN(sum.AvgRTTW1) || sum.AvgRTTW1 > 0.25 {
		t.Fatalf("Line4 avgRTT w1 = %v, expected close to DES", sum.AvgRTTW1)
	}
}

func TestIRSAConvergesWithinDiameter(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	model := testPTM(t)
	g := topo.Line(4, topo.DefaultLAN)
	hosts := g.Hosts()
	defs := []topo.FlowDef{{FlowID: 1, Src: hosts[0], Dst: hosts[3]}}
	rt, _ := g.Route(defs)
	sim, err := NewSim(g, rt, Config{Sched: des.SchedConfig{Kind: des.FIFO}, Model: model, Echo: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	sim.AddFlow(FlowSpec{FlowID: 1, Src: hosts[0], Dst: hosts[3],
		Gen: traffic.NewPoisson(1e6, traffic.ConstSize(800), r), Stop: 0.001})
	res, err := sim.Run(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > res.Bound {
		t.Fatalf("IRSA used %d iterations, bound %d", res.Iterations, res.Bound)
	}
	// With echo legs the bound is the round-trip hop count, which
	// exceeds the one-way topology diameter.
	if res.Bound < res.Diameter {
		t.Fatalf("bound %d below diameter %d", res.Bound, res.Diameter)
	}
	if res.Diameter != g.Diameter() {
		t.Fatalf("diameter mismatch")
	}
	if len(res.Deliveries) == 0 {
		t.Fatal("no deliveries")
	}
}

func TestShardCountDoesNotChangeResults(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	model := testPTM(t)
	g := topo.Line(4, topo.DefaultLAN)
	run := func(shards int) metrics.PathSamples {
		hosts := g.Hosts()
		defs := []topo.FlowDef{{FlowID: 1, Src: hosts[0], Dst: hosts[3]},
			{FlowID: 2, Src: hosts[1], Dst: hosts[2]}}
		rt, _ := g.Route(defs)
		sim, err := NewSim(g, rt, Config{Sched: des.SchedConfig{Kind: des.FIFO},
			Model: model, Echo: true, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(7)
		for _, d := range defs {
			sim.AddFlow(FlowSpec{FlowID: d.FlowID, Src: d.Src, Dst: d.Dst,
				Gen: traffic.NewPoisson(5e5, traffic.ConstSize(700), r.Split()), Stop: 0.001})
		}
		res, err := sim.Run(0.001)
		if err != nil {
			t.Fatal(err)
		}
		return res.PathDelays(true)
	}
	a := run(1)
	for _, shards := range []int{2, 3, 8} {
		b := run(shards)
		for k, av := range a {
			bv := b[k]
			if len(av) != len(bv) {
				t.Fatalf("shards=%d: path %s sample count differs: %d vs %d", shards, k, len(av), len(bv))
			}
			for i := range av {
				if av[i] != bv[i] {
					t.Fatalf("shards=%d: path %s sample %d differs: %v vs %v", shards, k, i, av[i], bv[i])
				}
			}
		}
	}
}

func TestHostEgressExactness(t *testing.T) {
	// With a model that is never invoked (no switches traversed twice?)
	// — instead verify the Lindley recursion directly.
	pkts := []*packet{
		{id: 1, size: 1000, create: 0, hops: []hop{{device: 0, isHost: true, rateBps: 1e9}}},
		{id: 2, size: 1000, create: 1e-6, hops: []hop{{device: 0, isHost: true, rateBps: 1e9}}},
	}
	for _, p := range pkts {
		p.arrive = []float64{p.create}
		p.sojourn = make([]float64, 1)
	}
	entries := []entry{{pkt: 0, hop: 0}, {pkt: 1, hop: 0}}
	serializeFIFOInPlace(entries, pkts)
	tx := 8e-6 // 1000 B at 1 Gb/s
	if math.Abs(pkts[0].sojourn[0]-tx) > 1e-15 {
		t.Fatalf("first packet sojourn %v", pkts[0].sojourn[0])
	}
	// Second packet arrives at 1 µs, first departs at 8 µs → waits 7 µs.
	want := (tx - 1e-6) + tx
	if math.Abs(pkts[1].sojourn[0]-want) > 1e-15 {
		t.Fatalf("second packet sojourn %v, want %v", pkts[1].sojourn[0], want)
	}
}

func TestDLib(t *testing.T) {
	l := NewDLib()
	m2, _ := ptm.New(ptm.Arch{TimeSteps: 4, Embed: 4, BLSTM1: 4, BLSTM2: 4, Heads: 1, DK: 2, DV: 2, HeadOut: 4}, 2, 1)
	m8, _ := ptm.New(ptm.Arch{TimeSteps: 4, Embed: 4, BLSTM1: 4, BLSTM2: 4, Heads: 1, DK: 2, DV: 2, HeadOut: 4}, 8, 2)
	l.Put("switch-2port", m2)
	l.Put("switch-8port", m8)
	if got := l.Names(); len(got) != 2 || got[0] != "switch-2port" {
		t.Fatalf("names %v", got)
	}
	if m, ok := l.BestFor(3); !ok || m.NumPorts != 8 {
		t.Fatalf("BestFor(3) = %v", m)
	}
	if m, ok := l.BestFor(2); !ok || m.NumPorts != 2 {
		t.Fatalf("BestFor(2) picked %d-port", m.NumPorts)
	}
	if _, ok := l.BestFor(9); ok {
		t.Fatal("BestFor(9) should fail")
	}
	dir := t.TempDir()
	m2.Feat = &ptm.MinMax{Min: make([]float64, ptm.NumFeatures), Max: make([]float64, ptm.NumFeatures)}
	m8.Feat = m2.Feat
	if err := l.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	l2, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(l2.Names()) != 2 {
		t.Fatalf("loaded %v", l2.Names())
	}
}

func TestNewSimRejectsUndersizedModel(t *testing.T) {
	m, _ := ptm.New(ptm.Arch{TimeSteps: 4, Embed: 4, BLSTM1: 4, BLSTM2: 4, Heads: 1, DK: 2, DV: 2, HeadOut: 4}, 2, 1)
	g := topo.FatTree(topo.FatTree16, topo.DefaultLAN) // degree > 2
	rt, _ := g.Route([]topo.FlowDef{{FlowID: 1, Src: g.Hosts()[0], Dst: g.Hosts()[1]}})
	if _, err := NewSim(g, rt, Config{Model: m}); err == nil {
		t.Fatal("expected degree check failure")
	}
}

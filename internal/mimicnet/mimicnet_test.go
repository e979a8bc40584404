package mimicnet

import (
	"testing"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

func trainSmall(t *testing.T) *Mimic {
	t.Helper()
	m, err := Train(TrainConfig{
		Params:   topo.FatTree16,
		Load:     0.1,
		Duration: 0.001,
		Model:    traffic.ModelPoisson,
		Seed:     5,
		Sched:    des.SchedConfig{Kind: des.FIFO},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrainPopulations(t *testing.T) {
	m := trainSmall(t)
	if len(m.Intra) < 50 || len(m.Cross) < 50 {
		t.Fatalf("small populations: intra %d cross %d", len(m.Intra), len(m.Cross))
	}
	// Cross-cluster paths are longer: their mean RTT must exceed intra.
	if metrics.Mean(m.Cross) <= metrics.Mean(m.Intra) {
		t.Fatalf("cross %v <= intra %v", metrics.Mean(m.Cross), metrics.Mean(m.Intra))
	}
}

func TestPredictScalesToLargerFatTree(t *testing.T) {
	m := trainSmall(t)
	// Compose to FatTree with 4 clusters of the same shape.
	params := topo.FatTree16
	params.NumClusters = 4
	g := topo.FatTree(params, topo.DefaultLAN)
	hosts := g.Hosts()
	r := rng.New(7)
	var flows []topo.FlowDef
	for i := 0; i < 10; i++ {
		a, b := hosts[r.Intn(len(hosts))], hosts[r.Intn(len(hosts))]
		if a == b {
			continue
		}
		flows = append(flows, topo.FlowDef{FlowID: i + 1, Src: a, Dst: b})
	}
	pred, err := m.Predict(params, flows, hosts, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) == 0 {
		t.Fatal("no predictions")
	}
	for k, v := range pred {
		if len(v) != 100 {
			t.Fatalf("path %s has %d samples", k, len(v))
		}
	}
}

func TestPredictionAccuracyOnFatTree(t *testing.T) {
	// Train on 2 clusters, evaluate against DES of the SAME scale: the
	// mimic populations should land near the true RTT distribution.
	m := trainSmall(t)
	g := topo.FatTree(topo.FatTree16, topo.DefaultLAN)
	hosts := g.Hosts()
	var flows []topo.FlowDef
	for i := range hosts {
		flows = append(flows, topo.FlowDef{FlowID: i + 1, Src: hosts[i],
			Dst: hosts[(i+len(hosts)/2)%len(hosts)]})
	}
	rt, _ := g.Route(flows)
	net := des.Build(g, rt, des.NetConfig{Sched: des.SchedConfig{Kind: des.FIFO}, Echo: true})
	r := rng.New(11)
	for _, f := range flows {
		gen := traffic.NewGenerator(traffic.ModelPoisson, 0.1, 10e9, traffic.ConstSize(800), r.Split())
		net.AddFlow(f.Src, des.Flow{FlowID: f.FlowID, Dst: f.Dst, Proto: 17, Source: gen, Stop: 0.001})
	}
	net.Run(0.003)
	truth := net.PathDelays(true)
	pred, err := m.Predict(topo.FatTree16, flows, hosts, 200, 13)
	if err != nil {
		t.Fatal(err)
	}
	sum := metrics.Compare(pred, truth)
	if sum.AvgRTTW1 > 0.35 {
		t.Fatalf("mimic avgRTT w1 = %v", sum.AvgRTTW1)
	}
	t.Logf("MimicNet FatTree16: avgRTT w1=%.4f", sum.AvgRTTW1)
}

func TestRejectsForeignShapes(t *testing.T) {
	m := trainSmall(t)
	other := topo.FatTreeParams{NumToRsAndUplinks: 3, NumServersPerRack: 2, NumClusters: 2}
	if _, err := m.Predict(other, nil, nil, 10, 1); err == nil {
		t.Fatal("expected cluster-shape rejection")
	}
}

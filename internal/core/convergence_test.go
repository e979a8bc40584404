package core

import (
	"math"
	"path/filepath"
	"testing"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// line4Sim is a loaded line4 scenario with echo legs: enough queueing
// that the arrival estimates move for several iterations.
func line4Sim(t *testing.T, cfg Config) *Sim {
	t.Helper()
	g := topo.Line(4, topo.DefaultLAN)
	hosts := g.Hosts()
	rt, err := g.Route([]topo.FlowDef{{FlowID: 1, Src: hosts[0], Dst: hosts[3]}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sched, cfg.Echo = des.SchedConfig{Kind: des.FIFO}, true
	sim, err := NewSim(g, rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.AddFlow(FlowSpec{FlowID: 1, Src: hosts[0], Dst: hosts[3],
		Gen: traffic.NewPoisson(traffic.PacketRateFor(0.6, 10e9, 800), traffic.ConstSize(800), rng.New(3)), Stop: 0.0005})
	return sim
}

// TestResultReportsConvergence pins the two ways a run ends. Undamped,
// with every switch on the exact FIFO fallback, each sweep settles one
// more hop, the fixed point is reached and the convergeEps stop fires;
// with a trained PTM the delta plateaus at prediction-noise scale and
// the loop runs to its bound. Result must say which, with the delta it
// ended on.
func TestResultReportsConvergence(t *testing.T) {
	exact := line4Sim(t, Config{Model: tinyModel(4), WrapDevice: func(int, DeviceModel) DeviceModel { return nil }, Damping: 1})
	res, err := exact.Run(0.0005)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DegradedDevices) != 4 {
		t.Fatalf("degraded set %v, want all four switches on the FIFO fallback", res.DegradedDevices)
	}
	if !res.Converged || res.FinalDelta > convergeEps || res.Iterations > res.Bound {
		t.Fatalf("FIFO-fallback run: converged=%v final delta %g after %d/%d iterations; want the eps stop within the bound (Theorem 3.1)",
			res.Converged, res.FinalDelta, res.Iterations, res.Bound)
	}

	model, err := ptm.Load(filepath.Join("..", "..", "models", "switch4-fifo.ptm.json"))
	if err != nil {
		t.Skipf("shipped model unavailable: %v", err)
	}
	res, err = line4Sim(t, Config{Model: model}).Run(0.0005)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Iterations != res.Bound {
		t.Fatalf("PTM run: converged=%v after %d/%d iterations; want a run to the bound", res.Converged, res.Iterations, res.Bound)
	}
	if !(res.FinalDelta > convergeEps) || math.IsInf(res.FinalDelta, 0) || res.FinalDelta > 1e-4 {
		t.Fatalf("PTM run: final delta %g; want a finite plateau above eps (microsecond scale)", res.FinalDelta)
	}
}

// TestInferDeviceZeroAllocs pins the shard loop's steady state: a warm
// inferDevice — host serialization, the PTM device-batched path, and the
// degraded per-port FIFO fallback, each including its per-port re-sort —
// allocates nothing.
func TestInferDeviceZeroAllocs(t *testing.T) {
	sim := line4Sim(t, Config{Model: tinyModel(4)})
	pkts, err := sim.genPackets(0.0005)
	if err != nil {
		t.Fatal(err)
	}
	byDevice, devices := indexTraversals(pkts)
	for _, p := range pkts {
		for h := range p.hops {
			p.sojourn[h] = float64(p.size*8) / p.hops[h].rateBps
		}
	}
	propagate(pkts)
	models, degraded := sim.resolveDeviceModels(devices, byDevice, pkts)
	if len(degraded) != 0 {
		t.Fatalf("unexpected degraded devices: %v", degraded)
	}
	plans := buildPlans(devices, byDevice, pkts)
	clones := make(map[DeviceModel]DeviceModel)
	hosts, switches := 0, 0
	for _, d := range devices {
		for _, model := range []DeviceModel{models[d], nil} {
			if allocs := testing.AllocsPerRun(5, func() {
				sim.inferDevice(d, plans[d], pkts, model, clones)
				propagate(pkts) // move the arrivals so the next sort has work
			}); allocs != 0 {
				t.Errorf("device %d (host=%v, model=%v): inferDevice allocated %.0f times per call; want 0",
					d, plans[d].isHost, model != nil, allocs)
			}
		}
		if plans[d].isHost {
			hosts++
		} else {
			switches++
		}
	}
	if hosts == 0 || switches == 0 {
		t.Fatalf("scenario exercised %d hosts and %d switches; want both", hosts, switches)
	}
}

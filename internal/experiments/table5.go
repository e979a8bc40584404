package experiments

import (
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/mimicnet"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// TopoCase names one topology of the Table 5 sweep.
type TopoCase struct {
	Name   string
	Graph  *topo.Graph
	FTSize *topo.FatTreeParams // non-nil for FatTree variants (MimicNet rows)
}

// Table5Topologies builds the paper's evaluation topologies.
func Table5Topologies(quick bool) []TopoCase {
	ft16, ft64, ft128 := topo.FatTree16, topo.FatTree64, topo.FatTree128
	cases := []TopoCase{
		{Name: "Line4", Graph: topo.Line(4, topo.DefaultLAN)},
		{Name: "Line6", Graph: topo.Line(6, topo.DefaultLAN)},
		{Name: "Abilene", Graph: topo.Abilene(10e9)},
		{Name: "GEANT", Graph: topo.Geant(10e9)},
		{Name: "2dTorus(4x4)", Graph: topo.Torus2D(4, 4, topo.DefaultLAN)},
		{Name: "2dTorus(6x6)", Graph: topo.Torus2D(6, 6, topo.DefaultLAN)},
		{Name: "FatTree16", Graph: topo.FatTree(ft16, topo.DefaultLAN), FTSize: &ft16},
		{Name: "FatTree64", Graph: topo.FatTree(ft64, topo.DefaultLAN), FTSize: &ft64},
		{Name: "FatTree128", Graph: topo.FatTree(ft128, topo.DefaultLAN), FTSize: &ft128},
	}
	if quick {
		return []TopoCase{cases[0], cases[2], cases[6]}
	}
	return cases
}

// TopoRow is one (system, topology) measurement.
type TopoRow struct {
	System                     string
	Topology                   string
	Summary                    metrics.Summary
	RhoAvg, RhoAvgLo, RhoAvgHi float64
	RhoP99, RhoP99Lo, RhoP99Hi float64
}

// Table5 reproduces Table 5 / Table 9: topology generality in the
// baseline configuration (FIFO + Poisson), comparing DeepQueueNet (one
// 8-port device model, no retraining) against RouteNet (trained on
// FatTree16) and MimicNet (FatTree only).
func Table5(o Opts) ([]TopoRow, *Table, error) {
	o = o.WithDefaults()
	model, err := StandardModel(o)
	if err != nil {
		return nil, nil, err
	}
	rn, err := TrainRouteNet(o)
	if err != nil {
		return nil, nil, err
	}
	mimics := map[int]*mimicnet.Mimic{}

	var rows []TopoRow
	for _, tc := range Table5Topologies(o.Quick) {
		dur := o.dur(0.001)
		if len(tc.Graph.Hosts()) > 64 {
			dur = o.dur(0.0005)
		}
		sc, err := NewScenario("table5-"+tc.Name, tc.Graph,
			des.SchedConfig{Kind: des.FIFO}, traffic.ModelPoisson, 0.5, dur, o.Seed+11)
		if err != nil {
			return nil, nil, err
		}
		truth := sc.RunDES()
		truthStats := truth.Stats()

		record := func(system string, predStats map[string]metrics.PathStats) {
			row := TopoRow{System: system, Topology: tc.Name,
				Summary: metrics.CompareStats(predStats, truthStats)}
			row.RhoAvg, row.RhoAvgLo, row.RhoAvgHi = metrics.PearsonPathwise(predStats, truthStats,
				func(s metrics.PathStats) float64 { return s.AvgRTT })
			row.RhoP99, row.RhoP99Lo, row.RhoP99Hi = metrics.PearsonPathwise(predStats, truthStats,
				func(s metrics.PathStats) float64 { return s.P99RTT })
			rows = append(rows, row)
			o.logf("table5: %s / %s done (avgRTT w1 %.4f)", system, tc.Name, row.Summary.AvgRTTW1)
		}

		pred, _, err := sc.RunDQN(model, o.Shards)
		if err != nil {
			return nil, nil, err
		}
		record("DQN", pred.Stats())
		record("RN", rn.Predict(sc.RNScenario()))

		if tc.FTSize != nil {
			key := tc.FTSize.NumToRsAndUplinks
			mimic := mimics[key]
			if mimic == nil {
				mimic, err = mimicnet.Train(mimicnet.TrainConfig{
					Params: *tc.FTSize, Load: sc.perFlowLoad, Duration: o.dur(0.001),
					Model: traffic.ModelPoisson, Seed: o.Seed + 13,
					Sched: des.SchedConfig{Kind: des.FIFO},
					Sizes: traffic.ConstSize(evalPktSize),
				})
				if err != nil {
					return nil, nil, err
				}
				mimics[key] = mimic
			}
			mnPred, err := mimic.Predict(*tc.FTSize, sc.Flows, tc.Graph.Hosts(), 300, o.Seed+17)
			if err != nil {
				return nil, nil, err
			}
			record("MN", mnPred.Stats())
		}
	}

	tb := &Table{Title: "Table 5: topology generality, FIFO + Poisson (path-wise normalized w1)",
		Header: []string{"system", "topology", "avgRTT(w1)", "p99RTT(w1)", "avgJitter(w1)", "p99Jitter(w1)"}}
	for _, sys := range []string{"DQN", "RN", "MN"} {
		for _, r := range rows {
			if r.System != sys {
				continue
			}
			tb.Add(r.System, r.Topology, f4(r.Summary.AvgRTTW1), f4(r.Summary.P99RTTW1),
				f4(r.Summary.AvgJitterW1), f4(r.Summary.P99JitterW1))
		}
	}
	return rows, tb, nil
}

// Table9 renders the Appendix C Pearson view of the Table 5 DQN rows.
func Table9(rows []TopoRow) *Table {
	tb := &Table{Title: "Table 9: topology generality (Pearson rho, 95% CI)",
		Header: []string{"topology", "avgRTT rho", "95% CI", "p99RTT rho", "95% CI"}}
	for _, r := range rows {
		if r.System != "DQN" {
			continue
		}
		tb.Add(r.Topology, f3(r.RhoAvg), ciString(r.RhoAvgLo, r.RhoAvgHi),
			f3(r.RhoP99), ciString(r.RhoP99Lo, r.RhoP99Hi))
	}
	return tb
}

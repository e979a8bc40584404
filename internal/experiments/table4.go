package experiments

import (
	"fmt"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// GeneralityRow is one traffic-model generality measurement.
type GeneralityRow struct {
	System  string // "DQN" or "RN"
	Traffic string
	Summary metrics.Summary
	// Appendix C Pearson measurements.
	RhoAvg, RhoAvgLo, RhoAvgHi float64
	RhoP99, RhoP99Lo, RhoP99Hi float64
	// Scatter holds (ground truth, predicted) per-path mean RTTs — the
	// Fig. 8 scatter against the y=x line.
	Scatter [][2]float64
}

// Table4 reproduces Fig. 8 / Table 4 / Table 8: accuracy of DeepQueueNet
// and RouteNet on a FatTree16 FIFO network as the traffic generation
// model varies (MAP, Poisson, On-Off, plus the BC-pAug89- and
// Anarchy-like traces for DeepQueueNet). RouteNet is trained on the MAP
// distribution only, mirroring the paper's setup.
func Table4(o Opts) ([]GeneralityRow, *Table, error) {
	o = o.WithDefaults()
	model, err := StandardModel(o)
	if err != nil {
		return nil, nil, err
	}
	rn, err := TrainRouteNet(o)
	if err != nil {
		return nil, nil, err
	}
	g := topo.FatTree(topo.FatTree16, topo.DefaultLAN)

	dqnModels := []traffic.Model{traffic.ModelMAP, traffic.ModelPoisson,
		traffic.ModelOnOff, traffic.ModelBCLike, traffic.ModelAnarchyLike}
	rnModels := []traffic.Model{traffic.ModelMAP, traffic.ModelPoisson, traffic.ModelOnOff}
	if o.Quick {
		dqnModels = dqnModels[:3]
	}

	var rows []GeneralityRow
	run := func(system string, tm traffic.Model) error {
		sc, err := NewScenario("table4-"+tm.String(), g,
			des.SchedConfig{Kind: des.FIFO}, tm, 0.8, o.dur(0.001), o.Seed+7)
		if err != nil {
			return err
		}
		truth := sc.RunDES()
		truthStats := truth.Stats()
		var predStats map[string]metrics.PathStats
		if system == "DQN" {
			pred, _, err := sc.RunDQN(model, o.Shards)
			if err != nil {
				return err
			}
			predStats = pred.Stats()
		} else {
			predStats = rn.Predict(sc.RNScenario())
		}
		row := GeneralityRow{System: system, Traffic: tm.String(),
			Summary: metrics.CompareStats(predStats, truthStats)}
		row.RhoAvg, row.RhoAvgLo, row.RhoAvgHi = metrics.PearsonPathwise(predStats, truthStats,
			func(s metrics.PathStats) float64 { return s.AvgRTT })
		row.RhoP99, row.RhoP99Lo, row.RhoP99Hi = metrics.PearsonPathwise(predStats, truthStats,
			func(s metrics.PathStats) float64 { return s.P99RTT })
		for _, k := range metrics.SortedPaths(truthStats) {
			if pv, ok := predStats[k]; ok {
				row.Scatter = append(row.Scatter, [2]float64{truthStats[k].AvgRTT, pv.AvgRTT})
			}
		}
		rows = append(rows, row)
		o.logf("table4: %s / %s done (avgRTT w1 %.4f)", system, tm, row.Summary.AvgRTTW1)
		return nil
	}
	for _, tm := range dqnModels {
		if err := run("DQN", tm); err != nil {
			return nil, nil, err
		}
	}
	for _, tm := range rnModels {
		if err := run("RN", tm); err != nil {
			return nil, nil, err
		}
	}

	tb := &Table{Title: "Table 4: generality for traffic generation models on FatTree16 (path-wise normalized w1)",
		Header: []string{"system", "traffic", "avgRTT(w1)", "p99RTT(w1)", "avgJitter(w1)", "p99Jitter(w1)"}}
	for _, r := range rows {
		tb.Add(r.System, r.Traffic, f3(r.Summary.AvgRTTW1), f3(r.Summary.P99RTTW1),
			f3(r.Summary.AvgJitterW1), f3(r.Summary.P99JitterW1))
	}
	return rows, tb, nil
}

// Table8 renders the Appendix C Pearson view of the Table 4 rows.
func Table8(rows []GeneralityRow) *Table {
	tb := &Table{Title: "Table 8: generality for traffic generation models (Pearson rho, 95% CI)",
		Header: []string{"system", "traffic", "avgRTT rho", "95% CI", "p99RTT rho", "95% CI"}}
	for _, r := range rows {
		if r.System != "DQN" {
			continue
		}
		tb.Add(r.System, r.Traffic,
			f3(r.RhoAvg), ciString(r.RhoAvgLo, r.RhoAvgHi),
			f3(r.RhoP99), ciString(r.RhoP99Lo, r.RhoP99Hi))
	}
	return tb
}

func ciString(lo, hi float64) string {
	return "[" + f3(lo) + "," + f3(hi) + "]"
}

// Fig8 renders the ground-truth vs predicted per-path mean RTT scatter:
// accurate predictors hug the y=x line; rate-only estimators drift when
// the arrival process changes (the paper's Fig. 8 e–g panels).
func Fig8(rows []GeneralityRow) *Table {
	tb := &Table{Title: "Fig 8: per-path mean RTT, ground truth vs prediction (y=x is perfect)",
		Header: []string{"system", "traffic", "truth (us)", "predicted (us)"}}
	for _, r := range rows {
		for _, p := range r.Scatter {
			tb.Add(r.System, r.Traffic,
				fmt.Sprintf("%.2f", p[0]*1e6), fmt.Sprintf("%.2f", p[1]*1e6))
		}
	}
	return tb
}

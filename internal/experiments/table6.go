package experiments

import (
	"fmt"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// TMRow is one traffic-management generality measurement.
type TMRow struct {
	Config                     string
	Classes                    int
	Summary                    metrics.Summary
	RhoAvg, RhoAvgLo, RhoAvgHi float64
	RhoP99, RhoP99Lo, RhoP99Hi float64
	// CDFTruth/CDFPred hold RTT CDF plot points (Fig. 10).
	CDFX, CDFTruth, CDFPred []float64
}

// Table6 reproduces Fig. 10 / Table 6 / Table 10: TM generality on a
// FatTree16 network with MAP traffic under 2/3-class WFQ (weight ratios
// 1:1, 5:4, 9:1, 1:1:1) and SP schedulers.
func Table6(o Opts) ([]TMRow, *Table, error) {
	o = o.WithDefaults()
	model, err := StandardModel(o)
	if err != nil {
		return nil, nil, err
	}
	g := topo.FatTree(topo.FatTree16, topo.DefaultLAN)

	type cfg struct {
		name  string
		sched des.SchedConfig
	}
	cfgs := []cfg{
		{"2-class WFQ 1:1", des.SchedConfig{Kind: des.WFQ, Weights: []float64{1, 1}}},
		{"2-class WFQ 5:4", des.SchedConfig{Kind: des.WFQ, Weights: []float64{5, 4}}},
		{"2-class WFQ 9:1", des.SchedConfig{Kind: des.WFQ, Weights: []float64{9, 1}}},
		{"2-class SP", des.SchedConfig{Kind: des.SP, Classes: 2}},
		{"3-class WFQ 1:1:1", des.SchedConfig{Kind: des.WFQ, Weights: []float64{1, 1, 1}}},
		{"3-class SP", des.SchedConfig{Kind: des.SP, Classes: 3}},
	}
	if o.Quick {
		cfgs = []cfg{cfgs[0], cfgs[3]}
	}

	var rows []TMRow
	for ci, c := range cfgs {
		classes := c.sched.NumClasses()
		sc, err := NewScenario("table6-"+c.name, g, c.sched, traffic.ModelMAP,
			0.5, o.dur(0.001), o.Seed+uint64(19+ci))
		if err != nil {
			return nil, nil, err
		}
		truth := sc.RunDES()
		pred, _, err := sc.RunDQN(model, o.Shards)
		if err != nil {
			return nil, nil, err
		}
		truthStats := truth.Stats()
		predStats := pred.Stats()
		row := TMRow{Config: c.name, Classes: classes,
			Summary: metrics.CompareStats(predStats, truthStats)}
		row.RhoAvg, row.RhoAvgLo, row.RhoAvgHi = metrics.PearsonPathwise(predStats, truthStats,
			func(s metrics.PathStats) float64 { return s.AvgRTT })
		row.RhoP99, row.RhoP99Lo, row.RhoP99Hi = metrics.PearsonPathwise(predStats, truthStats,
			func(s metrics.PathStats) float64 { return s.P99RTT })

		// RTT CDF points for Fig. 10.
		var allT, allP []float64
		for _, k := range metrics.SortedPaths(truth) {
			allT = append(allT, truth[k]...)
		}
		for _, k := range metrics.SortedPaths(pred) {
			allP = append(allP, pred[k]...)
		}
		if ct, err := metrics.NewCDF(allT); err == nil {
			if cp, err := metrics.NewCDF(allP); err == nil {
				for q := 0.05; q < 1.0; q += 0.05 {
					x := ct.Quantile(q)
					row.CDFX = append(row.CDFX, x)
					row.CDFTruth = append(row.CDFTruth, q)
					row.CDFPred = append(row.CDFPred, cp.Eval(x))
				}
			}
		}
		rows = append(rows, row)
		o.logf("table6: %s done (avgRTT w1 %.4f)", c.name, row.Summary.AvgRTTW1)
	}

	tb := &Table{Title: "Table 6: TM generality on FatTree16 with MAP traffic (path-wise normalized w1)",
		Header: []string{"config", "avgRTT(w1)", "p99RTT(w1)", "avgJitter(w1)", "p99Jitter(w1)"}}
	for _, r := range rows {
		tb.Add(r.Config, f3(r.Summary.AvgRTTW1), f3(r.Summary.P99RTTW1),
			f3(r.Summary.AvgJitterW1), f3(r.Summary.P99JitterW1))
	}
	return rows, tb, nil
}

// Table10 renders the Appendix C Pearson view of the Table 6 rows.
func Table10(rows []TMRow) *Table {
	tb := &Table{Title: "Table 10: TM generality (Pearson rho, 95% CI)",
		Header: []string{"config", "avgRTT rho", "95% CI", "p99RTT rho", "95% CI"}}
	for _, r := range rows {
		tb.Add(r.Config, f3(r.RhoAvg), ciString(r.RhoAvgLo, r.RhoAvgHi),
			f3(r.RhoP99), ciString(r.RhoP99Lo, r.RhoP99Hi))
	}
	return tb
}

// Fig10 renders the per-configuration RTT CDF comparison points.
func Fig10(rows []TMRow) *Table {
	tb := &Table{Title: "Fig 10: RTT CDFs, DES ground truth vs DeepQueueNet",
		Header: []string{"config", "rtt(us)", "F_truth", "F_dqn"}}
	for _, r := range rows {
		for i := range r.CDFX {
			tb.Add(r.Config, fmt.Sprintf("%.2f", r.CDFX[i]*1e6), f3(r.CDFTruth[i]), f3(r.CDFPred[i]))
		}
	}
	return tb
}

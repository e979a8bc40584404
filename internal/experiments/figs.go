package experiments

import (
	"fmt"
	"time"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/queueing"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// Fig7 reproduces the PTM training curve: minibatch MSE over optimizer
// steps for the 4-port device model.
func Fig7(o Opts) (*ptm.TrainReport, *Table, error) {
	o = o.WithDefaults()
	spec := standardSpec(4, o.Seed+3, o.Quick)
	spec.Train.LogEvery = 5
	_, rep, err := ptm.TrainDevice(spec)
	if err != nil {
		return nil, nil, err
	}
	tb := &Table{Title: "Fig 7: PTM training MSE over time (4-port switch)",
		Header: []string{"step", "minibatch MSE"}}
	for i := range rep.Curve.Steps {
		tb.Add(fmt.Sprintf("%d", rep.Curve.Steps[i]), fmt.Sprintf("%.6f", rep.Curve.Losses[i]))
	}
	return &rep, tb, nil
}

// Fig6 reports the SEC residual bins of the standard device model: the
// statistical error distribution that post-PTM correction subtracts.
func Fig6(o Opts) (*Table, error) {
	o = o.WithDefaults()
	model, err := StandardModel(o)
	if err != nil {
		return nil, err
	}
	tb := &Table{Title: "Fig 6: SEC residual bins (relative-residual space: (sojourn-backlog-tx)/(backlog+tx))",
		Header: []string{"bin", "pred lo", "pred hi", "mean residual", "count"}}
	for i, b := range model.SECBins {
		tb.Add(fmt.Sprintf("%d", i),
			fmt.Sprintf("%.4f", b.Lo), fmt.Sprintf("%.4f", b.Hi),
			fmt.Sprintf("%.6f", b.MeanValue), fmt.Sprintf("%d", b.Count))
	}
	return tb, nil
}

// Fig9Row is one load-factor accuracy measurement.
type Fig9Row struct {
	Load float64
	W1   float64
}

// Fig9 reproduces the load-generality sweep: device-model w1 at load
// factors 0.1–0.9 — including 0.9, beyond the [0.1, 0.8] training range.
func Fig9(o Opts) ([]Fig9Row, *Table, error) {
	o = o.WithDefaults()
	model, err := StandardModel(o)
	if err != nil {
		return nil, nil, err
	}
	loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	if o.Quick {
		loads = []float64{0.3, 0.6, 0.9}
	}
	var rows []Fig9Row
	r := rng.New(o.Seed + 41)
	for _, load := range loads {
		spec := standardSpec(8, o.Seed, o.Quick)
		spec.LoadLo, spec.LoadHi = load, load+1e-9
		var streams []ptm.DeviceStream
		for i := 0; i < 3; i++ {
			streams = append(streams, ptm.GenerateStream(spec, r.Split()))
		}
		rows = append(rows, Fig9Row{Load: load, W1: ptm.Evaluate(model, streams, 0)})
		o.logf("fig9: load %.1f done", load)
	}
	tb := &Table{Title: "Fig 9: inference accuracy vs traffic intensity (trained on loads 0.1-0.8)",
		Header: []string{"load factor", "normalized w1"}}
	for _, r := range rows {
		tb.Add(fmt.Sprintf("%.1f", r.Load), f4(r.W1))
	}
	return rows, tb, nil
}

// Fig12Row is one point of the MAP-fitting CDF comparison.
type Fig12Row struct {
	Trace    string
	Quantile float64
	IATEmp   float64 // empirical IAT at the quantile (µs)
	CDFFit   float64 // fitted-MAP CDF at that IAT
}

// Fig12 reproduces the MAP-fitting study (Appendix A.1): fit a MAP(2) to
// the BC-pAug89- and Anarchy-like traces and compare IAT CDFs.
func Fig12(o Opts) ([]Fig12Row, *Table, error) {
	o = o.WithDefaults()
	r := rng.New(o.Seed + 43)
	n := 120000
	if o.Quick {
		n = 30000
	}
	traces := []struct {
		name string
		gen  traffic.Generator
	}{
		{"BC-pAug89-like", traffic.NewBCLike(16, 10000, r.Split())},
		{"Anarchy-like", traffic.NewAnarchyLike(5000, r.Split())},
	}
	var rows []Fig12Row
	for _, tc := range traces {
		iats := make([]float64, n)
		for i := range iats {
			iats[i], _ = tc.gen.NextArrival()
		}
		fit, err := traffic.FitMAP2(iats)
		if err != nil {
			return nil, nil, err
		}
		cdf, err := metrics.NewCDF(iats)
		if err != nil {
			return nil, nil, err
		}
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			x := cdf.Quantile(q)
			f, err := fit.IATCDF(x)
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, Fig12Row{Trace: tc.name, Quantile: q, IATEmp: x * 1e6, CDFFit: f})
		}
		o.logf("fig12: %s fitted (%d states)", tc.name, fit.States())
	}
	tb := &Table{Title: "Fig 12: fitting traces with MAP models (empirical quantile vs fitted CDF)",
		Header: []string{"trace", "empirical F(x)", "x = IAT (us)", "fitted-MAP F(x)"}}
	for _, r := range rows {
		tb.Add(r.Trace, f3(r.Quantile), fmt.Sprintf("%.2f", r.IATEmp), f3(r.CDFFit))
	}
	return rows, tb, nil
}

// Fig14Row compares a theory CDF point against DES.
type Fig14Row struct {
	Disc   string
	Class  int
	N      int
	Theory float64
	DES    float64
}

// Fig14 reproduces the Appendix B validation: per-class queue-length
// CDFs of the LDQBD model versus DES for SP and WFQ(1:1:1) with the
// Appendix B.3 MAP(2) arrivals.
func Fig14(o Opts) ([]Fig14Row, *Table, error) {
	o = o.WithDefaults()
	agg := traffic.ExampleMAP2()
	probs := []float64{0.2, 0.3, 0.5}
	const linkRate = 100e6
	const pktSize = 1426
	simDur := 20.0
	level := 30
	if o.Quick {
		simDur = 5.0
		level = 20
	}

	var rows []Fig14Row
	for _, disc := range []queueing.Discipline{queueing.SPDisc, queueing.WFQDisc} {
		name := "SP"
		if disc == queueing.WFQDisc {
			name = "WFQ 1:1:1"
		}
		m := &queueing.Model{Arrivals: agg, Probs: probs, Mu: linkRate / (8 * pktSize),
			Disc: disc, Weights: []float64{1, 1, 1}}
		sol, err := m.Solve(level)
		if err != nil {
			return nil, nil, err
		}

		g := topo.Star(4, topo.LinkParams{RateBps: linkRate, Delay: 1e-6})
		hosts := g.Hosts()
		var defs []topo.FlowDef
		for i := 0; i < 3; i++ {
			defs = append(defs, topo.FlowDef{FlowID: i + 1, Src: hosts[i], Dst: hosts[3]})
		}
		rt, err := g.Route(defs)
		if err != nil {
			return nil, nil, err
		}
		var sched des.SchedConfig
		if disc == queueing.SPDisc {
			sched = des.SchedConfig{Kind: des.SP, Classes: 3}
		} else {
			sched = des.SchedConfig{Kind: des.WFQ, Weights: []float64{1, 1, 1}}
		}
		net := des.Build(g, rt, des.NetConfig{Sched: sched})
		r := rng.New(o.Seed + 47)
		for i := 0; i < 3; i++ {
			sub := agg.SplitClass(probs[i])
			sizes := &traffic.ExpSize{MeanBytes: pktSize, R: r.Split()}
			net.AddFlow(hosts[i], des.Flow{FlowID: i + 1, Dst: hosts[3], Class: i,
				Weight: 1, Source: sub.NewSampler(sizes, r.Split()), Stop: simDur})
		}
		sw := g.Switches()[0]
		outPort := -1
		for pi, p := range g.Ports[sw] {
			if p.Peer == hosts[3] {
				outPort = pi
			}
		}
		mon := net.MonitorQueue(sw, outPort, 5e-4)
		net.Run(simDur)

		for class := 0; class < 3; class++ {
			emp, err := metrics.NewCDF(mon.ClassLens(class))
			if err != nil {
				return nil, nil, err
			}
			for _, n := range []int{0, 1, 2, 5, 10} {
				rows = append(rows, Fig14Row{Disc: name, Class: class, N: n,
					Theory: sol.QueueLenCDF(class, n), DES: emp.Eval(float64(n))})
			}
		}
		o.logf("fig14: %s done", name)
	}
	tb := &Table{Title: "Fig 14: queue-length CDFs, LDQBD theory vs DES (Appendix B.3 MAP(2), 3 classes)",
		Header: []string{"scheduler", "class", "P(n<=x), x", "theory", "DES"}}
	for _, r := range rows {
		tb.Add(r.Disc, fmt.Sprintf("%d", r.Class), fmt.Sprintf("%d", r.N), f4(r.Theory), f4(r.DES))
	}
	return rows, tb, nil
}

// Fig15Row is one queueing-solver timing point.
type Fig15Row struct {
	Classes int
	States  int
	Elapsed time.Duration
}

// Fig15 reproduces the complexity wall: LDQBD solve time versus class
// count grows combinatorially, the infeasibility that motivates the PTM.
func Fig15(o Opts) ([]Fig15Row, *Table, error) {
	o = o.WithDefaults()
	maxK := 4
	level := 18
	if o.Quick {
		maxK = 3
		level = 12
	}
	var rows []Fig15Row
	for k := 1; k <= maxK; k++ {
		probs := make([]float64, k)
		ws := make([]float64, k)
		for i := range probs {
			probs[i] = 1 / float64(k)
			ws[i] = 1
		}
		m := &queueing.Model{Arrivals: traffic.ExampleMAP2(), Probs: probs,
			Mu: 8000, Weights: ws, Disc: queueing.WFQDisc}
		//dqnlint:allow detguard Fig. 15's solve-time column is a wall-clock measurement; the solve does not read it
		t0 := time.Now()
		sol, err := m.Solve(level)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Fig15Row{Classes: k, States: sol.StateCount(), Elapsed: time.Since(t0)})
		o.logf("fig15: K=%d done in %v", k, rows[len(rows)-1].Elapsed)
	}
	tb := &Table{Title: "Fig 15: LDQBD solve time vs number of classes (truncation level fixed)",
		Header: []string{"classes", "CTMC states", "solve time"}}
	for _, r := range rows {
		tb.Add(fmt.Sprintf("%d", r.Classes), fmt.Sprintf("%d", r.States),
			r.Elapsed.Round(time.Microsecond).String())
	}
	return rows, tb, nil
}

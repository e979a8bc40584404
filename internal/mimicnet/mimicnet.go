// Package mimicnet implements the MimicNet-style baseline the paper
// compares against on FatTree topologies (§6.1, Tables 5 and 7).
//
// MimicNet's idea: run an exact packet-level simulation of ONE cluster of
// a FatTree datacenter (cheap), learn "mimics" — approximators of the
// cluster's observable behaviour — and compose mimics to predict the
// full-scale network. Because FatTree is self-similar across clusters,
// cluster-scale models generalize across *scale* but, by construction,
// only to FatTree (the paper's criticism, reproduced here: Predict
// refuses non-FatTree inputs).
//
// The mimic here is an empirical conditional delay model: from the
// observed cluster's per-packet RTTs, split into intra-cluster and
// cross-cluster populations, it bootstrap-samples per-path delay
// predictions for the full network.
package mimicnet

import (
	"errors"
	"fmt"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// Mimic is the trained cluster model.
type Mimic struct {
	// Intra and Cross are empirical RTT populations observed in the
	// 2-cluster training simulation.
	Intra []float64
	Cross []float64
	// Params records the cluster shape the mimic was trained on.
	Params topo.FatTreeParams
	Load   float64
}

// TrainConfig controls mimic training.
type TrainConfig struct {
	Params   topo.FatTreeParams // cluster shape (NumClusters forced to 2)
	Load     float64            // per-flow offered load
	Duration float64            // simulated seconds
	Model    traffic.Model
	Sizes    traffic.SizeModel
	Seed     uint64
	Sched    des.SchedConfig
}

// Train runs the observable-cluster DES (a 2-cluster FatTree: the
// smallest network exhibiting both intra- and cross-cluster paths) and
// extracts the mimic populations.
func Train(cfg TrainConfig) (*Mimic, error) {
	p := cfg.Params
	p.NumClusters = 2
	g := topo.FatTree(p, topo.DefaultLAN)
	hosts := g.Hosts()
	perCluster := p.NumToRsAndUplinks * p.NumServersPerRack

	r := rng.New(cfg.Seed)
	var flows []topo.FlowDef
	for i, h := range hosts {
		dst := hosts[(i+1+r.Intn(len(hosts)-1))%len(hosts)]
		if dst == h {
			dst = hosts[(i+1)%len(hosts)]
		}
		flows = append(flows, topo.FlowDef{FlowID: i + 1, Src: h, Dst: dst})
	}
	rt, err := g.Route(flows)
	if err != nil {
		return nil, err
	}
	sched := cfg.Sched
	net := des.Build(g, rt, des.NetConfig{Sched: sched, Echo: true})
	sizes := cfg.Sizes
	if sizes == nil {
		sizes = traffic.ConstSize(800)
	}
	for _, f := range flows {
		gen := traffic.NewGenerator(cfg.Model, cfg.Load, topo.DefaultLAN.RateBps, sizes, r.Split())
		net.AddFlow(f.Src, des.Flow{FlowID: f.FlowID, Dst: f.Dst, Proto: 17,
			Source: gen, Stop: cfg.Duration})
	}
	net.Run(cfg.Duration + 1)

	cluster := func(h int) int {
		// Hosts are appended per cluster in construction order.
		for i, hh := range hosts {
			if hh == h {
				return i / perCluster
			}
		}
		return -1
	}
	m := &Mimic{Params: cfg.Params, Load: cfg.Load}
	for _, d := range net.Trace.Deliveries {
		if !d.IsRTT {
			continue
		}
		if cluster(d.Src) == cluster(d.Dst) {
			m.Intra = append(m.Intra, d.Delay())
		} else {
			m.Cross = append(m.Cross, d.Delay())
		}
	}
	if len(m.Intra) == 0 || len(m.Cross) == 0 {
		return nil, errors.New("mimicnet: training simulation produced no populations")
	}
	return m, nil
}

// Predict composes the mimics across the full-scale FatTree: for every
// flow it bootstrap-samples n per-packet delays from the matching
// population. It errors on non-FatTree graphs — MimicNet's structural
// limitation, which the paper's Table 5 comparison relies on.
func (m *Mimic) Predict(params topo.FatTreeParams, flows []topo.FlowDef, hosts []int, n int, seed uint64) (metrics.PathSamples, error) {
	if params.NumToRsAndUplinks != m.Params.NumToRsAndUplinks ||
		params.NumServersPerRack != m.Params.NumServersPerRack {
		return nil, fmt.Errorf("mimicnet: trained on cluster shape %+v, cannot predict %+v",
			m.Params, params)
	}
	perCluster := params.NumToRsAndUplinks * params.NumServersPerRack
	index := make(map[int]int, len(hosts))
	for i, h := range hosts {
		index[h] = i
	}
	r := rng.New(seed)
	out := metrics.PathSamples{}
	for _, f := range flows {
		si, ok1 := index[f.Src]
		di, ok2 := index[f.Dst]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("mimicnet: flow %d endpoints not hosts", f.FlowID)
		}
		pop := m.Cross
		if si/perCluster == di/perCluster {
			pop = m.Intra
		}
		key := des.PathKey(f.Src, f.Dst)
		for i := 0; i < n; i++ {
			out[key] = append(out[key], pop[r.Intn(len(pop))])
		}
	}
	return out, nil
}

package ptm

import (
	"errors"
	"fmt"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/nn"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// DeviceStream is one recorded single-device workload: the per-egress-
// port ingress streams of a K-port switch and the ground-truth sojourn of
// every packet.
type DeviceStream struct {
	Sched    des.SchedConfig
	RateBps  float64
	Ins      [][]PacketIn // indexed by egress port
	Sojourns [][]float64  // ground truth, parallel to Ins
}

// TrainSpec configures DUtil training-trace generation and PTM training
// (§5.2): a K-port switch driven by random routing schemes and a mix of
// MAP / Poisson / On-Off sources at per-port loads in [LoadLo, LoadHi].
type TrainSpec struct {
	Ports    int
	Arch     Arch
	Scheds   []des.SchedConfig // sampled uniformly per stream
	Models   []traffic.Model   // sampled uniformly per flow
	LoadLo   float64
	LoadHi   float64
	RateBps  float64
	Streams  int     // independent single-device simulations
	Duration float64 // simulated seconds per stream
	// MaxChunksPerStream caps training chunks drawn from one egress
	// stream (0 = unlimited).
	MaxChunksPerStream int
	Seed               uint64
	Train              nn.TrainConfig
}

func (s TrainSpec) withDefaults() TrainSpec {
	if s.Ports <= 0 {
		s.Ports = 4
	}
	if len(s.Scheds) == 0 {
		s.Scheds = []des.SchedConfig{{Kind: des.FIFO}}
	}
	if len(s.Models) == 0 {
		s.Models = []traffic.Model{traffic.ModelPoisson, traffic.ModelMAP, traffic.ModelOnOff}
	}
	if s.LoadLo <= 0 {
		s.LoadLo = 0.1
	}
	if s.LoadHi <= 0 {
		s.LoadHi = 0.8
	}
	if s.RateBps <= 0 {
		s.RateBps = 10e9
	}
	if s.Streams <= 0 {
		s.Streams = 8
	}
	if s.Duration <= 0 {
		s.Duration = 0.005
	}
	if s.Train.Epochs <= 0 {
		s.Train.Epochs = 6
	}
	if s.Train.BatchSize <= 0 {
		s.Train.BatchSize = 16
	}
	if s.Train.LR <= 0 {
		s.Train.LR = 0.002
	}
	return s
}

// GenerateStream runs one single-switch DES simulation with a random
// routing scheme and traffic mix and returns the per-egress-port streams.
func GenerateStream(spec TrainSpec, r *rng.Rand) DeviceStream {
	spec = spec.withDefaults()
	k := spec.Ports
	sched := spec.Scheds[r.Intn(len(spec.Scheds))]
	sched = randomizeClasses(sched, r)

	g := topo.Star(k, topo.LinkParams{RateBps: spec.RateBps, Delay: 1e-7})
	hosts := g.Hosts()
	sw := g.Switches()[0]

	// Random routing scheme: for each destination port pick a load and a
	// random subset of senders.
	type flowPlan struct {
		src, dst, class int
		weight          float64
		model           traffic.Model
		load            float64
	}
	var plans []flowPlan
	for d := 0; d < k; d++ {
		load := r.Uniform(spec.LoadLo, spec.LoadHi)
		n := 1 + r.Intn(k-1)
		perm := r.Perm(k)
		picked := 0
		for _, s := range perm {
			if s == d {
				continue
			}
			class, weight := randomClass(sched, r)
			plans = append(plans, flowPlan{
				src: s, dst: d, class: class, weight: weight,
				model: spec.Models[r.Intn(len(spec.Models))],
				load:  load / float64(n),
			})
			picked++
			if picked == n {
				break
			}
		}
	}

	flows := make([]topo.FlowDef, len(plans))
	for i, p := range plans {
		flows[i] = topo.FlowDef{FlowID: i + 1, Src: hosts[p.src], Dst: hosts[p.dst]}
	}
	rt, err := g.Route(flows)
	if err != nil {
		panic(fmt.Sprintf("ptm: star routing failed: %v", err))
	}
	net := des.Build(g, rt, des.NetConfig{Sched: sched})
	sizes := &traffic.BimodalSize{Small: 64, Large: 1500, PSmall: 0.4, R: r.Split()}
	for i, p := range plans {
		gen := traffic.NewGenerator(p.model, p.load, spec.RateBps, sizes, r.Split())
		net.AddFlow(hosts[p.src], des.Flow{
			FlowID: i + 1, Dst: hosts[p.dst], Class: p.class, Weight: p.weight,
			Proto: 17, Source: gen, Stop: spec.Duration,
		})
	}
	net.Run(spec.Duration * 2) // drain

	ds := DeviceStream{Sched: sched, RateBps: spec.RateBps,
		Ins: make([][]PacketIn, k), Sojourns: make([][]float64, k)}
	for _, v := range net.Trace.DeviceVisits(sw) {
		if v.Dropped || v.OutPort < 0 || v.OutPort >= k {
			continue
		}
		ds.Ins[v.OutPort] = append(ds.Ins[v.OutPort], PacketIn{
			Arrive: v.Arrive, Size: v.Size, Proto: v.Proto,
			InPort: v.InPort, Class: v.Class, Weight: v.Weight,
		})
		ds.Sojourns[v.OutPort] = append(ds.Sojourns[v.OutPort], v.Sojourn())
	}
	return ds
}

// randomizeClasses draws the paper's random class attributes: priorities
// 1–3 for SP, weights 1–9 for DRR/WFQ/WRR (§5.2).
func randomizeClasses(c des.SchedConfig, r *rng.Rand) des.SchedConfig {
	switch c.Kind {
	case des.SP:
		if c.Classes <= 0 {
			c.Classes = 2 + r.Intn(2) // 2 or 3 classes
		}
	case des.WRR, des.DRR, des.WFQ:
		if len(c.Weights) == 0 {
			n := 2 + r.Intn(2)
			w := make([]float64, n)
			for i := range w {
				w[i] = float64(1 + r.Intn(9))
			}
			c.Weights = w
		}
	}
	return c
}

// randomClass assigns a flow's class and weight under a scheduler config.
func randomClass(c des.SchedConfig, r *rng.Rand) (int, float64) {
	switch c.Kind {
	case des.SP:
		n := c.NumClasses()
		return r.Intn(n), 0
	case des.WRR, des.DRR, des.WFQ:
		k := r.Intn(len(c.Weights))
		return k, c.Weights[k]
	}
	return 0, 0
}

// BuildDataset converts device streams into a supervised chunk dataset,
// fitting the feature and target scalers into p.
func BuildDataset(p *PTM, streams []DeviceStream, maxChunksPerStream int, r *rng.Rand) (*nn.Dataset, error) {
	type portStream struct {
		rows    [][]float64
		targets []float64 // reordering residual per position
		chunks  []Chunk
	}
	var pss []portStream
	var allRows [][]float64
	var allTargets []float64

	for _, ds := range streams {
		for port := range ds.Ins {
			stream := ds.Ins[port]
			if len(stream) < 2*p.Margin+1 {
				continue
			}
			rows, aux := Featurize(stream, ds.Sched.Kind, p.NumPorts, ds.RateBps)
			allRows = append(allRows, rows...)
			targets := make([]float64, len(stream))
			for i := range stream {
				targets[i] = TargetTransform(ds.Sojourns[port][i], aux.Backlog[i], aux.Tx[i])
			}
			allTargets = append(allTargets, targets...)
			chunks := Chunks(len(stream), p.TimeSteps, p.Margin)
			if maxChunksPerStream > 0 && len(chunks) > maxChunksPerStream {
				perm := r.Perm(len(chunks))
				sel := make([]Chunk, maxChunksPerStream)
				for i := range sel {
					sel[i] = chunks[perm[i]]
				}
				chunks = sel
			}
			pss = append(pss, portStream{rows: rows, targets: targets, chunks: chunks})
		}
	}
	if len(pss) == 0 {
		return nil, errors.New("ptm: no training chunks generated")
	}
	sc, err := FitMinMax(allRows)
	if err != nil {
		return nil, err
	}
	p.Feat = sc
	// Fit the target scale on robust quantiles rather than extremes: a
	// handful of starvation-tail outliers would otherwise stretch the
	// unit range and crush the resolution of the common case. Targets
	// beyond the quantiles are clamped into range.
	p.TargetMin = metrics.Percentile(allTargets, 0.1)
	p.TargetMax = metrics.Percentile(allTargets, 99.5)
	if p.TargetMax <= p.TargetMin {
		p.TargetMin = allTargets[0]
		p.TargetMax = allTargets[0] + 1
	}
	clampTarget := func(v float64) float64 {
		if v < p.TargetMin {
			return p.TargetMin
		}
		if v > p.TargetMax {
			return p.TargetMax
		}
		return v
	}

	out := &nn.Dataset{}
	for _, ps := range pss {
		for _, ck := range ps.chunks {
			x := ck.Materialize(ps.rows, p.TimeSteps, sc)
			y := tensor.New(p.TimeSteps, 1)
			for t := 0; t < p.TimeSteps; t++ {
				src := ck.Start + t
				if src >= len(ps.targets) {
					src = len(ps.targets) - 1
				}
				y.Set(t, 0, p.scaleTarget(clampTarget(ps.targets[src])))
			}
			hi := ck.Hi
			if ck.Start+hi > len(ps.targets) {
				hi = len(ps.targets) - ck.Start
			}
			if hi <= ck.Lo {
				continue
			}
			out.Append(x, y, ck.Lo, hi)
		}
	}
	if out.Len() == 0 {
		return nil, errors.New("ptm: no training chunks generated")
	}
	return out, nil
}

// TrainReport summarizes a DUtil training run.
type TrainReport struct {
	Curve   nn.TrainResult // minibatch loss trajectory (Fig. 7)
	ValMSE  float64
	ValW1   float64 // normalized w1 on a held-out stream (Table 2 metric)
	Windows int     // training chunks
}

// TrainDevice runs the full DUtil pipeline: generate single-device
// traces, build the chunk dataset, train the PTM, and fit SEC bins on
// the validation split. It returns the trained model and a report.
func TrainDevice(spec TrainSpec) (*PTM, TrainReport, error) {
	spec = spec.withDefaults()
	r := rng.New(spec.Seed)
	streams := make([]DeviceStream, spec.Streams)
	for i := range streams {
		streams[i] = GenerateStream(spec, r.Split())
	}
	holdout := GenerateStream(spec, r.Split())
	p, err := New(spec.Arch, spec.Ports, spec.Seed+1)
	if err != nil {
		return nil, TrainReport{}, err
	}
	ds, err := BuildDataset(p, streams, spec.MaxChunksPerStream, r.Split())
	if err != nil {
		return nil, TrainReport{}, err
	}
	train, val := ds.Split(0.85, spec.Seed+2)

	cfg := spec.Train
	if cfg.LogEvery <= 0 {
		cfg.LogEvery = 10
	}
	curve := nn.Train(p.Net, train, cfg)

	// SEC fitting on validation predictions (residual space, seconds).
	var preds, truths []float64
	arena, packs := tensor.NewArena(), nn.NewPacks() // packed after training: the weights are final
	for i, x := range val.X {
		arena.Reset()
		y := p.Net.Infer(x, val.Lo[i], val.Hi[i], arena, packs)
		for t := 0; t < y.Rows; t++ {
			preds = append(preds, p.unscaleTarget(y.At(t, 0)))
			truths = append(truths, p.unscaleTarget(val.Y[i].At(val.Lo[i]+t, 0)))
		}
	}
	p.FitSEC(preds, truths)

	rep := TrainReport{Curve: curve, ValMSE: nn.Evaluate(p.Net, val), Windows: ds.Len()}
	// Holdout w1 on the actual sojourn distribution (Table 2's metric),
	// measured on a stream the model never saw.
	rep.ValW1 = Evaluate(p, []DeviceStream{holdout}, cfg.Workers)
	return p, rep, nil
}

// Evaluate measures a PTM against ground-truth device streams: the
// normalized w1 between the predicted and true sojourn distributions
// (Table 2's metric).
func Evaluate(p *PTM, streams []DeviceStream, workers int) float64 {
	var pred, truth []float64
	for _, ds := range streams {
		for port := range ds.Ins {
			if len(ds.Ins[port]) == 0 {
				continue
			}
			ps := p.PredictStream(ds.Ins[port], ds.Sched.Kind, ds.RateBps, workers)
			pred = append(pred, ps...)
			truth = append(truth, ds.Sojourns[port]...)
		}
	}
	return metrics.NormW1(pred, truth)
}

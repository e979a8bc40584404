package main

import (
	"fmt"
	"io"
	"time"

	"deepqueuenet/internal/analytic"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/nn"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

// Layer probes time single layers outside the live path, so a trace's
// per-window cost can be traced down to the kernels below it. Each probe
// repeats probeRepeats times and reports median and MAD.
const (
	probeRepeats  = 5
	probeBatchDur = 20 * time.Millisecond // work timed per repeat
	probeStreamN  = 2000                  // packets in the PredictStream probe
)

// probeStat is the per-call time of one probe.
type probeStat struct {
	Name   string
	Unit   string
	Median float64
	MAD    float64
	Calls  int // calls timed per repeat
}

// timeCalls times fn in probeRepeats batches sized to probeBatchDur and
// returns the per-call nanoseconds as median and MAD over the batches.
func timeCalls(fn func()) (medianNs, madNs float64, calls int) {
	t0 := time.Now()
	fn() // also warms caches and lazy state
	one := time.Since(t0)
	calls = 1
	if one < probeBatchDur {
		calls = int(probeBatchDur/(one+1)) + 1
	}
	per := make([]float64, probeRepeats)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0)) / float64(calls)
	}
	return median(per), mad(per), calls
}

// gemmShape is one production GEMM of a PTM window: an m×k input
// against a k×n packed weight, perWindow times per window.
type gemmShape struct {
	name      string
	m, k, n   int
	perWindow int
}

// gemmShapes derives the four packed-GEMM shapes a window runs from the
// model's layer specs: the embedding, the two BLSTM input projections
// (all four gates in one GEMM, once per direction) and the fused Q|K|V
// projection.
func gemmShapes(specs []nn.LayerSpec, timeSteps int) ([]gemmShape, error) {
	var out []gemmShape
	blstm := 0
	for _, s := range specs {
		switch s.Kind {
		case "dense":
			if len(out) == 0 {
				out = append(out, gemmShape{"embed", timeSteps, s.In, s.Out, 1})
			}
		case "blstm":
			blstm++
			out = append(out, gemmShape{fmt.Sprintf("blstm%d", blstm), timeSteps, s.In, 4 * s.Hidden, 2})
		case "mha":
			out = append(out, gemmShape{"qkv", timeSteps, s.In, 2*s.Heads*s.DK + s.Heads*s.DV, 1})
		}
	}
	if len(out) != 4 || blstm != 2 {
		return nil, fmt.Errorf("model is not the embed/blstm/blstm/mha stack the probes know (%d GEMM shapes)", len(out))
	}
	return out, nil
}

// windowCost computes the floating-point operations and the bytes a
// window touches from the layer specs: every weight once, every layer's
// input and output activations once, 8 bytes per value. Computed, not
// measured.
func windowCost(specs []nn.LayerSpec, timeSteps int) (flops, bytes float64) {
	t := float64(timeSteps)
	mm := func(k, n int) { // one T×k by k×n product
		flops += 2 * t * float64(k) * float64(n)
		bytes += 8 * (float64(k)*float64(n) + t*float64(k) + t*float64(n))
	}
	for _, s := range specs {
		switch s.Kind {
		case "dense":
			mm(s.In, s.Out)
		case "blstm":
			for dir := 0; dir < 2; dir++ {
				mm(s.In, 4*s.Hidden)     // input projection
				mm(s.Hidden, 4*s.Hidden) // recurrent product, one row per step
			}
		case "mha":
			mm(s.In, 2*s.Heads*s.DK+s.Heads*s.DV)
			for h := 0; h < s.Heads; h++ {
				flops += 2*t*t*float64(s.DK) + 2*t*t*float64(s.DV) // scores and context
				bytes += 8 * (t*float64(2*s.DK+s.DV) + t*t)
			}
			mm(s.Heads*s.DV, s.Out)
		}
	}
	return flops, bytes
}

// probeStream builds a deterministic packet stream for the prediction
// probe.
func probeStream(n int, seed uint64) []ptm.PacketIn {
	r := rng.New(seed)
	stream := make([]ptm.PacketIn, n)
	at := 0.0
	for i := range stream {
		at += r.Exp(1e6)
		stream[i] = ptm.PacketIn{Arrive: at, Size: 64 + r.Intn(1400), InPort: r.Intn(8)}
	}
	return stream
}

// probes is one run of every layer probe.
type probes struct {
	stats          []probeStat
	flopsPerWindow float64
	bytesPerWindow float64
	gemmShare      float64
}

func (p *probes) add(name, unit string, scale float64, fn func()) float64 {
	med, dev, calls := timeCalls(fn)
	p.stats = append(p.stats, probeStat{Name: name, Unit: unit, Median: med * scale, MAD: dev * scale, Calls: calls})
	return med * scale
}

func (p *probes) value(name string) float64 {
	for _, s := range p.stats {
		if s.Name == name {
			return s.Median
		}
	}
	return 0
}

func (p *probes) print(out io.Writer) {
	fmt.Fprintf(out, "   -- layer probes (%d repeats each; median ± MAD)\n", probeRepeats)
	for _, s := range p.stats {
		fmt.Fprintf(out, "   %-30s %14.3f ± %-10.3f %-4s (%d calls per repeat)\n", s.Name, s.Median, s.MAD, s.Unit, s.Calls)
	}
	fmt.Fprintf(out, "   %-30s %14.0f flops, %.0f bytes (computed from the layer specs)\n", "nn window cost", p.flopsPerWindow, p.bytesPerWindow)
	fmt.Fprintf(out, "   %-30s %14.4f of a window's time is the four packed GEMMs\n", "tensor.gemm_share", p.gemmShare)
}

// runProbes times the nn/tensor/ptm kernels on the workload's model and
// the experiments/analytic/des calls on the workload's scenario shape.
func runProbes(w *workloadSpec, cfg runConfig) (*probes, error) {
	model, err := ptm.Load(modelPath)
	if err != nil {
		return nil, fmt.Errorf("loading model: %w", err)
	}
	p := &probes{}
	specs := model.Net.Specs()
	shapes, err := gemmShapes(specs, model.TimeSteps)
	if err != nil {
		return nil, err
	}
	p.flopsPerWindow, p.bytesPerWindow = windowCost(specs, model.TimeSteps)

	r := rng.New(9)
	var gemmNsPerWindow float64
	for _, sh := range shapes {
		a, wt := tensor.New(sh.m, sh.k), tensor.New(sh.k, sh.n)
		for i := range a.Data {
			a.Data[i] = r.Uniform(-1, 1)
		}
		for i := range wt.Data {
			wt.Data[i] = r.Uniform(-1, 1)
		}
		packed, dst := tensor.Pack(wt), tensor.New(sh.m, sh.n)
		ns := p.add(fmt.Sprintf("tensor.gemm_%s_ns", sh.name), "ns", 1, func() {
			tensor.MatMulPackedInto(dst, a, packed)
		})
		gemmNsPerWindow += ns * float64(sh.perWindow)
	}

	stream := probeStream(probeStreamN, 2)
	streamWindows := len(ptm.Chunks(probeStreamN, model.TimeSteps, model.Margin))
	exact := model.Clone()
	streamMs := p.add("ptm.predict_stream_ms", "ms", 1e-6, func() {
		exact.PredictStream(stream, des.FIFO, 10e9, 1)
	})
	quant := model.Clone()
	if err := quant.WithQuantized(); err != nil {
		return nil, fmt.Errorf("quantizing model: %w", err)
	}
	p.add("ptm.predict_stream_quant_ms", "ms", 1e-6, func() {
		quant.PredictStream(stream, des.FIFO, 10e9, 1)
	})
	p.gemmShare = gemmNsPerWindow / (streamMs * 1e6 / float64(streamWindows))

	g, sched, tm, err := parseShape(w.Shape)
	if err != nil {
		return nil, err
	}
	// The closures below repeat calls set-up already made successfully;
	// perr keeps the first failure should one appear anyway.
	var perr error
	keep := func(err error) {
		if err != nil && perr == nil {
			perr = err
		}
	}
	seed := setupSeed(streamVerify, 1)
	p.add("scenario.build_us", "us", 1e-3, func() {
		seed++
		bg, err := experiments.TopoByName(w.Shape.Topo)
		keep(err)
		if err == nil {
			_, err = experiments.NewScenario(w.Name, bg, sched, tm, w.Shape.Load, w.Shape.Duration, seed)
			keep(err)
		}
	})
	sc, err := experiments.NewScenario(w.Name, g, sched, tm, w.Shape.Load, w.Shape.Duration, offlinePatternSeed)
	if err != nil {
		return nil, err
	}
	p.add("analytic.estimate_us", "us", 1e-3, func() {
		_, err := analytic.FromScenario(sc)
		keep(err)
	})
	if perr != nil {
		return nil, fmt.Errorf("layer probe: %w", perr)
	}
	var events uint64
	desMs := p.add("des.run_ms", "ms", 1e-6, func() {
		net := sc.BuildDESNetwork()
		net.Run(sc.Duration + 1)
		events = net.Sim.Processed()
	})
	p.stats = append(p.stats, probeStat{Name: "des.events_per_s", Unit: "1/s",
		Median: float64(events) / (desMs * 1e-3), Calls: 1})
	return p, nil
}

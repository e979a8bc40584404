package main

import (
	"fmt"
	"math"
	"time"

	"deepqueuenet/internal/core"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/serve"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// offlineEnv is a set-up offline workload: the loaded model, the
// topology, and what the set-up's verification runs established.
type offlineEnv struct {
	w   *workloadSpec
	cfg runConfig

	model *ptm.PTM
	g     *topo.Graph
	sched des.SchedConfig
	tm    traffic.Model

	facts setupFacts
}

// setupFacts are the values set-up measures once and the report quotes.
type setupFacts struct {
	Digest          string  // delivery digest of the verification scenario
	W1              float64 // normalized w1 of RTT, DQN vs DES
	SpeedupVs1Shard float64 // Shards=1 time ÷ Shards=P time, same scenario
	Deliveries      int
	Iterations      int
	Bound           int
}

// parseShape resolves the scenario grammar the serve layer also uses.
func parseShape(s scenarioShape) (*topo.Graph, des.SchedConfig, traffic.Model, error) {
	g, err := experiments.TopoByName(s.Topo)
	if err != nil {
		return nil, des.SchedConfig{}, 0, err
	}
	sched, err := experiments.SchedByName("fifo")
	if err != nil {
		return nil, des.SchedConfig{}, 0, err
	}
	tm, err := experiments.TrafficByName(s.Traffic)
	if err != nil {
		return nil, des.SchedConfig{}, 0, err
	}
	return g, sched, tm, nil
}

// scenario builds the workload's scenario with the fixed flow pattern
// and the given traffic seed.
func (e *offlineEnv) scenario(trafficSeed uint64) (*experiments.Scenario, error) {
	sc, err := experiments.NewScenario(e.w.Name, e.g, e.sched, e.tm,
		e.w.Shape.Load, e.w.Shape.Duration, offlinePatternSeed)
	if err != nil {
		return nil, err
	}
	sc.Seed = trafficSeed
	return sc, nil
}

// setupOffline performs one full set-up: model load, topology and
// scenario build, the DES ground truth, and the fixed-work warm-up — one
// Shards=1 and one Shards=P run of the verification scenario, whose
// digests must agree and whose result must match the DES.
func setupOffline(w *workloadSpec, cfg runConfig) (*offlineEnv, []string, error) {
	model, err := ptm.Load(modelPath)
	if err != nil {
		return nil, nil, fmt.Errorf("loading model: %w", err)
	}
	g, sched, tm, err := parseShape(w.Shape)
	if err != nil {
		return nil, nil, err
	}
	e := &offlineEnv{w: w, cfg: cfg, model: model, g: g, sched: sched, tm: tm}
	sc, err := e.scenario(setupSeed(streamVerify, 0))
	if err != nil {
		return nil, nil, err
	}
	truth := sc.RunDES()

	t0 := time.Now()
	pred1, res1, err := sc.RunDQNCfg(model, core.Config{Shards: 1})
	if err != nil {
		return nil, nil, fmt.Errorf("verification run (1 shard): %w", err)
	}
	t1 := time.Now()
	_, resP, err := sc.RunDQNCfg(model, core.Config{Shards: cfg.P})
	if err != nil {
		return nil, nil, fmt.Errorf("verification run (%d shards): %w", cfg.P, err)
	}
	t2 := time.Now()

	var bad []string
	bad = append(bad, checkResult(res1)...)
	bad = append(bad, checkResult(resP)...)
	d1, dP := serve.Digest(res1), serve.Digest(resP)
	if d1 != dP {
		bad = append(bad, fmt.Sprintf("digest differs between Shards=1 (%s) and Shards=%d (%s)", d1, cfg.P, dP))
	}
	w1 := metrics.Compare(pred1, truth).AvgRTTW1
	if math.IsNaN(w1) || w1 > maxW1 {
		bad = append(bad, fmt.Sprintf("w1_norm_vs_des %.6f above the ceiling %.6f", w1, maxW1))
	}
	e.facts = setupFacts{
		Digest: d1, W1: w1,
		SpeedupVs1Shard: t1.Sub(t0).Seconds() / t2.Sub(t1).Seconds(),
		Deliveries:      len(res1.Deliveries), Iterations: res1.Iterations, Bound: res1.Bound,
	}
	return e, bad, nil
}

// checkResult verifies one engine result: every delivery finite and
// causal, every device visit finite and departing no earlier than it
// arrived, the iteration count inside the Theorem 3.1 bound, and no
// device degraded to the FIFO fallback.
func checkResult(res *core.Result) []string {
	var bad []string
	if len(res.Deliveries) == 0 {
		bad = append(bad, "run delivered no packets")
	}
	if res.Iterations < 1 || res.Iterations > res.Bound {
		bad = append(bad, fmt.Sprintf("iterations %d outside [1, bound %d]", res.Iterations, res.Bound))
	}
	if res.Degraded() {
		bad = append(bad, fmt.Sprintf("%d devices degraded to the FIFO fallback", len(res.DegradedDevices)))
	}
	for _, d := range res.Deliveries {
		if !finite(d.SendTime) || !finite(d.RecvTime) || d.RecvTime <= d.SendTime {
			bad = append(bad, fmt.Sprintf("delivery of packet %d not finite and causal: send %v recv %v",
				d.PktID, d.SendTime, d.RecvTime))
			break
		}
	}
	for dev, visits := range res.DeviceVisits {
		for _, v := range visits {
			if v.Dropped {
				continue
			}
			if !finite(v.Arrive) || !finite(v.Depart) || v.Depart < v.Arrive {
				bad = append(bad, fmt.Sprintf("visit of packet %d at device %d not finite and causal: arrive %v depart %v",
					v.PktID, dev, v.Arrive, v.Depart))
				return bad
			}
		}
	}
	return bad
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// measure runs the workload back to back for d. Each operation builds
// its scenario and runs the engine at Shards=P on a traffic seed no
// other operation of the run uses.
func (e *offlineEnv) measure(d time.Duration, stream uint64, tr *tracer) (*window, error) {
	win := newWindow()
	start := time.Now()
	for i := uint64(0); time.Since(start) < d; i++ {
		seed := e.cfg.seedFor(stream, i)
		t0 := time.Now()
		sc, err := e.scenario(seed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		cfg := core.Config{Shards: e.cfg.P}
		var rt *runTrace
		if tr != nil {
			rt = &runTrace{timeSteps: e.model.TimeSteps, margin: e.model.Margin}
			cfg.Observer = rt
			cfg.WrapDevice = rt.wrap
		}
		_, res, err := sc.RunDQNCfg(e.model, cfg)
		t2 := time.Now()
		win.attempted++
		if err != nil {
			win.fail("engine_error")
			win.violations = append(win.violations, fmt.Sprintf("seed %d: %v", seed, err))
			continue
		}
		if bad := checkResult(res); len(bad) > 0 {
			win.fail("invalid_result")
			win.violations = append(win.violations, bad...)
			continue
		}
		win.ops = append(win.ops, opSample{
			from:  t0.Sub(start),
			latMs: ms(t2.Sub(t0)), rttMs: ms(t2.Sub(t0)), tier: "exact",
			deliveries: len(res.Deliveries), iterations: res.Iterations, bound: res.Bound,
		})
		if tr != nil {
			req := int64(seed)
			opID := tr.reserve()
			tr.add(opID, req, "scenario.build", t0, t1)
			rt.flush(tr, opID, req, t1, t2, &win.engine)
			tr.put(opID, 0, req, "op", t0, t2)
		}
		win.end = t2
	}
	win.finish(start)
	return win, nil
}

func (e *offlineEnv) setupFacts() setupFacts { return e.facts }

func (e *offlineEnv) close() error { return nil }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

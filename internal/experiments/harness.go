// Package experiments regenerates every table and figure of the paper's
// evaluation (§5.2, §6, Appendix): device-precision sweeps (Table 2),
// traffic-model generality (Fig. 8/Table 4/Table 8), topology generality
// (Table 5/Table 9), TM generality (Fig. 10/Table 6/Table 10),
// scalability (Table 7), the SEC ablation, the training curve (Fig. 7),
// SEC residual bins (Fig. 6), MAP fitting (Fig. 12), the queueing-theory
// validation (Fig. 14), and its complexity wall (Fig. 15).
//
// Experiments run at a laptop scale set by Opts (simulated durations of
// milliseconds rather than the paper's 30 s); EXPERIMENTS.md records the
// paper-vs-measured comparison for each.
package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"deepqueuenet/internal/core"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/routenet"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// Opts scales and seeds the experiment harness.
type Opts struct {
	Seed     uint64
	ModelDir string // cache directory for trained models
	Quick    bool   // reduced scale (used by benchmarks)
	Shards   int    // parallel inference shards for DQN runs
	Verbose  bool
}

// WithDefaults fills zero values.
func (o Opts) WithDefaults() Opts {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.ModelDir == "" {
		o.ModelDir = "models"
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	return o
}

// dur returns a scenario duration, halved under Quick.
func (o Opts) dur(full float64) float64 {
	if o.Quick {
		return full / 4
	}
	return full
}

// logf prints progress when verbose.
func (o Opts) logf(format string, args ...interface{}) {
	if o.Verbose {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// standardArch is the CPU-scale PTM architecture used across the
// evaluation (the paper-scale hyper-parameters are in ptm.PaperArch).
var standardArch = ptm.Arch{TimeSteps: 32, Margin: 8, Embed: 12, BLSTM1: 16, BLSTM2: 10, Heads: 2, DK: 8, DV: 8, HeadOut: 16}

// standardScheds is the TM mix the standard device model trains on
// (§5.2: FIFO, SP, DRR and WFQ with random priorities/weights, plus the
// Table 6 configurations).
func standardScheds() []des.SchedConfig {
	return []des.SchedConfig{
		{Kind: des.FIFO},
		{Kind: des.FIFO},
		{Kind: des.SP, Classes: 2},
		{Kind: des.SP, Classes: 3},
		{Kind: des.WFQ, Weights: []float64{1, 1}},
		{Kind: des.WFQ, Weights: []float64{5, 4}},
		{Kind: des.WFQ, Weights: []float64{9, 1}},
		{Kind: des.WFQ, Weights: []float64{1, 1, 1}},
		{Kind: des.WRR},
		{Kind: des.DRR},
	}
}

// standardSpec is the training recipe for the shared K-port device model.
func standardSpec(ports int, seed uint64, quick bool) ptm.TrainSpec {
	spec := ptm.TrainSpec{
		Ports:              ports,
		Arch:               standardArch,
		Scheds:             standardScheds(),
		LoadLo:             0.1,
		LoadHi:             0.8,
		RateBps:            10e9,
		Streams:            16,
		Duration:           0.002,
		MaxChunksPerStream: 80,
		Seed:               seed,
	}
	spec.Train.Epochs = 12
	spec.Train.BatchSize = 16
	spec.Train.LR = 0.002
	spec.Train.LogEvery = 10
	if quick {
		spec.Streams = 6
		spec.Duration = 0.001
		spec.Train.Epochs = 4
	}
	return spec
}

// StandardModel returns the shared 8-port device model, training and
// caching it under ModelDir on first use.
func StandardModel(o Opts) (*ptm.PTM, error) {
	return CachedModel(o, "switch8-std", standardSpec(8, o.Seed, o.Quick))
}

// CachedModel loads name from the model cache or trains it with spec.
func CachedModel(o Opts, name string, spec ptm.TrainSpec) (*ptm.PTM, error) {
	o = o.WithDefaults()
	path := filepath.Join(o.ModelDir, name+".ptm.json")
	if m, err := ptm.Load(path); err == nil {
		return m, nil
	}
	o.logf("training device model %s (ports=%d, streams=%d)...", name, spec.Ports, spec.Streams)
	//dqnlint:allow detguard training time is only logged; the trained weights do not read it
	t0 := time.Now()
	m, rep, err := ptm.TrainDevice(spec)
	if err != nil {
		return nil, err
	}
	o.logf("trained %s in %.1fs: %d chunks, holdout w1 %.4f", name, time.Since(t0).Seconds(), rep.Windows, rep.ValW1)
	if err := os.MkdirAll(o.ModelDir, 0o755); err != nil {
		return nil, err
	}
	if err := m.Save(path); err != nil {
		return nil, err
	}
	return m, nil
}

// Scenario describes one whole-network experiment run.
type Scenario struct {
	Name     string
	G        *topo.Graph
	Flows    []topo.FlowDef
	RT       *topo.Routing
	Sched    des.SchedConfig
	Model    traffic.Model
	Load     float64 // target load of the most-shared link
	Duration float64
	Seed     uint64
	// perFlowLoad is derived by calibrate().
	perFlowLoad float64
}

// permutationFlows builds the evaluation traffic pattern: every host
// sends one flow to a pseudo-random distinct destination. The flows are
// the only allocation: each Dst holds a host position until the last
// pass turns it into that host's node ID.
func permutationFlows(g *topo.Graph, seed uint64) []topo.FlowDef {
	n := 0
	for _, k := range g.Kinds {
		if k == topo.Host {
			n++
		}
	}
	flows := make([]topo.FlowDef, n)
	i := 0
	for id, k := range g.Kinds {
		if k == topo.Host {
			flows[i] = topo.FlowDef{FlowID: i + 1, Src: id}
			i++
		}
	}
	// The inside-out shuffle of rng.Perm, drawn into the Dst fields.
	r := rng.New(seed)
	for i := range flows {
		j := r.Intn(i + 1)
		flows[i].Dst = flows[j].Dst
		flows[j].Dst = i
	}
	// Fix fixed points by rotating them onto their neighbour.
	for i := range flows {
		if flows[i].Dst == i {
			j := (i + 1) % n
			flows[i].Dst, flows[j].Dst = flows[j].Dst, flows[i].Dst
		}
	}
	for i := range flows {
		flows[i].Dst = flows[flows[i].Dst].Src
	}
	return flows
}

// NewScenario routes the flow pattern and calibrates per-flow rates so
// the most-shared directed link (counting echo legs) carries Load.
func NewScenario(name string, g *topo.Graph, sched des.SchedConfig, model traffic.Model,
	load, duration float64, seed uint64) (*Scenario, error) {
	flows := permutationFlows(g, seed)
	rt, err := g.Route(flows)
	if err != nil {
		return nil, err
	}
	s := &Scenario{Name: name, G: g, Flows: flows, RT: rt, Sched: sched,
		Model: model, Load: load, Duration: duration, Seed: seed}
	s.calibrate()
	return s, nil
}

// calibrate computes the per-flow load from the worst-case link: the
// directed node-to-node link whose flow legs, counting each flow's
// forward leg and its reversal as the echo leg, offer the most load per
// unit of its capacity. Each leg offers perFlowLoad at evalRateBps, so a
// link of rate r carrying n legs runs at n·(evalRateBps/r)·perFlowLoad.
func (s *Scenario) calibrate() {
	base, linkOf := s.G.PortBase(), s.G.LinkOf()
	var small [256]int32 // room for most named topologies' directed ports
	share := small[:0]
	if len(linkOf) > len(small) {
		share = make([]int32, len(linkOf))
	}
	share = share[:len(linkOf)]
	most := 1.0
	count := func(node, port int32) {
		l := linkOf[base[node]+port]
		share[l]++
		if f := float64(share[l]) * (evalRateBps / s.G.Ports[node][port].RateBps); f > most {
			most = f
		}
	}
	for i := range s.Flows {
		fwd := s.RT.Forward(i)
		for j, port := range fwd.Ports {
			count(fwd.Nodes[j], port)
			count(fwd.Nodes[j+1], int32(s.G.Ports[fwd.Nodes[j]][port].PeerPort))
		}
	}
	s.perFlowLoad = s.Load / most
}

const (
	evalPktSize = 800  // bytes; constant sizes keep load calibration exact
	evalRateBps = 10e9 // generator reference rate shared with PerFlowRate
)

// gens builds one generator per flow, seeded deterministically.
func (s *Scenario) gens(seed uint64) []traffic.Generator {
	r := rng.New(seed)
	out := make([]traffic.Generator, len(s.Flows))
	for i := range s.Flows {
		out[i] = traffic.NewGenerator(s.Model, s.perFlowLoad, evalRateBps,
			traffic.ConstSize(evalPktSize), r.Split())
	}
	return out
}

// PerFlowRate returns the calibrated mean packet rate (packets/second)
// each flow injects — the demand figure the analytic decomposition needs.
func (s *Scenario) PerFlowRate() float64 {
	if s.perFlowLoad <= 0 {
		return 0
	}
	return traffic.PacketRateFor(s.perFlowLoad, evalRateBps, evalPktSize)
}

// MeanPacketBytes returns the mean packet size the generators emit.
func (s *Scenario) MeanPacketBytes() float64 { return evalPktSize }

// classOf derives flow i's scheduling class and weight from the
// scheduler, by the rule of the paper's TM tables ("we equally mark the
// traffic flows with different priorities"): class i mod the class
// count, weighted by that class's weight, or 0 when the scheduler lists
// none for it (SP classes carry no weight). Under FIFO every flow is
// class 0 with zero weight, the training convention.
func (s *Scenario) classOf(i int) (int, float64) {
	cls := i % s.Sched.NumClasses()
	if cls < len(s.Sched.Weights) {
		return cls, s.Sched.Weights[cls]
	}
	return cls, 0
}

// BuildDESNetwork instantiates the scenario as a DES network with flows
// attached, ready to Run.
func (s *Scenario) BuildDESNetwork() *des.Network {
	net := des.Build(s.G, s.RT, des.NetConfig{Sched: s.Sched, Echo: true})
	gens := s.gens(s.Seed + 1)
	for i, f := range s.Flows {
		class, weight := s.classOf(i)
		net.AddFlow(f.Src, des.Flow{FlowID: f.FlowID, Dst: f.Dst, Class: class,
			Weight: weight, Proto: 17, Source: gens[i], Stop: s.Duration})
	}
	return net
}

// RunDES produces the ground truth for the scenario. The drain horizon
// leaves a full second beyond the arrival window so even WAN round trips
// (tens of ms) complete; draining costs almost nothing once arrivals
// stop.
func (s *Scenario) RunDES() metrics.PathSamples {
	net := s.BuildDESNetwork()
	net.Run(s.Duration + 1)
	return net.PathDelays(true)
}

// RunDQN runs DeepQueueNet on the scenario and returns path samples plus
// the result (for iteration counts and per-device traces).
func (s *Scenario) RunDQN(model *ptm.PTM, shards int) (metrics.PathSamples, *core.Result, error) {
	return s.RunDQNCfg(model, core.Config{Shards: shards})
}

// RunDQNCfg runs DeepQueueNet with full engine configuration (scheduler,
// echo, and model are filled from the scenario).
func (s *Scenario) RunDQNCfg(model *ptm.PTM, cfg core.Config) (metrics.PathSamples, *core.Result, error) {
	samples, res, err := s.RunDQNCfgCtx(context.Background(), model, cfg)
	if err != nil {
		return nil, nil, err
	}
	return samples, res, nil
}

// RunDQNCfgCtx is RunDQNCfg with cooperative cancellation. Unlike
// RunDQNCfg, a canceled or failed run still returns the partial samples
// and Result assembled from the estimates at the point of failure,
// alongside the error (matching guard.ErrCanceled / guard.ErrDeadline for
// context-terminated runs).
func (s *Scenario) RunDQNCfgCtx(ctx context.Context, model *ptm.PTM, cfg core.Config) (metrics.PathSamples, *core.Result, error) {
	cfg.Sched = s.Sched
	cfg.Echo = true
	cfg.Model = model
	sim, err := core.NewSim(s.G, s.RT, cfg)
	if err != nil {
		return nil, nil, err
	}
	gens := s.gens(s.Seed + 1)
	for i, f := range s.Flows {
		class, weight := s.classOf(i)
		sim.AddFlow(core.FlowSpec{FlowID: f.FlowID, Src: f.Src, Dst: f.Dst,
			Class: class, Weight: weight, Proto: 17, Gen: gens[i], Stop: s.Duration})
	}
	res, err := sim.RunContext(ctx, s.Duration)
	var samples metrics.PathSamples
	if res != nil {
		samples = res.PathDelays(true)
	}
	return samples, res, err
}

// RNScenario converts the scenario into RouteNet's input embedding.
func (s *Scenario) RNScenario() *routenet.Scenario {
	loads := map[int]float64{}
	for _, f := range s.Flows {
		loads[f.FlowID] = s.perFlowLoad
	}
	return &routenet.Scenario{G: s.G, RT: s.RT, Loads: loads, Flows: s.Flows}
}

// TrainRouteNet trains the RouteNet baseline on FatTree16 with MAP
// traffic at varied loads (its in-distribution setting, §6) and caches it.
func TrainRouteNet(o Opts) (*routenet.Model, error) {
	o = o.WithDefaults()
	path := filepath.Join(o.ModelDir, "routenet-ft16.json")
	if m, err := routenet.Load(path); err == nil {
		return m, nil
	}
	o.logf("training RouteNet baseline on FatTree16/MAP...")
	g := topo.FatTree(topo.FatTree16, topo.DefaultLAN)
	var samples []routenet.Sample
	nScen := 10
	if o.Quick {
		nScen = 4
	}
	for i := 0; i < nScen; i++ {
		load := 0.1 + 0.07*float64(i)
		sc, err := NewScenario("rn-train", g, des.SchedConfig{Kind: des.FIFO},
			traffic.ModelMAP, load, o.dur(0.001), o.Seed+uint64(100+i))
		if err != nil {
			return nil, err
		}
		truth := sc.RunDES().Stats()
		for _, pf := range sc.RNScenario().Features() {
			if st, ok := truth[pf.Key]; ok {
				samples = append(samples, routenet.Sample{Feat: pf, Stats: st})
			}
		}
	}
	m, err := routenet.Train(samples, routenet.TrainConfig{Epochs: 500, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.ModelDir, 0o755); err != nil {
		return nil, err
	}
	if err := m.Save(path); err != nil {
		return nil, err
	}
	return m, nil
}

// Table is a simple fixed-width result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends one row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// f4 formats a float at 4 decimals.
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// f3 formats a float at 3 decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

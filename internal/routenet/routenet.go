// Package routenet implements the RouteNet-style end-to-end performance
// estimator the paper compares against (§6.1, Tables 4–5). RouteNet is a
// graph neural network over link and path states whose *inputs are
// flow-level traffic-matrix features* — per-path offered rates and the
// link loads they induce — with an MLP readout per path.
//
// This reproduction keeps that structural property exactly (it sees only
// rate features, never packet-level timing), implementing the
// link-state/path-state exchange as deterministic aggregation feeding a
// learned readout built on internal/nn. That preserves the behaviour the
// paper demonstrates: high accuracy on the traffic distribution it was
// trained on, and no generality when the arrival process changes at
// fixed rates (the traffic matrix — its entire input — is unchanged).
package routenet

import (
	"encoding/json"
	"errors"
	"os"

	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/nn"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/tensor"
	"deepqueuenet/internal/topo"
)

// NumFeatures is the per-path feature width.
const NumFeatures = 8

// NumTargets is the number of readout metrics per path: avg RTT, p99
// RTT, avg jitter, p99 jitter.
const NumTargets = 4

// PathFeature is the embedding of one path's traffic-matrix facts.
type PathFeature struct {
	Key  string // path identifier (matches metrics.PathSamples keys)
	Vals [NumFeatures]float64
}

// Scenario describes one input to the estimator: a routed topology and
// the per-flow offered loads (fraction of the first-hop link rate).
type Scenario struct {
	G     *topo.Graph
	RT    *topo.Routing
	Loads map[int]float64 // flow ID -> offered load fraction
	Flows []topo.FlowDef
}

// Features builds the per-path feature embedding: offered rate, hop
// count, and the link-state aggregation (sum/max/mean of traversed link
// loads, and the max downstream fan-in) that a RouteNet message-passing
// round computes.
func (s *Scenario) Features() []PathFeature {
	// Link loads: accumulate every flow's offered load on each directed
	// link of its forward path, in units of the link's capacity.
	base, linkOf := s.G.PortBase(), s.G.LinkOf()
	loads := make([]float64, len(linkOf))
	share := make([]int, len(linkOf))
	forward := func(f topo.FlowDef) topo.Leg {
		if i := s.RT.FlowIndex(f.FlowID); i >= 0 {
			return s.RT.Forward(i)
		}
		return topo.Leg{}
	}
	for _, f := range s.Flows {
		path := forward(f)
		for i, port := range path.Ports {
			l := linkOf[base[path.Nodes[i]]+port]
			loads[l] += s.Loads[f.FlowID]
			share[l]++
		}
	}
	out := make([]PathFeature, 0, len(s.Flows))
	for _, f := range s.Flows {
		path := forward(f)
		var sum, max, fanin float64
		n := 0
		for i, port := range path.Ports {
			l := linkOf[base[path.Nodes[i]]+port]
			v := loads[l]
			sum += v
			if v > max {
				max = v
			}
			if float64(share[l]) > fanin {
				fanin = float64(share[l])
			}
			n++
		}
		mean := 0.0
		if n > 0 {
			mean = sum / float64(n)
		}
		pf := PathFeature{Key: pathKey(path.Nodes)}
		pf.Vals = [NumFeatures]float64{
			s.Loads[f.FlowID],            // offered rate
			float64(len(path.Nodes) - 2), // switch hops
			sum, max, mean,               // aggregated link states
			fanin,                            // worst-link flow fan-in
			sum - max,                        // residual congestion signal
			max * float64(len(path.Nodes)-2), // depth-weighted bottleneck
		}
		out = append(out, pf)
	}
	return out
}

func pathKey(path []int32) string {
	if len(path) < 2 {
		return ""
	}
	// Mirror des.PathKey's "src->dst" format.
	return itoa(int(path[0])) + "->" + itoa(int(path[len(path)-1]))
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// Model is the trained estimator: readout MLP plus scalers.
type Model struct {
	Net    *nn.Sequential
	Feat   *ptm.MinMax
	Target *ptm.MinMax
}

// Sample is one supervised example: path features with ground-truth
// per-path statistics from a DES run.
type Sample struct {
	Feat  PathFeature
	Stats metrics.PathStats
}

// TrainConfig controls readout training.
type TrainConfig struct {
	Epochs  int
	LR      float64
	Hidden  int
	Seed    uint64
	Workers int
}

// Train fits the readout network on samples.
func Train(samples []Sample, cfg TrainConfig) (*Model, error) {
	if len(samples) == 0 {
		return nil, errors.New("routenet: no training samples")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 60
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.002
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 32
	}
	rows := make([][]float64, len(samples))
	targets := make([][]float64, len(samples))
	for i, s := range samples {
		rows[i] = s.Feat.Vals[:]
		targets[i] = []float64{s.Stats.AvgRTT, s.Stats.P99RTT, s.Stats.AvgJitter, s.Stats.P99Jitter}
	}
	fs, err := ptm.FitMinMax(rows)
	if err != nil {
		return nil, err
	}
	ts, err := ptm.FitMinMax(targets)
	if err != nil {
		return nil, err
	}
	specs := []nn.LayerSpec{
		{Kind: "dense", In: NumFeatures, Out: cfg.Hidden},
		{Kind: "act:tanh"},
		{Kind: "dense", In: cfg.Hidden, Out: cfg.Hidden},
		{Kind: "act:tanh"},
		{Kind: "dense", In: cfg.Hidden, Out: NumTargets},
	}
	net, err := nn.Build(specs, cfg.Seed)
	if err != nil {
		return nil, err
	}
	m := &Model{Net: net, Feat: fs, Target: ts}

	// The readout emits 4 values; train with a simple full-batch loop
	// (the dataset is per-path, so it is small).
	params := net.Params()
	opt := nn.NewAdam(params, cfg.LR)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		net.ZeroGrads()
		for i := range samples {
			x := tensor.New(1, NumFeatures)
			copy(x.Row(0), rows[i])
			m.Feat.Transform(x.Row(0))
			pred := net.Forward(x)
			dy := tensor.New(1, NumTargets)
			for j := 0; j < NumTargets; j++ {
				want := m.Target.Scale1(j, targets[i][j])
				dy.Set(0, j, 2*(pred.At(0, j)-want)/float64(len(samples)))
			}
			net.Backward(dy)
		}
		opt.Step()
	}
	return m, nil
}

// Predict returns per-path statistics for the scenario's paths.
func (m *Model) Predict(sc *Scenario) map[string]metrics.PathStats {
	out := make(map[string]metrics.PathStats)
	for _, pf := range sc.Features() {
		x := tensor.New(1, NumFeatures)
		copy(x.Row(0), pf.Vals[:])
		m.Feat.Transform(x.Row(0))
		y := m.Net.Forward(x)
		st := metrics.PathStats{
			AvgRTT:    m.Target.Unscale1(0, y.At(0, 0)),
			P99RTT:    m.Target.Unscale1(1, y.At(0, 1)),
			AvgJitter: m.Target.Unscale1(2, y.At(0, 2)),
			P99Jitter: m.Target.Unscale1(3, y.At(0, 3)),
		}
		out[pf.Key] = st
	}
	return out
}

// savedModel is the JSON form.
type savedModel struct {
	Net    json.RawMessage `json:"net"`
	Feat   *ptm.MinMax     `json:"feat"`
	Target *ptm.MinMax     `json:"target"`
}

// Save writes the model to a file.
func (m *Model) Save(path string) error {
	netData, err := m.Net.Marshal()
	if err != nil {
		return err
	}
	data, err := json.Marshal(savedModel{Net: netData, Feat: m.Feat, Target: m.Target})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a model from a file.
func Load(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sm savedModel
	if err := json.Unmarshal(data, &sm); err != nil {
		return nil, err
	}
	net, err := nn.Unmarshal(sm.Net)
	if err != nil {
		return nil, err
	}
	return &Model{Net: net, Feat: sm.Feat, Target: sm.Target}, nil
}

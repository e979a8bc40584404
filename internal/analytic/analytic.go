// Package analytic estimates whole-network path delays from queueing
// theory alone — no device model, no discrete events. It decomposes a
// routed scenario into per-egress-port G/G/1 queues (the QNA recipe:
// Whitt, "The Queueing Network Analyzer", 1983): each port's arrival
// rate is the sum of routed flow demand crossing it, its service rate
// is the line rate over the mean packet size, and its mean wait is
// Kingman's heavy-traffic approximation with a superposition-merged
// arrival SCV. Path statistics are the per-hop sums of wait +
// transmission + propagation, exactly the legs the DES composes.
//
// The whole estimate costs microseconds, which is what makes it a
// serving tier: internal/serve answers with it when the model path is
// broken (breaker open) or too slow for the request's deadline
// (brownout), instead of shedding the request or falling all the way
// back to FIFO serialization.
package analytic

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/queueing"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// ErrUnstable re-exports the queueing package's saturation error: the
// offered load meets or exceeds some port's capacity, so no steady
// state exists and the decomposition has no answer. Callers running
// the degradation ladder match on it to fall to the FIFO rung.
var ErrUnstable = queueing.ErrUnstable

// Input is one scenario in decomposed form.
type Input struct {
	G  *topo.Graph
	RT *topo.Routing
	// Flows lists the routed demands; every flow contributes FlowRate
	// on its forward path and again on its echo path (the evaluation
	// traffic is request/echo, so both legs load the network).
	Flows []topo.FlowDef
	// FlowRate is the mean injection rate of each flow, packets/s.
	// Zero means no demand: all waits are zero and the estimate is the
	// deterministic transmission + propagation sum.
	FlowRate float64
	// MeanPktBytes is the mean packet size in bytes (service demand).
	MeanPktBytes float64
	// CA2 is the squared coefficient of variation of each flow's
	// inter-arrival times (1 for Poisson; see ArrivalSCV).
	CA2 float64
	// CS2 is the service-time SCV (0 for constant packet sizes).
	CS2 float64
	// Buffer, when positive, is the per-port queue capacity in packets;
	// the estimate then includes per-port M/M/1/K blocking.
	Buffer int
}

// PortLoad is the solved state of one loaded egress port.
type PortLoad struct {
	Node, Port int
	Lambda     float64 // packets/s offered
	Mu         float64 // packets/s capacity
	Rho        float64
	Flows      int     // distinct flow legs crossing the port
	WaitSec    float64 // Kingman mean queueing wait
	Blocking   float64 // M/M/1/K loss probability (Buffer > 0)
}

// PathEstimate is the per-path output, keyed like the engine's RTT rows.
type PathEstimate struct {
	Key        string
	Hops       int     // forward-leg hop count (egress ports traversed)
	MeanFwdSec float64 // one-way mean sojourn, forward leg
	MeanRTTSec float64 // request + echo mean sojourn
	P99RTTSec  float64 // gamma-tail approximation of the RTT p99
	// WaitRTTSec / WaitVarSec2 split the RTT into its stochastic part:
	// total mean queueing wait and its variance under the per-hop
	// independent-exponential-wait approximation.
	WaitRTTSec  float64
	WaitVarSec2 float64
	DetRTTSec   float64 // deterministic transmission + propagation part
}

// Estimate is the solved network.
type Estimate struct {
	Paths map[string]*PathEstimate
	// MeanRTTSec averages the per-path mean RTTs over flows; P99RTTSec
	// is the max per-path p99 (an upper bound across paths, since the
	// serve tier reports a single scalar per request).
	MeanRTTSec  float64
	P99RTTSec   float64
	MaxRho      float64
	MaxBlocking float64
	Ports       []PortLoad
}

// z99 is the standard normal 99th percentile, used by the
// Wilson–Hilferty gamma quantile below.
const z99 = 2.3263478740408408

// gammaP99 approximates the 99th percentile of a sum of independent
// waits by moment-matching a gamma distribution (shape k = M²/V, scale
// θ = V/M) and applying the Wilson–Hilferty transform. Degenerate
// moments fall back to the mean (a zero-variance sum has its mean as
// every quantile).
func gammaP99(mean, variance float64) float64 {
	if !(mean > 0) || !(variance > 0) {
		return math.Max(mean, 0)
	}
	k := mean * mean / variance
	theta := variance / mean
	t := 1 - 1/(9*k) + z99*math.Sqrt(1/(9*k))
	q := k * theta * t * t * t
	if q < mean {
		return mean
	}
	return q
}

// portState is the accumulated demand and solved wait of one egress
// port. Analyze keeps one per directed port of the graph, indexed by the
// graph's dense port numbering (topo.Graph.PortBase), so the two passes
// over every flow's legs are array walks.
type portState struct {
	lambda float64 // packets/s offered
	wait   float64 // Kingman mean queueing wait, seconds
	flows  int32   // flow legs crossing the port; 0 = port unused
}

// Analyze solves the decomposition. It returns an error wrapping
// ErrUnstable when any port is offered load at or beyond capacity, and
// plain errors for malformed inputs (non-finite rates, unrouted flows,
// non-positive link rates). A successful estimate is always finite.
func Analyze(in Input) (*Estimate, error) {
	if in.G == nil || in.RT == nil {
		return nil, errors.New("analytic: nil topology or routing")
	}
	if math.IsNaN(in.FlowRate) || math.IsInf(in.FlowRate, 0) || in.FlowRate < 0 {
		return nil, fmt.Errorf("analytic: flow rate must be finite and non-negative (got %v)", in.FlowRate)
	}
	if math.IsNaN(in.MeanPktBytes) || math.IsInf(in.MeanPktBytes, 0) || in.MeanPktBytes <= 0 {
		return nil, fmt.Errorf("analytic: mean packet size must be finite and positive (got %v)", in.MeanPktBytes)
	}
	if math.IsNaN(in.CA2) || math.IsInf(in.CA2, 0) || in.CA2 < 0 {
		return nil, fmt.Errorf("analytic: arrival SCV must be finite and non-negative (got %v)", in.CA2)
	}
	if math.IsNaN(in.CS2) || math.IsInf(in.CS2, 0) || in.CS2 < 0 {
		return nil, fmt.Errorf("analytic: service SCV must be finite and non-negative (got %v)", in.CS2)
	}

	if in.RT.Graph() != in.G {
		return nil, errors.New("analytic: routing was computed on a different graph")
	}

	// Pass 1: accumulate per-egress-port demand over every flow's
	// forward and echo legs.
	base := in.G.PortBase()
	ports := make([]portState, base[len(base)-1])
	loaded := 0
	accumulate := func(leg topo.Leg) {
		for i, port := range leg.Ports {
			st := &ports[base[leg.Nodes[i]]+port]
			if st.flows == 0 {
				loaded++
			}
			st.lambda += in.FlowRate
			st.flows++
		}
	}
	for _, f := range in.Flows {
		fi := in.RT.FlowIndex(f.FlowID)
		if fi < 0 {
			return nil, fmt.Errorf("analytic: flow %d has no route", f.FlowID)
		}
		accumulate(in.RT.Forward(fi))
		accumulate(in.RT.Echo(fi))
	}

	// Pass 2: solve each loaded port as a G/G/1 queue, in (node, port)
	// order. The solves are independent, so the order only decides which
	// saturated port an ErrUnstable names and the order of est.Ports.
	est := &Estimate{
		Paths: make(map[string]*PathEstimate, len(in.Flows)),
		Ports: make([]PortLoad, 0, loaded),
	}
	for node, links := range in.G.Ports {
		for port, link := range links {
			st := &ports[int(base[node])+port]
			if st.flows == 0 {
				continue
			}
			if !(link.RateBps > 0) {
				return nil, fmt.Errorf("analytic: port %d.%d has non-positive rate %v", node, port, link.RateBps)
			}
			mu := link.RateBps / (8 * in.MeanPktBytes)
			pl := PortLoad{Node: node, Port: port, Lambda: st.lambda, Mu: mu, Flows: int(st.flows)}
			if st.lambda > 0 {
				pl.Rho = st.lambda / mu
				if pl.Rho >= 1 {
					return nil, fmt.Errorf("analytic: port %d.%d offered rho %.3f (lambda %.0f pps, mu %.0f pps): %w",
						node, port, pl.Rho, st.lambda, mu, ErrUnstable)
				}
				// Whitt's superposition approximation: merging n
				// equal-rate renewal streams pulls the aggregate SCV
				// toward 1 (Poisson) as n grows and utilization falls.
				ca2 := in.CA2
				if st.flows > 1 {
					w := 1 / (1 + 4*(1-pl.Rho)*(1-pl.Rho)*float64(st.flows-1))
					ca2 = w*in.CA2 + (1 - w)
				}
				wait, err := queueing.KingmanGG1Wait(st.lambda, mu, ca2, in.CS2)
				if err != nil {
					return nil, err
				}
				pl.WaitSec = wait
				if in.Buffer > 0 {
					b, err := queueing.MM1KBlocking(st.lambda, mu, in.Buffer)
					if err != nil {
						return nil, err
					}
					pl.Blocking = b
					if b > est.MaxBlocking {
						est.MaxBlocking = b
					}
				}
				if pl.Rho > est.MaxRho {
					est.MaxRho = pl.Rho
				}
			}
			st.wait = pl.WaitSec
			est.Ports = append(est.Ports, pl)
		}
	}

	// Pass 3: sum each path's legs. Per-hop sojourn = queueing wait +
	// transmission + propagation — exactly the DES composition (host
	// NIC serialization, switch port sojourn, link delay). Waits are
	// treated as independent exponentials (Var = W²) so the path-wait
	// variance is the sum of squares, then the RTT p99 is the
	// deterministic part plus a gamma-tail quantile of the wait sum.
	transPerBit := 8 * in.MeanPktBytes
	type acc struct {
		mean, det, wvar float64
		hops            int
	}
	sumLeg := func(leg topo.Leg) acc {
		var a acc
		for i, port := range leg.Ports {
			node := leg.Nodes[i]
			link := &in.G.Ports[node][port]
			w := ports[base[node]+port].wait
			det := transPerBit/link.RateBps + link.Delay
			a.mean += w + det
			a.det += det
			a.wvar += w * w
			a.hops++
		}
		return a
	}
	var meanSum float64
	pes := make([]PathEstimate, len(in.Flows))
	for i, f := range in.Flows {
		fi := in.RT.FlowIndex(f.FlowID)
		fwd, rev := sumLeg(in.RT.Forward(fi)), sumLeg(in.RT.Echo(fi))
		pe := &pes[i]
		*pe = PathEstimate{
			Key:         des.PathKey(f.Src, f.Dst),
			Hops:        fwd.hops,
			MeanFwdSec:  fwd.mean,
			MeanRTTSec:  fwd.mean + rev.mean,
			WaitRTTSec:  (fwd.mean - fwd.det) + (rev.mean - rev.det),
			WaitVarSec2: fwd.wvar + rev.wvar,
			DetRTTSec:   fwd.det + rev.det,
		}
		pe.P99RTTSec = pe.DetRTTSec + gammaP99(pe.WaitRTTSec, pe.WaitVarSec2)
		if prev, ok := est.Paths[pe.Key]; ok {
			// Two flows over the same host pair: average the estimates
			// (the engine would pool their samples under one key).
			prev.MeanFwdSec = (prev.MeanFwdSec + pe.MeanFwdSec) / 2
			prev.MeanRTTSec = (prev.MeanRTTSec + pe.MeanRTTSec) / 2
			prev.P99RTTSec = math.Max(prev.P99RTTSec, pe.P99RTTSec)
			prev.WaitRTTSec = (prev.WaitRTTSec + pe.WaitRTTSec) / 2
			prev.WaitVarSec2 = (prev.WaitVarSec2 + pe.WaitVarSec2) / 2
			prev.DetRTTSec = (prev.DetRTTSec + pe.DetRTTSec) / 2
		} else {
			est.Paths[pe.Key] = pe
			if pe.P99RTTSec > est.P99RTTSec {
				est.P99RTTSec = pe.P99RTTSec
			}
		}
		meanSum += fwd.mean + rev.mean
	}
	if len(in.Flows) > 0 {
		est.MeanRTTSec = meanSum / float64(len(in.Flows))
	}
	return est, nil
}

// PathStats converts the estimate into the engine's per-path summary
// shape (metrics.PathStats, seconds). Jitter uses the same per-hop
// independent-wait approximation: for a path-wait standard deviation σ
// the mean absolute difference of two independent samples is 2σ/√π and
// its p99 is ≈ 2.576·√2·σ (normal-difference approximation).
func (e *Estimate) PathStats() map[string]metrics.PathStats {
	out := make(map[string]metrics.PathStats, len(e.Paths))
	for k, p := range e.Paths {
		sigma := math.Sqrt(p.WaitVarSec2)
		out[k] = metrics.PathStats{
			AvgRTT:    p.MeanRTTSec,
			P99RTT:    p.P99RTTSec,
			AvgJitter: 2 * sigma / math.Sqrt(math.Pi),
			P99Jitter: 2.576 * math.Sqrt2 * sigma,
		}
	}
	return out
}

// FromScenario decomposes a calibrated experiments.Scenario: the flow
// rate and mean packet size come from the scenario's own calibration,
// the arrival SCV from its traffic model, and the service SCV is zero
// (the evaluation harness emits constant-size packets).
func FromScenario(sc *experiments.Scenario) (*Estimate, error) {
	return Analyze(Input{
		G:            sc.G,
		RT:           sc.RT,
		Flows:        sc.Flows,
		FlowRate:     sc.PerFlowRate(),
		MeanPktBytes: sc.MeanPacketBytes(),
		CA2:          ArrivalSCV(sc.Model),
		CS2:          0,
	})
}

// scvMu guards the per-process arrival-SCV memo.
var scvMu sync.Mutex
var scvMemo = map[traffic.Model]float64{}

// ArrivalSCV returns the squared coefficient of variation of a traffic
// model's inter-arrival times. Poisson is exactly 1; the other models
// are measured once per process from a fixed-seed generator draw —
// their generators scale time with the target rate, so the SCV is
// rate-invariant and one measurement covers every load point.
func ArrivalSCV(m traffic.Model) float64 {
	if m == traffic.ModelPoisson {
		return 1
	}
	scvMu.Lock()
	defer scvMu.Unlock()
	if v, ok := scvMemo[m]; ok {
		return v
	}
	g := traffic.NewGenerator(m, 0.5, 10e9, traffic.ConstSize(800), rng.New(12345))
	const n = 1 << 14
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		gap, _ := g.NextArrival()
		sum += gap
		sumsq += gap * gap
	}
	mean := sum / n
	v := 1.0
	if mean > 0 {
		if variance := sumsq/n - mean*mean; variance > 0 {
			v = variance / (mean * mean)
		}
	}
	scvMemo[m] = v
	return v
}

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
	"slices"
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
// state exists and the decomposition has no answer. The server matches
// on it to answer 422 rather than treat the request as malformed.
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

// PathEstimate is one flow's output: its request and echo legs between
// hosts Src and Dst.
type PathEstimate struct {
	Src, Dst   int     // host node IDs; des.PathKey(Src, Dst) keys the engine's RTT rows
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
	// Paths holds one estimate per flow, in the order of Input.Flows;
	// PathStats pools flows that share a host pair.
	Paths []PathEstimate
	// MeanRTTSec averages the per-flow mean RTTs; P99RTTSec is the max
	// per-flow p99 (an upper bound across paths, since the serve tier
	// reports a single scalar per request).
	MeanRTTSec  float64
	P99RTTSec   float64
	MaxRho      float64
	MaxBlocking float64

	in Input // what Ports solves again
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

// portState is the accumulated demand and solved sojourn of one egress
// port. Analyze keeps one per directed port of the graph, indexed by the
// graph's dense port numbering (topo.Graph.PortBase), so the two passes
// over every flow's legs are array walks.
type portState struct {
	lambda float64 // packets/s offered
	wait   float64 // Kingman mean queueing wait, seconds
	det    float64 // transmission + propagation per packet, seconds
	flows  int32   // flow legs crossing the port; 0 = port unused
}

// portScratch recycles Analyze's per-port states across calls: they are
// the estimate's largest allocation and none of them outlives the call.
var portScratch = sync.Pool{New: func() any { return new([]portState) }}

// Analyze solves the decomposition. It returns an error wrapping
// ErrUnstable when any port is offered load at or beyond capacity, and
// plain errors for malformed inputs (non-finite rates, flows other than
// the ones the routing was computed for, non-positive link rates). A
// successful estimate is always finite.
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
	// Flows are resolved by position: flow i's legs are RT.Forward(i)
	// and RT.Echo(i).
	if !in.RT.RoutedFrom(in.Flows) {
		return nil, errors.New("analytic: routing was computed for a different flow set")
	}

	base := in.G.PortBase()
	n := int(base[len(base)-1])
	scratch := portScratch.Get().(*[]portState)
	ports := slices.Grow((*scratch)[:0], n)[:n]
	clear(ports)
	defer func() {
		*scratch = ports
		portScratch.Put(scratch)
	}()
	loadPorts(&in, ports)
	est := &Estimate{Paths: make([]PathEstimate, len(in.Flows)), in: in}
	if err := solvePorts(&in, ports, est, nil); err != nil {
		return nil, err
	}

	// Pass 3: sum each path's legs. Per-hop sojourn = queueing wait +
	// transmission + propagation — exactly the DES composition (host
	// NIC serialization, switch port sojourn, link delay). Waits are
	// treated as independent exponentials (Var = W²) so the path-wait
	// variance is the sum of squares, then the RTT p99 is the
	// deterministic part plus a gamma-tail quantile of the wait sum.
	type acc struct {
		mean, det, wvar float64
		hops            int
	}
	sumLeg := func(leg topo.Leg) acc {
		var a acc
		for i, port := range leg.Ports {
			st := &ports[base[leg.Nodes[i]]+port]
			a.mean += st.wait + st.det
			a.det += st.det
			a.wvar += st.wait * st.wait
			a.hops++
		}
		return a
	}
	var meanSum float64
	for i := range est.Paths {
		fleg := in.RT.Forward(i)
		fwd, rev := sumLeg(fleg), sumLeg(in.RT.Echo(i))
		pe := &est.Paths[i]
		*pe = PathEstimate{
			Src:         int(fleg.Nodes[0]),
			Dst:         int(fleg.Nodes[len(fleg.Nodes)-1]),
			Hops:        fwd.hops,
			MeanFwdSec:  fwd.mean,
			MeanRTTSec:  fwd.mean + rev.mean,
			WaitRTTSec:  (fwd.mean - fwd.det) + (rev.mean - rev.det),
			WaitVarSec2: fwd.wvar + rev.wvar,
			DetRTTSec:   fwd.det + rev.det,
		}
		pe.P99RTTSec = pe.DetRTTSec + gammaP99(pe.WaitRTTSec, pe.WaitVarSec2)
		est.P99RTTSec = math.Max(est.P99RTTSec, pe.P99RTTSec)
		meanSum += fwd.mean + rev.mean
	}
	if len(in.Flows) > 0 {
		est.MeanRTTSec = meanSum / float64(len(in.Flows))
	}
	return est, nil
}

// loadPorts is pass 1: it accumulates every flow's forward- and echo-leg
// demand on the egress ports the legs cross, into ports (indexed by the
// graph's dense port numbering).
func loadPorts(in *Input, ports []portState) {
	base := in.G.PortBase()
	accumulate := func(leg topo.Leg) {
		for i, port := range leg.Ports {
			st := &ports[base[leg.Nodes[i]]+port]
			st.lambda += in.FlowRate
			st.flows++
		}
	}
	for i := range in.Flows {
		accumulate(in.RT.Forward(i))
		accumulate(in.RT.Echo(i))
	}
}

// solvePorts is pass 2: it solves each loaded port as a G/G/1 queue, in
// (node, port) order, leaving its wait and deterministic sojourn in ports
// and the maxima in est, and hands each port's solved state to emit when
// emit is not nil. The solves are independent, so the order only decides
// which saturated port an ErrUnstable names and the order of Ports.
func solvePorts(in *Input, ports []portState, est *Estimate, emit func(PortLoad)) error {
	base := in.G.PortBase()
	transPerBit := 8 * in.MeanPktBytes
	for node, links := range in.G.Ports {
		for port, link := range links {
			st := &ports[int(base[node])+port]
			if st.flows == 0 {
				continue
			}
			if !(link.RateBps > 0) {
				return fmt.Errorf("analytic: port %d.%d has non-positive rate %v", node, port, link.RateBps)
			}
			st.det = transPerBit/link.RateBps + link.Delay
			mu := link.RateBps / (8 * in.MeanPktBytes)
			pl := PortLoad{Node: node, Port: port, Lambda: st.lambda, Mu: mu, Flows: int(st.flows)}
			if st.lambda > 0 {
				pl.Rho = st.lambda / mu
				if pl.Rho >= 1 {
					return fmt.Errorf("analytic: port %d.%d offered rho %.3f (lambda %.0f pps, mu %.0f pps): %w",
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
					return err
				}
				pl.WaitSec = wait
				if in.Buffer > 0 {
					b, err := queueing.MM1KBlocking(st.lambda, mu, in.Buffer)
					if err != nil {
						return err
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
			if emit != nil {
				emit(pl)
			}
		}
	}
	return nil
}

// Ports returns the solved state of every loaded egress port, in (node,
// port) order. The serving tier reads only the per-flow and aggregate
// figures, so Analyze does not keep this list: Ports solves the ports
// again from the estimate's input, to the same bits. It returns nil on
// the zero Estimate.
func (e *Estimate) Ports() []PortLoad {
	if e.in.G == nil {
		return nil
	}
	base := e.in.G.PortBase()
	ports := make([]portState, base[len(base)-1])
	loadPorts(&e.in, ports)
	var out []PortLoad
	if err := solvePorts(&e.in, ports, &Estimate{}, func(pl PortLoad) { out = append(out, pl) }); err != nil {
		return nil // the same input solved once already
	}
	return out
}

// PathStats converts the estimate into the engine's per-path summary
// shape (metrics.PathStats, seconds), keyed by des.PathKey. Flows over
// the same host pair pool into one row, as the engine pools their
// samples under one key: in flow order, each later flow's mean RTT and
// wait variance are averaged into the row and its p99 maxed. Jitter
// uses the same per-hop independent-wait approximation: for a path-wait
// standard deviation σ the mean absolute difference of two independent
// samples is 2σ/√π and its p99 is ≈ 2.576·√2·σ (normal-difference
// approximation).
func (e *Estimate) PathStats() map[string]metrics.PathStats {
	type row struct{ mean, p99, wvar float64 }
	rows := make(map[string]row, len(e.Paths))
	for _, p := range e.Paths {
		k := des.PathKey(p.Src, p.Dst)
		if r, ok := rows[k]; ok {
			rows[k] = row{(r.mean + p.MeanRTTSec) / 2, math.Max(r.p99, p.P99RTTSec), (r.wvar + p.WaitVarSec2) / 2}
		} else {
			rows[k] = row{p.MeanRTTSec, p.P99RTTSec, p.WaitVarSec2}
		}
	}
	out := make(map[string]metrics.PathStats, len(rows))
	for k, r := range rows {
		sigma := math.Sqrt(r.wvar)
		out[k] = metrics.PathStats{
			AvgRTT:    r.mean,
			P99RTT:    r.p99,
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

// Package core is DeepQueueNet itself: the packet-stream and device
// models of §3.2, network composition with one-to-one topology
// correspondence (SInit, §3.1), the PFM (Eqs. 6–7) as each device's
// egress-port grouping of the packets routed through it, the
// PTM-driven device operators, and the IRSA execution engine (SRun,
// §3.2.4) with worker-parallel inference — the CPU analogue of the paper's
// multi-GPU model parallelism (Fig. 11).
package core

import (
	"errors"
	"fmt"
	"sort"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// FlowSpec describes one simulated flow: endpoints, scheduling class
// attributes (Eqs. 8–9), and the TGen arrival generator.
type FlowSpec struct {
	FlowID int
	Src    int // host node ID
	Dst    int // host node ID
	Class  int
	Weight float64
	Proto  uint8
	Gen    traffic.Generator
	Start  float64
	Stop   float64 // no arrivals at or after (0 = run duration)
}

// Config configures a DeepQueueNet simulation.
type Config struct {
	// Sched is the TM configuration of every switch.
	Sched des.SchedConfig
	// Echo reflects packets at destinations to measure RTT.
	Echo bool
	// Model is the trained device model for all switches. It is
	// required, and it must have at least as many ports as the largest
	// switch degree.
	Model *ptm.PTM
	// WrapDevice, when set, wraps every switch's validated device model
	// (PTMModel{Model}) just before the run — the one per-device seam,
	// for fault injection (internal/chaos), instrumentation and the
	// batching plane. Returning the model unchanged is the identity;
	// returning nil degrades the device to the exact FIFO-serialization
	// fallback as if its model had failed validation.
	WrapDevice func(switchID int, m DeviceModel) DeviceModel
	// Shards is the number of parallel inference workers ("GPUs"). Every
	// IRSA sweep they pull devices off one heaviest-first queue. 0 means
	// 1.
	Shards int
	// Damping blends each iteration's predicted sojourns with the
	// previous estimate: s ← Damping·ŝ + (1−Damping)·s. 1 disables
	// damping; 0 uses the default 0.7. Damping keeps the fixed-point
	// iteration contractive when per-device prediction error feeds back
	// through downstream arrival estimates at high load.
	Damping float64
	// Observer, when non-nil, receives per-iteration and per-device-
	// inference telemetry (internal/obs.EngineObserver is the standard
	// implementation). nil costs one pointer check per call site; the
	// observer's clock reads never feed back into simulation state, so
	// attaching one cannot perturb results.
	Observer Observer
}

// hop is one device traversal on a packet's path.
type hop struct {
	device    int // topo node ID (switch) or host ID (host egress)
	isHost    bool
	inPort    int
	outPort   int
	rateBps   float64 // egress port line rate
	linkDelay float64 // propagation delay after this device
}

// packet is one simulated packet with its full, routing-determined path.
type packet struct {
	id     uint64
	flow   int
	size   int
	class  int
	weight float64
	proto  uint8
	create float64
	echo   bool // this record is the echo leg
	src    int
	dst    int

	hops    []hop
	fwdHops int       // hops belonging to the forward leg
	arrive  []float64 // arrival estimate at each hop
	sojourn []float64 // predicted sojourn at each hop
}

// Sim is a composed DeepQueueNet model ready to run: the neural-network
// architecture maps one-to-one to the target topology.
type Sim struct {
	G   *topo.Graph
	RT  *topo.Routing
	Cfg Config

	flows []FlowSpec
}

// NewSim validates and creates a simulation (the SInit stage). The
// topology is structurally validated here — in particular a zero- or
// negative-rate link, which would otherwise produce +Inf transmission
// times during inference, is rejected with a descriptive error.
func NewSim(g *topo.Graph, rt *topo.Routing, cfg Config) (*Sim, error) {
	if cfg.Model == nil {
		return nil, errors.New("core: no device model configured")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid topology: %w", err)
	}
	if d := g.MaxSwitchDegree(); cfg.Model.NumPorts < d {
		return nil, fmt.Errorf("core: device model trained for %d ports cannot drive degree-%d switches",
			cfg.Model.NumPorts, d)
	}
	return &Sim{G: g, RT: rt, Cfg: cfg}, nil
}

// AddFlow registers a flow with the simulation.
func (s *Sim) AddFlow(f FlowSpec) {
	if f.Gen == nil {
		panic("core: flow without generator")
	}
	s.flows = append(s.flows, f)
}

// Result is the simulation output: end-to-end deliveries plus the
// per-device predicted packet traces — the packet-level visibility the
// paper's DNN-based EPEs lack.
type Result struct {
	Deliveries   []des.Delivery
	DeviceVisits map[int][]des.Visit
	Iterations   int // IRSA iterations actually executed
	Diameter     int // topology diameter
	Bound        int // Theorem 3.1 iteration bound (longest hop sequence)
	// FinalDelta is the largest change of any per-hop arrival estimate
	// in the last completed iteration (seconds; 0 if none completed).
	// Converged reports that it fell to convergeEps and ended
	// the run; false means the run stopped at Bound, was canceled, or
	// failed.
	FinalDelta float64
	Converged  bool
	// DegradedDevices lists (sorted) the devices whose PTM was missing
	// or failed validation and that therefore ran the exact
	// transmission-time + FIFO-serialization fallback model. A non-empty
	// set means the run completed with reduced accuracy on those devices
	// rather than failing.
	DegradedDevices []int
	// DegradedReasons explains, per degraded device, why its model was
	// rejected.
	DegradedReasons map[int]string
}

// Degraded reports whether any device ran the fallback model.
func (r *Result) Degraded() bool { return len(r.DegradedDevices) > 0 }

// PathDelays mirrors des.Network.PathDelays for metric comparison.
func (r *Result) PathDelays(rtt bool) metrics.PathSamples {
	out := metrics.PathSamples{}
	for _, d := range r.Deliveries {
		if d.IsRTT != rtt {
			continue
		}
		src, dst := d.Src, d.Dst
		if rtt {
			src, dst = d.Dst, d.Src
		}
		k := des.PathKey(src, dst)
		out[k] = append(out[k], d.Delay())
	}
	return out
}

// genPackets runs the TGen stage: materialize every packet with its full
// forwarding path (hosts' egress → switch chain → destination, plus the
// echo leg when enabled).
func (s *Sim) genPackets(duration float64) ([]*packet, error) {
	var pkts []*packet
	var id uint64
	for _, f := range s.flows {
		fi := s.RT.FlowIndex(f.FlowID)
		if fi < 0 {
			return nil, fmt.Errorf("core: flow %d has no routed path", f.FlowID)
		}
		// Every packet of the flow crosses the same devices, so they all
		// share one read-only hop list. The echo leg follows the routed
		// reverse path: ECMP tie-breaks differ by direction, so it need
		// not be the reversed forward path (it must match the DES exactly).
		fwd, echo := s.RT.Forward(fi), s.RT.Echo(fi)
		hops := s.legHops(make([]hop, 0, len(fwd.Ports)+len(echo.Ports)), fwd)
		fwdHops := len(hops)
		if s.Cfg.Echo {
			hops = s.legHops(hops, echo)
		}
		stop := f.Stop
		if stop <= 0 || stop > duration {
			stop = duration
		}
		t := f.Start
		for {
			gap, size := f.Gen.NextArrival()
			t += gap
			if t >= stop {
				break
			}
			id++
			p := &packet{
				id: id, flow: f.FlowID, size: size, class: f.Class,
				weight: f.Weight, proto: f.Proto, create: t,
				src: f.Src, dst: f.Dst, hops: hops, fwdHops: fwdHops,
			}
			p.arrive = make([]float64, len(p.hops))
			p.sojourn = make([]float64, len(p.hops))
			pkts = append(pkts, p)
		}
	}
	sort.Slice(pkts, func(i, j int) bool { return pkts[i].create < pkts[j].create })
	return pkts, nil
}

// legHops appends one routed leg's device hops to hops: the source
// host's egress followed by each switch traversal, each leaving through
// the port the routing chose for it.
func (s *Sim) legHops(hops []hop, leg topo.Leg) []hop {
	inPort := -1
	for i, out := range leg.Ports {
		dev := int(leg.Nodes[i])
		port := s.G.Ports[dev][out]
		hops = append(hops, hop{
			device: dev, isHost: i == 0, inPort: inPort, outPort: int(out),
			rateBps: port.RateBps, linkDelay: port.Delay,
		})
		inPort = port.PeerPort
	}
	return hops
}

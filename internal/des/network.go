package des

import (
	"fmt"
	"strconv"

	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/topo"
)

// Network instantiates a topo.Graph as a live DES network: hosts,
// switches, and one Link device per directed edge, wired port-to-port
// exactly as the topology describes.
type Network struct {
	Sim      *Simulator
	Trace    *Collector
	Graph    *topo.Graph
	Routing  *topo.Routing
	Hosts    map[int]*Host   // keyed by topo node ID
	Switches map[int]*Switch // keyed by topo node ID
	// LinkID maps (node, port) to the directed link device carrying
	// traffic out of that port.
	LinkID map[[2]int]int

	nextPktID uint64
}

// NetConfig configures network instantiation.
type NetConfig struct {
	Sched SchedConfig
	Echo  bool // hosts reflect packets for RTT measurement
}

// Build wires a DES network for graph g with routing rt.
func Build(g *topo.Graph, rt *topo.Routing, cfg NetConfig) *Network {
	sim := NewSimulator()
	trace := NewCollector()
	n := &Network{
		Sim: sim, Trace: trace, Graph: g, Routing: rt,
		Hosts:    make(map[int]*Host),
		Switches: make(map[int]*Switch),
		LinkID:   make(map[[2]int]int),
	}
	// Device ID space: topo node IDs for hosts/switches, link devices
	// numbered after them.
	linkID := g.NumNodes()

	for id, kind := range g.Kinds {
		switch kind {
		case topo.Host:
			if g.Degree(id) != 1 {
				panic(fmt.Sprintf("des: host %d must have exactly one port, has %d", id, g.Degree(id)))
			}
			n.Hosts[id] = NewHost(sim, id, g.Ports[id][0].RateBps, cfg.Echo, trace, &n.nextPktID)
		case topo.Switch:
			rates := make([]float64, g.Degree(id))
			for p, port := range g.Ports[id] {
				rates[p] = port.RateBps
			}
			sw := NewSwitch(sim, id, rates, cfg.Sched, trace)
			swID := id
			sw.Forward = func(flowID, inPort int) int {
				return rt.Lookup(swID, flowID, inPort)
			}
			n.Switches[id] = sw
		}
	}

	// One Link device per directed edge (node, port) -> peer.
	for id := range g.Kinds {
		for p, port := range g.Ports[id] {
			l := NewLink(sim, linkID, port.Delay, trace)
			n.LinkID[[2]int{id, p}] = linkID
			linkID++
			// Link delivers into the peer's ingress port.
			switch g.Kinds[port.Peer] {
			case topo.Host:
				l.Connect(n.Hosts[port.Peer], port.PeerPort)
			case topo.Switch:
				l.Connect(n.Switches[port.Peer], port.PeerPort)
			}
			// Attach the link to the emitting side.
			switch g.Kinds[id] {
			case topo.Host:
				n.Hosts[id].Connect(l, 0)
			case topo.Switch:
				n.Switches[id].ConnectPort(p, l, 0)
			}
		}
	}
	return n
}

// AddFlow injects a flow at its source host.
func (n *Network) AddFlow(src int, f Flow) {
	h, ok := n.Hosts[src]
	if !ok {
		panic(fmt.Sprintf("des: node %d is not a host", src))
	}
	h.AddFlow(f)
}

// Run advances simulated time to until.
func (n *Network) Run(until float64) { n.Sim.Run(until) }

// PathKey formats the per-path sample key used by metrics.Compare,
// "src->dst".
func PathKey(src, dst int) string {
	var buf [42]byte // two 64-bit decimals with sign, plus the arrow
	b := strconv.AppendInt(buf[:0], int64(src), 10)
	b = append(b, "->"...)
	return string(strconv.AppendInt(b, int64(dst), 10))
}

// PathDelays extracts per-path delay samples from the recorded
// deliveries. With rtt true it collects round-trip (echo-leg) records;
// otherwise one-way deliveries. Samples are keyed by forward-direction
// source and destination.
func (n *Network) PathDelays(rtt bool) metrics.PathSamples {
	out := metrics.PathSamples{}
	for _, d := range n.Trace.Deliveries {
		if d.IsRTT != rtt {
			continue
		}
		src, dst := d.Src, d.Dst
		if rtt {
			// Echo-leg records are addressed back to the original
			// source; restore the forward orientation.
			src, dst = d.Dst, d.Src
		}
		k := PathKey(src, dst)
		out[k] = append(out[k], d.Delay())
	}
	return out
}

// StrayCount sums packets that arrived at a wrong host (routing errors).
func (n *Network) StrayCount() int {
	total := 0
	for _, h := range n.Hosts {
		total += h.Stray
	}
	return total
}

// QueueMonitor samples per-class system occupancy (queued + in service)
// of one switch egress port at a fixed interval, for the Appendix B
// queue-length CDF comparison (Fig. 14).
type QueueMonitor struct {
	Samples [][]int // one snapshot per tick: per-class occupancy
}

// MonitorQueue starts sampling (switch, port) every interval seconds
// until the simulation ends.
func (n *Network) MonitorQueue(switchID, port int, interval float64) *QueueMonitor {
	m := &QueueMonitor{}
	sw := n.Switches[switchID]
	var tick func()
	tick = func() {
		m.Samples = append(m.Samples, sw.Occupancy(port))
		n.Sim.After(interval, tick)
	}
	n.Sim.After(interval, tick)
	return m
}

// ClassLens returns the sampled queue lengths of one class as float64s.
func (m *QueueMonitor) ClassLens(class int) []float64 {
	out := make([]float64, 0, len(m.Samples))
	for _, s := range m.Samples {
		if class < len(s) {
			out = append(out, float64(s[class]))
		}
	}
	return out
}

package des

import "fmt"

// ForwardFunc is the paper's forwarding-table abstraction (Eq. 6): it maps
// (flow ID, ingress port) to the egress port. Returning a negative port
// drops the packet (no route).
type ForwardFunc func(flowID, inPort int) int

// Switch is a K-port store-and-forward device. Each egress port has a
// transmission server draining a Scheduler at the port line rate; the
// sojourn a packet experiences between ingress arrival and transmission
// completion is exactly what the PTM learns to predict.
type Switch struct {
	sim      *Simulator
	ID       int
	NumPorts int
	Forward  ForwardFunc
	trace    *Collector

	egress []*portServer
	peers  []portRef
}

// portServer serializes packets of one egress port at rate bits/sec.
type portServer struct {
	sched   Scheduler
	rateBps float64
	busy    bool
	serving *Packet // packet currently on the wire (nil when idle)
}

// NewSwitch creates a switch with one port per entry of rates. Each
// egress port gets its own scheduler built from schedCfg and transmits at
// its port's rate in bits/s.
func NewSwitch(sim *Simulator, id int, rates []float64, schedCfg SchedConfig, trace *Collector) *Switch {
	if len(rates) == 0 {
		panic("des: switch needs at least one port")
	}
	numPorts := len(rates)
	sw := &Switch{sim: sim, ID: id, NumPorts: numPorts, trace: trace,
		egress: make([]*portServer, numPorts),
		peers:  make([]portRef, numPorts)}
	for i := range sw.egress {
		if rates[i] <= 0 {
			panic("des: switch port rate must be positive")
		}
		sw.egress[i] = &portServer{sched: schedCfg.Build(), rateBps: rates[i]}
	}
	return sw
}

// ConnectPort attaches egress port out of the switch to neighbour n's
// ingress port inPort (typically through a Link).
func (s *Switch) ConnectPort(out int, n Node, inPort int) {
	s.peers[out] = portRef{node: n, inPort: inPort}
}

// Receive implements Node: forward the packet and enqueue it at the
// egress port server.
func (s *Switch) Receive(p *Packet, inPort int) {
	out := -1
	if s.Forward != nil {
		out = s.Forward(p.FlowID, inPort)
	}
	s.trace.arrive(Visit{
		PktID: p.ID, FlowID: p.FlowID, Device: s.ID, InPort: inPort,
		OutPort: out, Size: p.Size, Class: p.Class, Weight: p.Weight,
		Proto: p.Proto, Arrive: s.sim.Now(),
	})
	if out < 0 || out >= s.NumPorts {
		s.trace.drop(s.ID, p.ID)
		return
	}
	ps := s.egress[out]
	if !ps.sched.Enqueue(p) {
		s.trace.drop(s.ID, p.ID)
		return
	}
	if !ps.busy {
		s.startTransmission(out)
	}
}

func (s *Switch) startTransmission(out int) {
	ps := s.egress[out]
	p := ps.sched.Dequeue()
	if p == nil {
		ps.busy = false
		ps.serving = nil
		return
	}
	ps.busy = true
	ps.serving = p
	txTime := float64(p.Size*8) / ps.rateBps
	s.sim.After(txTime, func() {
		s.trace.depart(s.ID, p.ID, s.sim.Now())
		p.Hops++
		peer := s.peers[out]
		if peer.node != nil {
			peer.node.Receive(p, peer.inPort)
		}
		s.startTransmission(out)
	})
}

// Occupancy returns the per-class number of packets in the system at
// egress port i: queued packets plus the one in service. This matches
// the queueing-theoretic state definition (Appendix B).
func (s *Switch) Occupancy(i int) []int {
	ps := s.egress[i]
	occ := append([]int(nil), ps.sched.PerClassLen()...)
	if ps.serving != nil {
		c := ps.serving.Class
		if c < 0 {
			c = 0
		}
		if c >= len(occ) {
			c = len(occ) - 1
		}
		occ[c]++
	}
	return occ
}

// String identifies the switch.
func (s *Switch) String() string { return fmt.Sprintf("switch(%d, %d ports)", s.ID, s.NumPorts) }

// Link is a pure propagation-delay device connecting an upstream egress
// port to a downstream ingress port. Serialization happens at the egress
// port server (see DESIGN.md), so links never queue.
type Link struct {
	sim   *Simulator
	ID    int
	Delay float64 // propagation delay in seconds
	peer  portRef
	trace *Collector
}

// NewLink creates a link with the given one-way propagation delay.
func NewLink(sim *Simulator, id int, delay float64, trace *Collector) *Link {
	if delay < 0 {
		panic("des: negative link delay")
	}
	return &Link{sim: sim, ID: id, Delay: delay, trace: trace}
}

// Connect attaches the link output to node n's ingress port inPort.
func (l *Link) Connect(n Node, inPort int) { l.peer = portRef{node: n, inPort: inPort} }

// Receive implements Node: deliver the packet after the propagation delay.
func (l *Link) Receive(p *Packet, inPort int) {
	l.trace.arrive(Visit{
		PktID: p.ID, FlowID: p.FlowID, Device: l.ID, InPort: inPort,
		OutPort: 0, Size: p.Size, Class: p.Class, Weight: p.Weight,
		Proto: p.Proto, Arrive: l.sim.Now(),
	})
	l.sim.After(l.Delay, func() {
		l.trace.depart(l.ID, p.ID, l.sim.Now())
		if l.peer.node != nil {
			l.peer.node.Receive(p, l.peer.inPort)
		}
	})
}

package des

// ArrivalSource produces a flow's packet arrivals: each call returns the
// gap to the next packet (seconds) and that packet's size in bytes.
// internal/traffic implements this interface for Poisson, On-Off, MAP
// and the synthetic stand-ins for the paper's captured traces.
type ArrivalSource interface {
	NextArrival() (gap float64, size int)
}

// Flow describes one unidirectional packet flow injected at a host.
type Flow struct {
	FlowID int
	Dst    int // destination host ID
	Class  int
	Weight float64
	Proto  uint8
	Source ArrivalSource
	Start  float64 // first-arrival reference time
	Stop   float64 // no arrivals at or after this time (0 = no limit)
}

// Host is a traffic endpoint. It injects flows through a serializing
// egress port, sinks packets addressed to it, and (when Echo is set)
// reflects non-echo packets back to their source so the collector can
// record true round-trip times.
type Host struct {
	sim   *Simulator
	ID    int
	Echo  bool
	trace *Collector

	egress *portServer
	peer   portRef
	nextID *uint64

	// Stray counts packets that arrived at the wrong host (a routing
	// bug indicator asserted by tests).
	Stray int
}

// NewHost creates a host whose egress transmits at rateBps bits/s.
// nextID is the shared packet-ID counter of the network.
func NewHost(sim *Simulator, id int, rateBps float64, echo bool, trace *Collector, nextID *uint64) *Host {
	if rateBps <= 0 {
		panic("des: host rate must be positive")
	}
	return &Host{sim: sim, ID: id, Echo: echo, trace: trace,
		egress: &portServer{sched: NewFIFO(0), rateBps: rateBps},
		nextID: nextID}
}

// Connect attaches the host's egress to node n's ingress port inPort.
func (h *Host) Connect(n Node, inPort int) { h.peer = portRef{node: n, inPort: inPort} }

// AddFlow starts injecting the flow's packets.
func (h *Host) AddFlow(f Flow) {
	if f.Source == nil {
		panic("des: flow without arrival source")
	}
	var emit func()
	t := f.Start
	emit = func() {
		gap, size := f.Source.NextArrival()
		t += gap
		if f.Stop > 0 && t >= f.Stop {
			return
		}
		h.sim.At(t, func() {
			*h.nextID++
			p := &Packet{
				ID: *h.nextID, FlowID: f.FlowID, Size: size, Proto: f.Proto,
				Class: f.Class, Weight: f.Weight,
				Src: h.ID, Dst: f.Dst, CreatedAt: h.sim.Now(),
			}
			h.send(p)
			emit()
		})
	}
	emit()
}

// send enqueues a packet at the host's egress port.
func (h *Host) send(p *Packet) {
	if !h.egress.sched.Enqueue(p) {
		return
	}
	if !h.egress.busy {
		h.startTransmission()
	}
}

func (h *Host) startTransmission() {
	p := h.egress.sched.Dequeue()
	if p == nil {
		h.egress.busy = false
		return
	}
	h.egress.busy = true
	txTime := float64(p.Size*8) / h.egress.rateBps
	h.sim.After(txTime, func() {
		if h.peer.node != nil {
			h.peer.node.Receive(p, h.peer.inPort)
		}
		h.startTransmission()
	})
}

// Receive implements Node: sink or reflect arriving packets.
func (h *Host) Receive(p *Packet, inPort int) {
	if p.Dst != h.ID {
		h.Stray++
		return
	}
	if p.IsEcho {
		h.trace.deliver(Delivery{
			PktID: p.ID, FlowID: p.FlowID, Src: p.Src, Dst: p.Dst,
			SendTime: p.CreatedAt, RecvTime: h.sim.Now(), IsRTT: true,
			Hops: p.Hops,
		})
		return
	}
	h.trace.deliver(Delivery{
		PktID: p.ID, FlowID: p.FlowID, Src: p.Src, Dst: p.Dst,
		SendTime: p.CreatedAt, RecvTime: h.sim.Now(), IsRTT: false,
		Hops: p.Hops,
	})
	if h.Echo {
		// Reflect: same packet identity, reversed direction; CreatedAt
		// keeps the original send time so the echo delivery records the
		// full round trip.
		echo := *p
		echo.Src, echo.Dst = p.Dst, p.Src
		echo.IsEcho = true
		h.send(&echo)
	}
}

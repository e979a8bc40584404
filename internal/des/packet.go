package des

// Packet carries the network-layer information the paper models (Eq. 1):
// unique packet ID, flow ID, length, and transport protocol, plus the
// scheduling class attributes assigned by the flow-to-priority/weight
// tables (Eqs. 8–9).
type Packet struct {
	ID     uint64
	FlowID int
	Size   int   // bytes
	Proto  uint8 // transport protocol number (6 TCP-like, 17 UDP-like)

	// Scheduling class for multi-queue TMs. Class indexes the scheduler
	// queue; for SP lower class number means higher priority; for
	// WFQ/WRR/DRR Weight is the class share.
	Class  int
	Weight float64

	Src, Dst  int // host node IDs
	CreatedAt float64
	IsEcho    bool // reply leg of an RTT probe
	Hops      int
}

// Node is anything that can accept a packet on one of its ingress ports.
type Node interface {
	Receive(p *Packet, inPort int)
}

// portRef identifies a neighbour's ingress port.
type portRef struct {
	node   Node
	inPort int
}

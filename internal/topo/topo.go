// Package topo models network topologies: nodes (hosts and switches),
// bidirectional capacity/delay edges with per-node port numbering,
// shortest-path routing with deterministic ECMP, and the graph diameter
// that bounds IRSA's iteration count (Theorem 3.1).
//
// Builders cover every topology in the paper's evaluation (§6.1): Line,
// 2-D torus, the MimicNet-parameterized FatTree variants of Table 3, and
// the Abilene and GÉANT wide-area networks from the Internet Topology Zoo.
package topo

import (
	"errors"
	"fmt"
	"sync"
)

// Kind distinguishes traffic endpoints from forwarding devices.
type Kind int

// Node kinds.
const (
	Host Kind = iota
	Switch
)

// Port is one attachment point of a node: the peer node, the peer's port
// index, and the link properties toward the peer.
type Port struct {
	Peer     int
	PeerPort int
	RateBps  float64
	Delay    float64
}

// Graph is a topology: node kinds/names and per-node ordered port lists.
//
// Everything about a graph that routing needs and that no flow set can
// change is compiled once, on first use, into an immutable fabric (see
// fabric.go). AddNode and Connect discard it, so a graph may still be
// extended after it has been routed; a graph that is no longer mutated
// is safe for concurrent Route/Diameter calls.
type Graph struct {
	Kinds []Kind
	Names []string
	Ports [][]Port

	once sync.Once
	fab  *fabric
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(k Kind, name string) int {
	g.Kinds = append(g.Kinds, k)
	g.Names = append(g.Names, name)
	g.Ports = append(g.Ports, nil)
	g.once, g.fab = sync.Once{}, nil
	return len(g.Kinds) - 1
}

// Connect adds a bidirectional edge between a and b with the given rate
// (bits/s) and one-way propagation delay (seconds), consuming one new
// port on each endpoint. It returns the port indices used on a and b.
func (g *Graph) Connect(a, b int, rateBps, delay float64) (aPort, bPort int) {
	if a == b {
		panic("topo: self loop")
	}
	aPort = len(g.Ports[a])
	bPort = len(g.Ports[b])
	g.Ports[a] = append(g.Ports[a], Port{Peer: b, PeerPort: bPort, RateBps: rateBps, Delay: delay})
	g.Ports[b] = append(g.Ports[b], Port{Peer: a, PeerPort: aPort, RateBps: rateBps, Delay: delay})
	g.once, g.fab = sync.Once{}, nil
	return aPort, bPort
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Kinds) }

// Degree returns the number of ports of node n.
func (g *Graph) Degree(n int) int { return len(g.Ports[n]) }

// Hosts returns the IDs of all host nodes.
func (g *Graph) Hosts() []int { return g.ofKind(Host) }

// Switches returns the IDs of all switch nodes.
func (g *Graph) Switches() []int { return g.ofKind(Switch) }

func (g *Graph) ofKind(k Kind) []int {
	n := 0
	for _, kind := range g.Kinds {
		if kind == k {
			n++
		}
	}
	out := make([]int, 0, n)
	for i, kind := range g.Kinds {
		if kind == k {
			out = append(out, i)
		}
	}
	return out
}

// MaxSwitchDegree returns the largest port count over all switches: a
// trained K-port PTM can drive any topology whose switch degree is ≤ K
// (§6.1, topology generality).
func (g *Graph) MaxSwitchDegree() int {
	m := 0
	for _, s := range g.Switches() {
		if d := g.Degree(s); d > m {
			m = d
		}
	}
	return m
}

// Diameter returns the maximum finite hop distance between any two nodes.
// This is the IRSA iteration bound of Theorem 3.1.
func (g *Graph) Diameter() int { return g.fabric().diameter }

// Connected reports whether every node can reach every other node.
func (g *Graph) Connected() bool {
	fb := g.fabric()
	for _, d := range fb.dist[:fb.n] { // the field toward node 0
		if d < 0 {
			return false
		}
	}
	return true
}

// ecmpHash mixes flow ID and node ID into a deterministic ECMP choice.
func ecmpHash(flowID, node int) uint64 {
	x := uint64(flowID)*0x9e3779b97f4a7c15 + uint64(node)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x
}

// Validate checks structural invariants: symmetric port references and
// positive rates.
func (g *Graph) Validate() error {
	for n := range g.Ports {
		for pi, p := range g.Ports[n] {
			if p.Peer < 0 || p.Peer >= g.NumNodes() {
				return fmt.Errorf("topo: node %d port %d: bad peer %d", n, pi, p.Peer)
			}
			back := g.Ports[p.Peer][p.PeerPort]
			if back.Peer != n || back.PeerPort != pi {
				return fmt.Errorf("topo: asymmetric edge %d:%d <-> %d:%d", n, pi, p.Peer, p.PeerPort)
			}
			if p.RateBps <= 0 {
				return fmt.Errorf("topo: node %d (%s) port %d: link rate must be positive, got %g bps (a zero-rate link would make transmission times infinite)",
					n, g.Names[n], pi, p.RateBps)
			}
			if p.Delay < 0 {
				return fmt.Errorf("topo: node %d port %d: negative delay", n, pi)
			}
		}
	}
	if !g.Connected() {
		return errors.New("topo: graph not connected")
	}
	return nil
}

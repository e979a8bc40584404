package topo

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// FlowDef names one unidirectional flow for routing purposes.
type FlowDef struct {
	FlowID   int
	Src, Dst int // host node IDs
}

// Leg is one direction of a routed flow: Nodes[i] forwards out of its
// port Ports[i] to reach Nodes[i+1], so len(Ports) == len(Nodes)-1. The
// slices alias the Routing's storage and must not be modified.
type Leg struct {
	Nodes []int32
	Ports []int32
}

// fwdEntry is one row of a device's forwarding table — the paper's
// forward(fid, in_port) lookup (Eq. 6). Keying on the ingress port
// distinguishes the forward leg from the echo leg when both traverse the
// same switch; inPort -1 is the wildcard a flow originating at the
// device itself installs.
type fwdEntry struct {
	flow        int
	dev         int32
	inPort, out int32
}

// Routing holds the routes of one flow set: per flow, in the order the
// flows were given to Route, the forward and echo legs with the egress
// port taken at every step, and per switch the forwarding table those
// legs install. The tables are derived from the legs on the first
// Lookup, so callers that only read legs (the analytic tier, the
// engine) never pay for them. It is safe for concurrent use.
type Routing struct {
	g *Graph
	// from is the first element of the flow slice Route was given, so
	// RoutedFrom can recognize that slice in O(1).
	from    *FlowDef
	flowIDs []int
	// byID lists flow positions in ascending flow-ID order.
	byID []int32
	// Leg 2i is flow i's forward leg and leg 2i+1 its echo leg. Leg k
	// occupies nodes[legOff[k]:legOff[k+1]]; ports uses the same offsets
	// and leaves each leg's last slot unused.
	legOff []int32
	nodes  []int32
	ports  []int32
	// table[devOff[d]:devOff[d+1]] is device d's forwarding table,
	// sorted by (flow, inPort); built by buildTables.
	tableOnce sync.Once
	devOff    []int32
	table     []fwdEntry
}

// Graph returns the graph the routes were computed on.
func (rt *Routing) Graph() *Graph { return rt.g }

// RoutedFrom reports whether flows is the very slice Route was given —
// same backing array, same length — so that flows[i] is the flow at
// position i of Forward and Echo. It costs O(1): callers that hold the
// routed slice resolve flows by position instead of by FlowIndex.
func (rt *Routing) RoutedFrom(flows []FlowDef) bool {
	return len(flows) == len(rt.flowIDs) && (len(flows) == 0 || &flows[0] == rt.from)
}

// FlowIndex returns the position of flowID in the flow set Route was
// given, or -1 when the flow was not routed.
func (rt *Routing) FlowIndex(flowID int) int {
	i, ok := slices.BinarySearchFunc(rt.byID, flowID, func(pos int32, id int) int {
		return cmp.Compare(rt.flowIDs[pos], id)
	})
	if !ok {
		return -1
	}
	return int(rt.byID[i])
}

// Forward returns the forward leg (source host, switches…, destination
// host) of the flow at position i.
func (rt *Routing) Forward(i int) Leg { return rt.leg(2 * i) }

// Echo returns the echo leg (destination host back to the source) of the
// flow at position i. ECMP tie-breaks are direction-dependent, so it is
// not necessarily the reversed forward leg.
func (rt *Routing) Echo(i int) Leg { return rt.leg(2*i + 1) }

func (rt *Routing) leg(k int) Leg {
	lo, hi := rt.legOff[k], rt.legOff[k+1]
	return Leg{Nodes: rt.nodes[lo:hi], Ports: rt.ports[lo : hi-1]}
}

// Lookup returns the egress port for (device, flow, inPort), trying the
// exact ingress port first and falling back to a wildcard (-1) entry.
// It returns -1 when no route is installed.
func (rt *Routing) Lookup(device, flowID, inPort int) int {
	rt.tableOnce.Do(rt.buildTables)
	if device < 0 || device+1 >= len(rt.devOff) {
		return -1
	}
	tab := rt.table[rt.devOff[device]:rt.devOff[device+1]]
	lo, hi := 0, len(tab)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tab[mid].flow < flowID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// The wildcard sorts first among a flow's entries.
	wild := -1
	for _, e := range tab[lo:] {
		if e.flow != flowID {
			break
		}
		if int(e.inPort) == inPort {
			return int(e.out)
		}
		if e.inPort == -1 {
			wild = int(e.out)
		}
	}
	return wild
}

// Route computes shortest-path routes for all flows, in both directions
// (so echo replies are routable). Equal-cost ties are broken
// deterministically by a hash of the flow ID, giving per-flow ECMP.
// Flow IDs must be distinct: they key the forwarding tables.
func (g *Graph) Route(flows []FlowDef) (*Routing, error) {
	fb := g.fabric()

	// Hop distances fix every leg's length before it is walked, so all
	// legs are carved from one backing array. Flows the loop below
	// rejects are sized as empty here and reported there, in flow order.
	steps := 0
	for _, f := range flows {
		if d := fb.hops(f.Src, f.Dst); d > 0 {
			steps += 2 * (d + 1)
		}
	}
	nf := len(flows)
	slab := make([]int32, nf+(2*nf+1)+2*steps)
	rt := &Routing{g: g, flowIDs: make([]int, nf)}
	if nf > 0 {
		rt.from = &flows[0]
	}
	rt.byID, slab = slab[:nf], slab[nf:]
	rt.legOff, slab = slab[:2*nf+1], slab[2*nf+1:]
	rt.nodes, rt.ports = slab[:steps], slab[steps:]

	at := int32(0)
	for i, f := range flows {
		if f.Src == f.Dst {
			return nil, fmt.Errorf("topo: flow %d has identical endpoints", f.FlowID)
		}
		if fb.hops(f.Src, f.Dst) < 0 {
			return nil, fmt.Errorf("topo: flow %d: no path %d -> %d", f.FlowID, f.Src, f.Dst)
		}
		rt.flowIDs[i] = f.FlowID
		rt.byID[i] = int32(i)
		mid := g.walk(fb, f.FlowID, f.Src, f.Dst, rt, at)
		end := g.walk(fb, f.FlowID, f.Dst, f.Src, rt, mid)
		rt.legOff[2*i+1], rt.legOff[2*i+2] = mid, end
		if err := g.echoConflict(f.FlowID, rt.leg(2*i), rt.leg(2*i+1)); err != nil {
			return nil, err
		}
		at = end
	}

	slices.SortFunc(rt.byID, func(a, b int32) int { return cmp.Compare(rt.flowIDs[a], rt.flowIDs[b]) })
	for i := 1; i < nf; i++ {
		if id := rt.flowIDs[rt.byID[i]]; id == rt.flowIDs[rt.byID[i-1]] {
			return nil, fmt.Errorf("topo: duplicate flow ID %d", id)
		}
	}
	return rt, nil
}

// walk writes one shortest path from src to dst into rt.nodes/rt.ports
// starting at offset at and returns the offset past it. At every node it
// picks among the ports descending dst's distance field by the flow's
// ECMP hash.
func (g *Graph) walk(fb *fabric, flowID, src, dst int, rt *Routing, at int32) int32 {
	row := dst * fb.n
	for cur := src; cur != dst; at++ {
		lo, hi := fb.candOff[row+cur], fb.candOff[row+cur+1]
		if hi-lo > 1 {
			lo += int32(ecmpHash(flowID, cur) % uint64(hi-lo))
		}
		pick := fb.cands[lo]
		rt.nodes[at], rt.ports[at] = int32(cur), pick
		cur = g.Ports[cur][pick].Peer
	}
	rt.nodes[at], rt.ports[at] = int32(dst), -1
	return at + 1
}

// inPortAt returns the port of leg.Nodes[i] the leg enters through, -1
// at the leg's first node.
func (g *Graph) inPortAt(leg Leg, i int) int {
	if i == 0 {
		return -1
	}
	return g.Ports[leg.Nodes[i-1]][leg.Ports[i-1]].PeerPort
}

// echoConflict reports whether the echo leg needs, at some switch, a
// forwarding entry for the same (flow, in-port) state as the forward leg
// but with a different egress port — possible only on pathological
// odd-cycle routings. Route fails loudly rather than silently misroute
// one leg. (Within one leg a node never repeats, and flow IDs are
// distinct, so no other pair of entries can collide.) Two legs enter a
// node through the same port exactly when they arrive from the same
// node's same egress port, or both start there.
func (g *Graph) echoConflict(flowID int, fwd, echo Leg) error {
	for j, pick := range echo.Ports {
		cur := echo.Nodes[j]
		if g.Kinds[cur] != Switch {
			continue
		}
		for i, prev := range fwd.Ports {
			if fwd.Nodes[i] != cur {
				continue
			}
			sameIn := i == 0 && j == 0 ||
				i > 0 && j > 0 && fwd.Nodes[i-1] == echo.Nodes[j-1] && fwd.Ports[i-1] == echo.Ports[j-1]
			if prev != pick && sameIn {
				return fmt.Errorf("topo: flow %d: conflicting forwarding entries at node %d in-port %d (%d vs %d)",
					flowID, cur, g.inPortAt(echo, j), prev, pick)
			}
			break // the forward leg visits cur once
		}
	}
	return nil
}

// buildTables derives the per-device forwarding tables from the legs:
// one entry per switch traversal, grouped by device and sorted for
// Lookup's search.
func (rt *Routing) buildTables() {
	g := rt.g
	if g == nil {
		return // the zero Routing routes nothing
	}
	rt.devOff = make([]int32, g.NumNodes()+1)
	rt.table = make([]fwdEntry, 0, len(rt.nodes))
	for k := 0; k+1 < len(rt.legOff); k++ {
		leg := rt.leg(k)
		for i, out := range leg.Ports {
			if u := leg.Nodes[i]; g.Kinds[u] == Switch {
				rt.table = append(rt.table, fwdEntry{dev: u, flow: rt.flowIDs[k/2], inPort: int32(g.inPortAt(leg, i)), out: out})
				rt.devOff[u+1]++
			}
		}
	}
	slices.SortFunc(rt.table, func(a, b fwdEntry) int {
		return cmp.Or(cmp.Compare(a.dev, b.dev), cmp.Compare(a.flow, b.flow), cmp.Compare(a.inPort, b.inPort))
	})
	for d := 1; d < len(rt.devOff); d++ {
		rt.devOff[d] += rt.devOff[d-1]
	}
}

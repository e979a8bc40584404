package topo

// fabric is the compiled, immutable form of a Graph: what every Route
// call over the graph would otherwise recompute. It holds the hop
// distance field toward every destination and, per (destination, node),
// the ports that descend that field — the ECMP candidates, in port order
// — so routing one flow is a table walk with no search and no
// allocation per hop.
//
// It also fixes the dense numbering of directed ports that the
// per-request accumulators (link shares, per-port demand and waits) are
// indexed by: port p of node u is index portBase[u]+p.
//
// Cost: O(N·(N+E)) time and O(N²+N·E) int32s of memory, paid once per
// graph.
type fabric struct {
	n        int
	diameter int
	// portBase has n+1 entries; portBase[n] is the directed-port count.
	portBase []int32
	// linkOf maps a dense port index to the dense index of the first
	// port of the same node that faces the same peer: the identity of
	// the directed node-to-node link, which parallel edges share.
	linkOf []int32
	// dist[dst*n+u] is the hop count from u to dst, -1 when unreachable.
	dist []int32
	// cands[candOff[dst*n+u]:candOff[dst*n+u+1]] lists, in port order,
	// the ports of u whose peer is one hop closer to dst.
	candOff []int32
	cands   []int32
}

// fabric returns the graph's compiled form, compiling it on first use.
func (g *Graph) fabric() *fabric {
	g.once.Do(func() { g.fab = g.compile() })
	return g.fab
}

func (g *Graph) compile() *fabric {
	n := g.NumNodes()
	fb := &fabric{n: n, portBase: make([]int32, n+1)}
	base := fb.portBase
	for u, ps := range g.Ports {
		base[u+1] = base[u] + int32(len(ps))
	}
	fb.linkOf = make([]int32, base[n])
	for u, ps := range g.Ports {
		for pi, p := range ps {
			first := pi
			for qi := range ps[:pi] {
				if ps[qi].Peer == p.Peer {
					first = qi
					break
				}
			}
			fb.linkOf[base[u]+int32(pi)] = base[u] + int32(first)
		}
	}

	fb.dist = make([]int32, n*n)
	fb.candOff = make([]int32, n*n+1)
	// Toward one destination an edge descends in at most one direction.
	fb.cands = make([]int32, 0, n*int(base[n])/2)
	queue := make([]int32, n)
	for dst := 0; dst < n; dst++ {
		// Breadth-first search from dst (edges are symmetric).
		row := fb.dist[dst*n : (dst+1)*n]
		for i := range row {
			row[i] = -1
		}
		row[dst] = 0
		queue[0] = int32(dst)
		for head, tail := 0, 1; head < tail; head++ {
			u := queue[head]
			for _, p := range g.Ports[u] {
				if row[p.Peer] < 0 {
					row[p.Peer] = row[u] + 1
					queue[tail] = int32(p.Peer)
					tail++
				}
			}
		}
		for u, du := range row {
			if int(du) > fb.diameter {
				fb.diameter = int(du)
			}
			if du > 0 {
				for pi, p := range g.Ports[u] {
					if row[p.Peer] == du-1 {
						fb.cands = append(fb.cands, int32(pi))
					}
				}
			}
			fb.candOff[dst*n+u+1] = int32(len(fb.cands))
		}
	}
	return fb
}

// hops returns the hop count from src to dst: 0 when they coincide, -1
// when dst is unreachable or either lies outside the graph.
func (fb *fabric) hops(src, dst int) int {
	if src < 0 || src >= fb.n || dst < 0 || dst >= fb.n {
		return -1
	}
	return int(fb.dist[dst*fb.n+src])
}

// PortBase returns the dense numbering of directed ports: port p of
// node u has index base[u]+p, and base[NumNodes()] is the number of
// directed ports. Slices indexed this way replace maps keyed by
// (node, port). The returned slice is shared and must not be modified.
func (g *Graph) PortBase() []int32 { return g.fabric().portBase }

// LinkOf maps each dense port index (see PortBase) to the dense index
// of the first port of the same node facing the same peer, so parallel
// edges between one node pair share a value: it identifies the directed
// node-to-node link a port belongs to. The returned slice is shared and
// must not be modified.
func (g *Graph) LinkOf() []int32 { return g.fabric().linkOf }

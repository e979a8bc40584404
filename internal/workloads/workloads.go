// Package workloads builds the canonical datacenter and WAN traffic
// patterns used to exercise network simulations: permutation, stride,
// all-to-all, incast, and hotspot. Each pattern yields routed FlowDefs
// plus a sharing profile so offered rates can be calibrated against the
// most-loaded link — the methodology behind the paper's load-factor
// sweeps (§5.2, §6.1).
package workloads

import (
	"errors"
	"fmt"

	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/topo"
)

// Pattern names a traffic pattern family.
type Pattern int

// Patterns.
const (
	// Permutation: each host sends one flow to a distinct random host.
	Permutation Pattern = iota
	// Stride: host i sends to host (i+stride) mod N.
	Stride
	// AllToAll: every ordered host pair gets a flow.
	AllToAll
	// Incast: all hosts send to one victim host.
	Incast
	// Hotspot: a fraction of hosts send to one hotspot, the rest follow
	// a permutation.
	Hotspot
)

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case Permutation:
		return "permutation"
	case Stride:
		return "stride"
	case AllToAll:
		return "all-to-all"
	case Incast:
		return "incast"
	case Hotspot:
		return "hotspot"
	}
	return "?"
}

// Spec parameterizes pattern construction.
type Spec struct {
	Pattern Pattern
	Seed    uint64
	// StrideBy sets the stride (default N/2).
	StrideBy int
	// Victim selects the incast/hotspot destination index into Hosts()
	// (default 0).
	Victim int
	// HotFraction is the fraction of hosts targeting the hotspot
	// (default 0.5).
	HotFraction float64
}

// Build returns the flows of the pattern over g's hosts.
func Build(g *topo.Graph, spec Spec) ([]topo.FlowDef, error) {
	hosts := g.Hosts()
	n := len(hosts)
	if n < 2 {
		return nil, errors.New("workloads: need at least two hosts")
	}
	victim := spec.Victim
	if victim < 0 || victim >= n {
		victim = 0
	}
	var flows []topo.FlowDef
	add := func(src, dst int) {
		flows = append(flows, topo.FlowDef{FlowID: len(flows) + 1, Src: src, Dst: dst})
	}
	switch spec.Pattern {
	case Permutation:
		r := rng.New(spec.Seed)
		perm := r.Perm(n)
		for i := range perm {
			if perm[i] == i {
				j := (i + 1) % n
				perm[i], perm[j] = perm[j], perm[i]
			}
		}
		for i := range hosts {
			add(hosts[i], hosts[perm[i]])
		}
	case Stride:
		stride := spec.StrideBy
		if stride <= 0 {
			stride = n / 2
		}
		if stride%n == 0 {
			return nil, fmt.Errorf("workloads: stride %d is a multiple of %d hosts", stride, n)
		}
		for i := range hosts {
			add(hosts[i], hosts[(i+stride)%n])
		}
	case AllToAll:
		for i := range hosts {
			for j := range hosts {
				if i != j {
					add(hosts[i], hosts[j])
				}
			}
		}
	case Incast:
		for i := range hosts {
			if i != victim {
				add(hosts[i], hosts[victim])
			}
		}
	case Hotspot:
		frac := spec.HotFraction
		if frac <= 0 || frac > 1 {
			frac = 0.5
		}
		r := rng.New(spec.Seed)
		perm := r.Perm(n)
		hot := int(frac * float64(n))
		count := 0
		for i := range hosts {
			if i == victim {
				continue
			}
			if count < hot {
				add(hosts[i], hosts[victim])
				count++
				continue
			}
			dst := perm[i]
			if dst == i || hosts[dst] == hosts[victim] {
				dst = (i + 1) % n
				if dst == victim {
					dst = (dst + 1) % n
				}
			}
			add(hosts[i], hosts[dst])
		}
	default:
		return nil, fmt.Errorf("workloads: unknown pattern %v", spec.Pattern)
	}
	return flows, nil
}

// Sharing describes how flows pile onto directed links.
type Sharing struct {
	// MaxFlowsPerLink is the worst-case flow count on one directed link
	// (counting echo legs when echo is true).
	MaxFlowsPerLink int
	// Links is the number of distinct directed links carrying traffic.
	Links int
}

// Analyze routes the flows and computes the sharing profile used for
// load calibration: per-flow load = target link load / MaxFlowsPerLink.
func Analyze(g *topo.Graph, flows []topo.FlowDef, echo bool) (*topo.Routing, Sharing, error) {
	rt, err := g.Route(flows)
	if err != nil {
		return nil, Sharing{}, err
	}
	base, linkOf := g.PortBase(), g.LinkOf()
	share := make([]int, len(linkOf))
	s := Sharing{MaxFlowsPerLink: 1}
	count := func(leg topo.Leg) {
		for i, port := range leg.Ports {
			l := linkOf[base[leg.Nodes[i]]+port]
			if share[l] == 0 {
				s.Links++
			}
			share[l]++
			if share[l] > s.MaxFlowsPerLink {
				s.MaxFlowsPerLink = share[l]
			}
		}
	}
	for i := range flows {
		count(rt.Forward(i))
		if echo {
			count(rt.Echo(i))
		}
	}
	return rt, s, nil
}

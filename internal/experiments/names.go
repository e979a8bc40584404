package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// MaxTopoNodes is the largest topology TopoByName builds. A graph's
// compiled routing fabric grows with the square of its node count, so a
// larger name is refused from the name alone, before any builder runs.
// Every topology of the paper's evaluation is far below it (FatTree128
// has 208 nodes).
const MaxTopoNodes = 2048

// TopoByName builds a topology from a command-line name: line<N>,
// torus<R>x<C>, fattree16/64/128, abilene, geant, star<N>, dumbbell<N>,
// leafspine<L>x<S>x<H>, of at most MaxTopoNodes nodes. A name whose sizes
// the builder rejects (torus0x3, star1, …) is an error, not a panic:
// every size goes through the error-returning topo.Build* forms.
func TopoByName(name string) (*topo.Graph, error) {
	t, err := parseTopoName(name)
	if err != nil {
		return nil, err
	}
	if t.nodes > MaxTopoNodes {
		return nil, fmt.Errorf("experiments: topology %q has %d nodes, more than %d", name, t.nodes, MaxTopoNodes)
	}
	return t.build()
}

// parsedTopo is a topology name resolved to its node count and its
// builder. The node formulas mirror the topo builders and live only here;
// absurd sizes saturate at math.MaxInt instead of wrapping around.
type parsedTopo struct {
	nodes int
	build func() (*topo.Graph, error)
}

// parseTopoName parses a name of the TopoByName grammar.
func parseTopoName(name string) (parsedTopo, error) {
	l := strings.ToLower(name)
	lan := topo.DefaultLAN
	fatTree := func(p topo.FatTreeParams) parsedTopo {
		// t² core switches; per cluster t aggregation and t ToR switches,
		// each ToR with its servers.
		t := p.NumToRsAndUplinks
		return parsedTopo{t*t + p.NumClusters*(2*t+t*p.NumServersPerRack),
			func() (*topo.Graph, error) { return topo.BuildFatTree(p, lan) }}
	}
	// sizes parses the 'x'-separated sizes after a kind's prefix.
	sizes := func(prefix string, n int) ([]int, error) {
		parts := strings.Split(l[len(prefix):], "x")
		if len(parts) != n {
			return nil, fmt.Errorf("experiments: bad %s topology %q", prefix, name)
		}
		v := make([]int, n)
		for i, p := range parts {
			var err error
			if v[i], err = strconv.Atoi(p); err != nil {
				return nil, fmt.Errorf("experiments: bad %s topology %q", prefix, name)
			}
		}
		return v, nil
	}
	switch {
	case l == "abilene":
		// One switch and one host per PoP.
		return parsedTopo{2 * 11, func() (*topo.Graph, error) { return topo.BuildAbilene(lan.RateBps) }}, nil
	case l == "geant":
		return parsedTopo{2 * 22, func() (*topo.Graph, error) { return topo.BuildGeant(lan.RateBps) }}, nil
	case l == "fattree16":
		return fatTree(topo.FatTree16), nil
	case l == "fattree64":
		return fatTree(topo.FatTree64), nil
	case l == "fattree128":
		return fatTree(topo.FatTree128), nil
	case strings.HasPrefix(l, "line"):
		v, err := sizes("line", 1)
		if err != nil {
			return parsedTopo{}, err
		}
		return parsedTopo{satMul(2, v[0]), func() (*topo.Graph, error) { return topo.BuildLine(v[0], lan) }}, nil
	case strings.HasPrefix(l, "torus"):
		v, err := sizes("torus", 2)
		if err != nil {
			return parsedTopo{}, err
		}
		return parsedTopo{satMul(2, satMul(v[0], v[1])),
			func() (*topo.Graph, error) { return topo.BuildTorus2D(v[0], v[1], lan) }}, nil
	case strings.HasPrefix(l, "star"):
		v, err := sizes("star", 1)
		if err != nil {
			return parsedTopo{}, err
		}
		return parsedTopo{satAdd(v[0], 1), func() (*topo.Graph, error) { return topo.BuildStar(v[0], lan) }}, nil
	case strings.HasPrefix(l, "leafspine"):
		// leafspine<L>x<S>x<H>: L leaves, S spines, H hosts per leaf.
		v, err := sizes("leafspine", 3)
		if err != nil {
			return parsedTopo{}, fmt.Errorf("%w (want leafspineLxSxH)", err)
		}
		return parsedTopo{satAdd(v[1], satMul(v[0], satAdd(v[2], 1))),
			func() (*topo.Graph, error) { return topo.BuildLeafSpine(v[0], v[1], v[2], lan) }}, nil
	case strings.HasPrefix(l, "dumbbell"):
		v, err := sizes("dumbbell", 1)
		if err != nil {
			return parsedTopo{}, err
		}
		return parsedTopo{satAdd(satMul(2, v[0]), 2),
			func() (*topo.Graph, error) { return topo.BuildDumbbell(v[0], lan, lan.RateBps/10) }}, nil
	}
	return parsedTopo{}, fmt.Errorf("experiments: unknown topology %q", name)
}

// satMul and satAdd multiply and add sizes, saturating at math.MaxInt.
// A negative size counts as zero: its builder rejects it anyway.
func satMul(a, b int) int {
	a, b = max(a, 0), max(b, 0)
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

func satAdd(a, b int) int {
	a, b = max(a, 0), max(b, 0)
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// MaxClasses bounds a scheduler's class count: the DES allocates one
// queue per class on every port, so an unbounded sp<N> or weight list
// would let one name exhaust memory. It is the bound the server puts on
// every other client-chosen cardinality.
const MaxClasses = 64

// SchedByName parses a scheduler spec: fifo, sp<classes> (1 to
// MaxClasses classes; a bare "sp" is two), or wfq:w1,w2[,w3…] / wrr:… /
// drr:… with 1 to MaxClasses comma-separated positive, finite weights.
func SchedByName(name string) (des.SchedConfig, error) {
	l := strings.ToLower(name)
	switch {
	case l == "fifo":
		return des.SchedConfig{Kind: des.FIFO}, nil
	case strings.HasPrefix(l, "sp"):
		n := 2
		if len(l) > 2 {
			v, err := strconv.Atoi(l[2:])
			if err != nil || v < 1 {
				return des.SchedConfig{}, fmt.Errorf("experiments: bad SP spec %q", name)
			}
			if v > MaxClasses {
				return des.SchedConfig{}, fmt.Errorf("experiments: SP spec %q has over %d classes", name, MaxClasses)
			}
			n = v
		}
		return des.SchedConfig{Kind: des.SP, Classes: n}, nil
	case strings.HasPrefix(l, "wfq:"), strings.HasPrefix(l, "wrr:"), strings.HasPrefix(l, "drr:"):
		var kind des.SchedKind
		switch l[:3] {
		case "wfq":
			kind = des.WFQ
		case "wrr":
			kind = des.WRR
		case "drr":
			kind = des.DRR
		}
		if n := strings.Count(l, ",") + 1; n > MaxClasses {
			return des.SchedConfig{}, fmt.Errorf("experiments: %d weights in %q, over %d classes", n, name, MaxClasses)
		}
		var ws []float64
		for _, p := range strings.Split(l[4:], ",") {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil || !(v > 0) || math.IsInf(v, 1) {
				return des.SchedConfig{}, fmt.Errorf("experiments: bad weight %q in %q", p, name)
			}
			ws = append(ws, v)
		}
		if len(ws) == 0 {
			return des.SchedConfig{}, fmt.Errorf("experiments: no weights in %q", name)
		}
		return des.SchedConfig{Kind: kind, Weights: ws}, nil
	}
	return des.SchedConfig{}, fmt.Errorf("experiments: unknown scheduler %q", name)
}

// TrafficByName parses a traffic-model name.
func TrafficByName(name string) (traffic.Model, error) {
	switch strings.ToLower(name) {
	case "poisson":
		return traffic.ModelPoisson, nil
	case "onoff":
		return traffic.ModelOnOff, nil
	case "map":
		return traffic.ModelMAP, nil
	case "bc", "bc-paug89", "bclike":
		return traffic.ModelBCLike, nil
	case "anarchy", "anarchylike":
		return traffic.ModelAnarchyLike, nil
	}
	return 0, fmt.Errorf("experiments: unknown traffic model %q", name)
}

package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// TopoByName builds a topology from a command-line name: line<N>,
// torus<R>x<C>, fattree16/64/128, abilene, geant, star<N>, dumbbell<N>,
// leafspine<L>x<S>x<H>. A name whose sizes the builder rejects (torus0x3,
// star1, …) is an error, not a panic: every size goes through the
// error-returning topo.Build* forms.
func TopoByName(name string) (*topo.Graph, error) {
	l := strings.ToLower(name)
	switch {
	case l == "abilene":
		return topo.BuildAbilene(topo.DefaultLAN.RateBps)
	case l == "geant":
		return topo.BuildGeant(topo.DefaultLAN.RateBps)
	case l == "fattree16":
		return topo.BuildFatTree(topo.FatTree16, topo.DefaultLAN)
	case l == "fattree64":
		return topo.BuildFatTree(topo.FatTree64, topo.DefaultLAN)
	case l == "fattree128":
		return topo.BuildFatTree(topo.FatTree128, topo.DefaultLAN)
	case strings.HasPrefix(l, "line"):
		n, err := strconv.Atoi(l[4:])
		if err != nil {
			return nil, fmt.Errorf("experiments: bad line topology %q", name)
		}
		return topo.BuildLine(n, topo.DefaultLAN)
	case strings.HasPrefix(l, "torus"):
		parts := strings.Split(l[5:], "x")
		if len(parts) != 2 {
			return nil, fmt.Errorf("experiments: bad torus topology %q", name)
		}
		r, err1 := strconv.Atoi(parts[0])
		c, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("experiments: bad torus topology %q", name)
		}
		return topo.BuildTorus2D(r, c, topo.DefaultLAN)
	case strings.HasPrefix(l, "star"):
		n, err := strconv.Atoi(l[4:])
		if err != nil {
			return nil, fmt.Errorf("experiments: bad star topology %q", name)
		}
		return topo.BuildStar(n, topo.DefaultLAN)
	case strings.HasPrefix(l, "leafspine"):
		// leafspine<L>x<S>x<H>: L leaves, S spines, H hosts per leaf.
		parts := strings.Split(l[9:], "x")
		if len(parts) != 3 {
			return nil, fmt.Errorf("experiments: bad leaf-spine topology %q (want leafspineLxSxH)", name)
		}
		lv, err1 := strconv.Atoi(parts[0])
		sp, err2 := strconv.Atoi(parts[1])
		hp, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("experiments: bad leaf-spine topology %q", name)
		}
		return topo.BuildLeafSpine(lv, sp, hp, topo.DefaultLAN)
	case strings.HasPrefix(l, "dumbbell"):
		n, err := strconv.Atoi(l[8:])
		if err != nil {
			return nil, fmt.Errorf("experiments: bad dumbbell topology %q", name)
		}
		return topo.BuildDumbbell(n, topo.DefaultLAN, topo.DefaultLAN.RateBps/10)
	}
	return nil, fmt.Errorf("experiments: unknown topology %q", name)
}

// SchedByName parses a scheduler spec: fifo, sp<classes>, or
// wfq:w1,w2[,w3…] / wrr:… / drr:… with comma-separated weights.
func SchedByName(name string) (des.SchedConfig, error) {
	l := strings.ToLower(name)
	switch {
	case l == "fifo":
		return des.SchedConfig{Kind: des.FIFO}, nil
	case strings.HasPrefix(l, "sp"):
		n := 2
		if len(l) > 2 {
			v, err := strconv.Atoi(l[2:])
			if err != nil {
				return des.SchedConfig{}, fmt.Errorf("experiments: bad SP spec %q", name)
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
		var ws []float64
		for _, p := range strings.Split(l[4:], ",") {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil || v <= 0 {
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

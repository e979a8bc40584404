package experiments

import (
	"flag"
	"fmt"
	"math"

	"deepqueuenet/internal/topo"
)

// Spec names one scenario of the evaluation grid (topology × scheduler ×
// traffic model × load) with its horizon and seed. It is the one path
// from names to a built Scenario, so its defaults and bounds hold on every
// entry point. A zero field takes its default.
type Spec struct {
	Topo     string  // TopoByName grammar; required
	Sched    string  // SchedByName grammar; "" means fifo
	Traffic  string  // TrafficByName grammar; "" means poisson
	Load     float64 // target load of the most-shared link, in (0, 1); 0 means 0.5
	Duration float64 // seconds of traffic, > 0; 0 means 0.001
	Seed     uint64  // flow-pattern and generator seed; 0 means 42
}

// The values zero Spec fields take.
const (
	defaultSched    = "fifo"
	defaultTraffic  = "poisson"
	defaultLoad     = 0.5
	defaultDuration = 0.001
	defaultSeed     = 42
)

// RegisterFlags declares the spec's fields on fs as -topo, -sched,
// -traffic, -load, -dur and -seed, each defaulting to its field's default
// (-topo to line4). A zero value on the command line also means the
// default.
func (s *Spec) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Topo, "topo", "line4", fmt.Sprintf("topology: lineN, torusRxC, fattree16/64/128, abilene, geant, starN, dumbbellN, leafspineLxSxH (at most %d nodes)", MaxTopoNodes))
	fs.StringVar(&s.Sched, "sched", defaultSched, "scheduler: fifo, spN, wfq:w1,w2,…, wrr:…, drr:…")
	fs.StringVar(&s.Traffic, "traffic", defaultTraffic, "traffic model: poisson, onoff, map, bc, anarchy")
	fs.Float64Var(&s.Load, "load", defaultLoad, "target load of the most-shared link, in (0, 1)")
	fs.Float64Var(&s.Duration, "dur", defaultDuration, "seconds of traffic, > 0")
	fs.Uint64Var(&s.Seed, "seed", defaultSeed, "flow-pattern and traffic seed")
}

// Build validates the spec, builds its topology and returns the calibrated
// scenario. Its name is topo/sched/traffic, defaults filled in.
func (s Spec) Build() (*Scenario, error) { return s.BuildOn(nil) }

// BuildOn is Build over g, an already built graph of the spec's topology,
// so a caller can compile a topology once and share it across scenarios.
// A nil g is built from the name.
func (s Spec) BuildOn(g *topo.Graph) (*Scenario, error) {
	if s.Sched == "" {
		s.Sched = defaultSched
	}
	if s.Traffic == "" {
		s.Traffic = defaultTraffic
	}
	if s.Load == 0 {
		s.Load = defaultLoad
	}
	if s.Duration == 0 {
		s.Duration = defaultDuration
	}
	if s.Seed == 0 {
		s.Seed = defaultSeed
	}
	if !(s.Load > 0 && s.Load < 1) {
		return nil, fmt.Errorf("experiments: load %v outside (0, 1)", s.Load)
	}
	if !(s.Duration > 0) || math.IsInf(s.Duration, 1) {
		return nil, fmt.Errorf("experiments: duration %v is not a finite number of seconds > 0", s.Duration)
	}
	sched, err := SchedByName(s.Sched)
	if err != nil {
		return nil, err
	}
	tm, err := TrafficByName(s.Traffic)
	if err != nil {
		return nil, err
	}
	if g == nil {
		if g, err = TopoByName(s.Topo); err != nil {
			return nil, err
		}
	}
	sc, err := NewScenario(s.Topo+"/"+s.Sched+"/"+s.Traffic, g, sched, tm, s.Load, s.Duration, s.Seed)
	if err != nil {
		return nil, err
	}
	if !(sc.PerFlowRate() > 0) {
		return nil, fmt.Errorf("experiments: load %v leaves no traffic once shared across flows", s.Load)
	}
	return sc, nil
}

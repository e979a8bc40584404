package deepqueuenet

// Pins for the compile-once scenario build: one shared *topo.Graph must
// serve concurrent scenario builds, analytic estimates and engine runs
// (the serve topology cache and the benchmark both reuse a graph across
// requests), and building + estimating a scenario on an already compiled
// graph must stay allocation-lean.

import (
	"math"
	"sync"
	"testing"

	"deepqueuenet/internal/analytic"
	"deepqueuenet/internal/core"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/topo"
)

// TestSharedGraphConcurrentUse has 32 goroutines share one graph that
// nobody has routed yet, so they race to compile its fabric, and then
// each builds scenarios, estimates them analytically and runs one short
// engine simulation. Every result must equal the one computed alone on a
// private graph. Run under -race (make check does).
func TestSharedGraphConcurrentUse(t *testing.T) {
	const (
		workers = 32
		seeds   = 4
		load    = 0.4
		engDur  = 0.00002
	)
	spec := experiments.Spec{Topo: "fattree16", Traffic: "map", Load: load, Duration: engDur}
	model, err := ptm.Synthetic(goldenArch, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	estimate := func(sc *experiments.Scenario) uint64 {
		est, err := analytic.FromScenario(sc)
		if err != nil {
			t.Errorf("seed %d: %v", sc.Seed, err)
			return 0
		}
		return math.Float64bits(est.MeanRTTSec)
	}
	engine := func(sc *experiments.Scenario) string {
		_, res, err := sc.RunDQNCfg(model, core.Config{Shards: 1})
		if err != nil {
			t.Errorf("seed %d: %v", sc.Seed, err)
			return ""
		}
		return deliveryDigest(res)
	}

	// Reference results, each on its own graph.
	wantEst := make([]uint64, seeds)
	wantRun := make([]string, seeds)
	for s := range wantEst {
		spec := spec
		spec.Seed = uint64(s + 1)
		sc, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		wantEst[s], wantRun[s] = estimate(sc), engine(sc)
	}

	shared := topo.FatTree(topo.FatTree16, topo.DefaultLAN)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//dqnlint:allow goguard concurrency hammer: a worker panic crashes the test binary, the failure signal this race test wants
		go func(w int) {
			defer wg.Done()
			for i := 0; i < seeds; i++ {
				s := (w + i) % seeds
				spec := spec
				spec.Seed = uint64(s + 1)
				sc, err := spec.BuildOn(shared)
				if err != nil {
					t.Errorf("worker %d seed %d: %v", w, s+1, err)
					return
				}
				if got := estimate(sc); got != wantEst[s] {
					t.Errorf("worker %d seed %d: estimate bits %#x, want %#x", w, s+1, got, wantEst[s])
				}
				if i == 0 {
					if got := engine(sc); got != wantRun[s] {
						t.Errorf("worker %d seed %d: engine digest %s, want %s", w, s+1, got, wantRun[s])
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestScenarioBuildAllocs bounds the allocations of Spec.BuildOn +
// analytic.FromScenario on an already compiled FatTree16 — the whole
// per-request cost of the serving fast tier. The commit before topology
// compilation measured 705 per call (nested routing maps, one BFS field
// per destination, per-hop candidate slices, map-keyed port demand);
// dense legs and port-indexed arrays left about 30, most of them the
// per-flow path keys and the Estimate's own maps. The flow-ordered
// estimate leaves 8: the scenario name, flows, routing and its two
// arrays, the scenario, the estimate and its paths. The ceiling leaves
// room for the estimate's scratch pool being emptied by a GC mid-run.
func TestScenarioBuildAllocs(t *testing.T) {
	const parentAllocs, ceiling = 705, 16
	g := topo.FatTree(topo.FatTree16, topo.DefaultLAN)
	spec := experiments.Spec{Topo: "fattree16", Traffic: "map", Load: 0.4}
	build := func() {
		spec.Seed++
		sc, err := spec.BuildOn(g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := analytic.FromScenario(sc); err != nil {
			t.Fatal(err)
		}
	}
	build() // compile the fabric and warm the arrival-SCV memo
	if got := testing.AllocsPerRun(100, build); got > ceiling {
		t.Fatalf("BuildOn+FromScenario: %.0f allocations per call, ceiling %d (was %d before topology compilation)",
			got, ceiling, parentAllocs)
	}
}

package experiments

import (
	"flag"
	"math"
	"reflect"
	"strings"
	"testing"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/traffic"
)

// TestSpecBuild pins the spec's bounds and defaults: every out-of-range
// load or duration is an error (each of them used to panic, hang or run
// the wrong scenario in a CLI), and zero fields, from a literal or from
// the command line, take the defaults.
func TestSpecBuild(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []Spec{
		{Topo: "line4", Load: -0.5},
		{Topo: "line4", Load: nan},
		{Topo: "line4", Load: 1},
		{Topo: "line4", Load: inf},
		{Topo: "line4", Duration: -1},
		{Topo: "line4", Duration: nan},
		{Topo: "line4", Duration: inf},
		{Topo: "line4", Load: 5e-324},
		{Topo: "line4", Sched: "sp-2"},
		{Topo: "line20000"},
		{Topo: ""},
		{Topo: "line4", Traffic: "pareto"},
	} {
		if sc, err := bad.Build(); err == nil {
			t.Errorf("%+v: built %s, want an error", bad, sc.Name)
		}
	}

	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	var fromFlags Spec
	fromFlags.RegisterFlags(fs)
	if err := fs.Parse([]string{"-load", "0", "-dur", "0", "-seed", "0"}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Spec{{Topo: "line4"}, fromFlags} {
		sc, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		if sc.Name != "line4/fifo/poisson" || sc.Sched.Kind != des.FIFO || sc.Model != traffic.ModelPoisson ||
			sc.Load != 0.5 || sc.Duration != 0.001 || sc.Seed != 42 {
			t.Errorf("%+v: built %s sched %v model %v load %v duration %v seed %d, want the defaults",
				s, sc.Name, sc.Sched.Kind, sc.Model, sc.Load, sc.Duration, sc.Seed)
		}
	}
}

// FuzzSpecBuild: for any field values Build returns an error or a
// scenario with a finite, positive per-flow rate, and never panics.
func FuzzSpecBuild(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, s := range []Spec{
		{Topo: "line4", Load: 0.4, Duration: 0.0005, Seed: 7},
		{Topo: "line4", Load: -0.5},
		{Topo: "line4", Load: nan},
		{Topo: "line4", Load: 1},
		{Topo: "line4", Load: inf},
		{Topo: "line4", Duration: -1},
		{Topo: "line4", Duration: nan},
		{Topo: "line4", Duration: inf},
		{Topo: "line20000"},
		{Topo: "line4", Sched: "sp-2"},
		{Topo: "line4", Sched: "sp0"},
		{Topo: "line4", Sched: "sp65"},
		{Topo: "line4", Sched: "sp1000000000"},
		{Topo: "line4", Sched: "wfq:" + strings.Repeat("1,", MaxClasses) + "1"},
		{Topo: "line2049"},
		{Topo: "line2048"},
		{Topo: "torus0x3"},
		{Topo: "leafspine0x1x1"},
		{Topo: "fattree16", Sched: "wfq:", Traffic: "map"},
		{Topo: "abilene", Sched: "wfq:9,1", Traffic: "bc", Load: 0.12},
	} {
		f.Add(s.Topo, s.Sched, s.Traffic, s.Load, s.Duration, s.Seed)
	}
	f.Fuzz(func(t *testing.T, topoName, sched, tm string, load, duration float64, seed uint64) {
		s := Spec{Topo: topoName, Sched: sched, Traffic: tm, Load: load, Duration: duration, Seed: seed}
		sc, err := s.Build()
		if err != nil {
			return
		}
		if r := sc.PerFlowRate(); !(r > 0) || math.IsInf(r, 1) {
			t.Fatalf("%+v: per-flow rate %v", s, r)
		}
	})
}

// TestSchedAssignsClasses pins that a spec's scheduler reaches the
// flows: flow i is class i mod the class count, weighted by its class's
// weight (SP classes carry none), and on line4 at load 0.6 the DES path
// statistics under sp3 and wfq:9,1 differ from fifo's.
func TestSchedAssignsClasses(t *testing.T) {
	build := func(sched string) *Scenario {
		t.Helper()
		sc, err := Spec{Topo: "line4", Sched: sched, Load: 0.6}.Build()
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	fifo := build("fifo").RunDES().Stats()
	for _, tc := range []struct {
		sched   string
		classes int
		weights []float64
	}{
		{"fifo", 1, nil},
		{"sp3", 3, nil},
		{"wfq:9,1", 2, []float64{9, 1}},
	} {
		sc := build(tc.sched)
		for i := range sc.Flows {
			cls, w := sc.classOf(i)
			wantW := 0.0
			if tc.weights != nil {
				wantW = tc.weights[i%tc.classes]
			}
			if cls != i%tc.classes || w != wantW {
				t.Errorf("%s: flow %d is class %d weight %v, want class %d weight %v",
					tc.sched, i, cls, w, i%tc.classes, wantW)
			}
		}
		if tc.sched == "fifo" {
			continue
		}
		if got := sc.RunDES().Stats(); reflect.DeepEqual(got, fifo) {
			t.Errorf("%s: DES path statistics identical to fifo's", tc.sched)
		}
	}
}

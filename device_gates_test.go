package deepqueuenet

// Per-switch accuracy gates: the packet-level visibility half of the
// exact tier. Each golden scenario runs once through the DES and once
// through DeepQueueNet with the shipped models/switch8-std.ptm.json
// device model, and every switch's sojourn distribution is compared
// with metrics.NormW1 (the paper's normalized Wasserstein-1). The gate
// holds the median and the max over switches, and the post-hoc queries
// of internal/visibility must agree with the DES:
//
//   - the bottleneck switch (largest mean sojourn) is the same one;
//   - the three worst switches overlap in at least the committed count.
//
// The committed thresholds under testdata/golden/device_gates.json
// carry 1.5x headroom over measured w1 values, floored at 0.005.
// Regenerate after an intentional model or engine change with:
//
//	go test -run TestDeviceAccuracyGates -update-golden .

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/visibility"
)

type deviceGate struct {
	MedianW1 float64 `json:"median_w1"`
	MaxW1    float64 `json:"max_w1"`
	Top3     int     `json:"top3_overlap"`
}

// deviceMeasure is one golden case's per-switch comparison.
type deviceMeasure struct {
	deviceGate
	bottleneckDES, bottleneckDQN int
}

func deviceGatesPath() string {
	return filepath.Join("testdata", "golden", "device_gates.json")
}

// sojourns returns the sojourns of the visits that were not dropped.
func sojourns(vs []des.Visit) []float64 {
	out := make([]float64, 0, len(vs))
	for _, v := range vs {
		if !v.Dropped {
			out = append(out, v.Sojourn())
		}
	}
	return out
}

// top3 returns the three switches with the largest mean sojourn.
func top3(visits map[int][]des.Visit) []int {
	var out []int
	for _, r := range visibility.DeviceBreakdown(visits, 0) {
		if len(out) == 3 {
			break
		}
		out = append(out, r.Device)
	}
	return out
}

// deviceAccuracy measures the exact tier's per-switch error against
// the DES ground truth on one golden case.
func deviceAccuracy(t *testing.T, gc goldenCase, model *ptm.PTM) deviceMeasure {
	t.Helper()
	sc := gc.scenario(t)
	net := sc.BuildDESNetwork()
	net.Run(sc.Duration + 1)
	_, res, err := sc.RunDQN(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := make(map[int][]des.Visit)
	pred := make(map[int][]des.Visit)
	var w1s []float64
	for _, sw := range sc.G.Switches() {
		tv := net.Trace.DeviceVisits(sw)
		ts := sojourns(tv)
		if len(ts) == 0 {
			continue
		}
		truth[sw], pred[sw] = tv, res.DeviceVisits[sw]
		w := metrics.NormW1(sojourns(pred[sw]), ts)
		if math.IsNaN(w) {
			t.Fatalf("%s: switch %d: degenerate normalized w1 (DES %d visits, DQN %d)", gc.name, sw, len(ts), len(pred[sw]))
		}
		w1s = append(w1s, w)
	}
	if len(w1s) == 0 {
		t.Fatalf("%s: no switch visits", gc.name)
	}
	overlap := 0
	want := top3(truth)
	for _, d := range top3(pred) {
		if slices.Contains(want, d) {
			overlap++
		}
	}
	slices.Sort(w1s)
	return deviceMeasure{
		// The upper median: a switch's own w1, not a blend of two.
		deviceGate:    deviceGate{MedianW1: w1s[len(w1s)/2], MaxW1: w1s[len(w1s)-1], Top3: overlap},
		bottleneckDES: visibility.Bottleneck(truth),
		bottleneckDQN: visibility.Bottleneck(pred),
	}
}

func TestDeviceAccuracyGates(t *testing.T) {
	if testing.Short() {
		t.Skip("per-switch accuracy gates run full DES ground truths")
	}
	model, err := ptm.Load(filepath.Join("models", "switch8-std.ptm.json"))
	if err != nil {
		t.Fatal(err)
	}
	measured := make(map[string]deviceMeasure)
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			m := deviceAccuracy(t, gc, model)
			measured[gc.name] = m
			t.Logf("%s: median w1=%.4f max w1=%.4f bottleneck DES %d DQN %d top-3 overlap %d",
				gc.name, m.MedianW1, m.MaxW1, m.bottleneckDES, m.bottleneckDQN, m.Top3)
			if m.bottleneckDQN != m.bottleneckDES {
				t.Errorf("%s: DQN names switch %d the bottleneck, the DES switch %d", gc.name, m.bottleneckDQN, m.bottleneckDES)
			}
		})
	}

	if *updateGolden {
		const floor = 0.005
		head := func(v float64) float64 { return math.Max(1.5*v, floor) }
		gates := make(map[string]deviceGate, len(measured))
		for name, m := range measured {
			gates[name] = deviceGate{MedianW1: head(m.MedianW1), MaxW1: head(m.MaxW1), Top3: m.Top3}
		}
		buf, err := json.MarshalIndent(gates, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(deviceGatesPath(), append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", deviceGatesPath())
		return
	}

	raw, err := os.ReadFile(deviceGatesPath())
	if err != nil {
		t.Fatalf("missing device gates %s (run with -update-golden to create): %v", deviceGatesPath(), err)
	}
	var gates map[string]deviceGate
	if err := json.Unmarshal(raw, &gates); err != nil {
		t.Fatalf("parse %s: %v", deviceGatesPath(), err)
	}
	for _, gc := range goldenCases() {
		gate, ok := gates[gc.name]
		if !ok {
			t.Errorf("%s: no committed gate in %s", gc.name, deviceGatesPath())
			continue
		}
		m := measured[gc.name]
		if m.MedianW1 > gate.MedianW1 {
			t.Errorf("%s: median per-switch w1 %.4f exceeds gate %.4f", gc.name, m.MedianW1, gate.MedianW1)
		}
		if m.MaxW1 > gate.MaxW1 {
			t.Errorf("%s: max per-switch w1 %.4f exceeds gate %.4f", gc.name, m.MaxW1, gate.MaxW1)
		}
		if m.Top3 < gate.Top3 {
			t.Errorf("%s: top-3 switches overlap the DES's in %d, gate %d", gc.name, m.Top3, gate.Top3)
		}
	}
}

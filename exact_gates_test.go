package deepqueuenet

// Exact-tier accuracy gates: each golden scenario runs once through the
// packet-level DES ground truth and once through DeepQueueNet with the
// shipped models/switch8-std.ptm.json device model, and the per-path
// statistics are compared the way the paper's Tables 4/5 compare them:
// metrics.Compare's normalized Wasserstein-1 distance between the
// predicted and true distributions (over paths) of
//
//   - avg_rtt / p99_rtt: each path's mean and P99 round-trip time;
//   - avg_jitter / p99_jitter: each path's mean and P99 jitter.
//
// The committed thresholds under testdata/golden/exact_gates.json carry
// 1.5x headroom over measured values, floored at 0.005, so a change that
// is supposed to move delivery bits (an IRSA stop rule, a kernel) can
// show that accuracy did not move with it. Regenerate after an
// intentional model or engine change with:
//
//	go test -run TestExactAccuracyGates -update-golden .

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/ptm"
)

type exactGate struct {
	AvgRTT    float64 `json:"avg_rtt"`
	P99RTT    float64 `json:"p99_rtt"`
	AvgJitter float64 `json:"avg_jitter"`
	P99Jitter float64 `json:"p99_jitter"`
}

func exactGatesPath() string {
	return filepath.Join("testdata", "golden", "exact_gates.json")
}

// exactAccuracy measures the exact tier's per-path error against the
// DES ground truth on one golden case.
func exactAccuracy(t *testing.T, gc goldenCase, model *ptm.PTM) exactGate {
	t.Helper()
	sc := gc.scenario(t)
	truth := sc.RunDES()
	pred, _, err := sc.RunDQN(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) == 0 || len(pred) == 0 {
		t.Fatalf("%s: no path samples (DES %d paths, DQN %d)", gc.name, len(truth), len(pred))
	}
	s := metrics.Compare(pred, truth)
	g := exactGate{AvgRTT: s.AvgRTTW1, P99RTT: s.P99RTTW1, AvgJitter: s.AvgJitterW1, P99Jitter: s.P99JitterW1}
	for _, v := range []float64{g.AvgRTT, g.P99RTT, g.AvgJitter, g.P99Jitter} {
		if math.IsNaN(v) {
			t.Fatalf("%s: degenerate normalized w1 %+v", gc.name, g)
		}
	}
	return g
}

func TestExactAccuracyGates(t *testing.T) {
	if testing.Short() {
		t.Skip("exact accuracy gates run full DES ground truths")
	}
	model, err := ptm.Load(filepath.Join("models", "switch8-std.ptm.json"))
	if err != nil {
		t.Fatal(err)
	}
	measured := make(map[string]exactGate)
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			m := exactAccuracy(t, gc, model)
			measured[gc.name] = m
			t.Logf("%s: avgRTT=%.4f p99RTT=%.4f avgJitter=%.4f p99Jitter=%.4f",
				gc.name, m.AvgRTT, m.P99RTT, m.AvgJitter, m.P99Jitter)
		})
	}

	if *updateGolden {
		// The floor keeps a near-exact measurement (the WAN's
		// propagation-dominated RTTs) from minting a hair-trigger gate.
		const floor = 0.005
		head := func(v float64) float64 { return math.Max(1.5*v, floor) }
		gates := make(map[string]exactGate, len(measured))
		for name, m := range measured {
			gates[name] = exactGate{AvgRTT: head(m.AvgRTT), P99RTT: head(m.P99RTT),
				AvgJitter: head(m.AvgJitter), P99Jitter: head(m.P99Jitter)}
		}
		buf, err := json.MarshalIndent(gates, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(exactGatesPath(), append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", exactGatesPath())
		return
	}

	raw, err := os.ReadFile(exactGatesPath())
	if err != nil {
		t.Fatalf("missing exact gates %s (run with -update-golden to create): %v", exactGatesPath(), err)
	}
	var gates map[string]exactGate
	if err := json.Unmarshal(raw, &gates); err != nil {
		t.Fatalf("parse %s: %v", exactGatesPath(), err)
	}
	for _, gc := range goldenCases() {
		gate, ok := gates[gc.name]
		if !ok {
			t.Errorf("%s: no committed gate in %s", gc.name, exactGatesPath())
			continue
		}
		m := measured[gc.name]
		for _, c := range []struct {
			stat      string
			got, gate float64
		}{
			{"avg RTT", m.AvgRTT, gate.AvgRTT},
			{"P99 RTT", m.P99RTT, gate.P99RTT},
			{"avg jitter", m.AvgJitter, gate.AvgJitter},
			{"P99 jitter", m.P99Jitter, gate.P99Jitter},
		} {
			if c.got > c.gate {
				t.Errorf("%s: %s normalized w1 %.4f exceeds gate %.4f — the exact tier drifted from the DES ground truth",
					gc.name, c.stat, c.got, c.gate)
			}
		}
	}
}

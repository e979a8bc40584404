package deepqueuenet

// Analytic-estimate accuracy gates: each golden scenario runs once
// through the packet-level DES ground truth and once through the
// queueing-theory decomposition (internal/analytic), and the aggregate
// RTT statistics are compared. Two relative errors are gated against
// thresholds committed under testdata/golden/analytic_gates.json:
//
//   - mean_rel: |analytic mean RTT − DES mean RTT| / DES mean RTT.
//     This bounds how far the degradation ladder's analytic tier may
//     drift on the statistic brownout clients actually consume.
//   - p99_rel: the same ratio for the P99 RTT (analytic: gamma-tail
//     approximation; DES: empirical percentile over all path samples).
//
// The committed thresholds carry 1.5x headroom over measured values, so
// the gates fail on real regressions (a decomposition change, a broken
// SCV calibration) without flaking on benign refactors. The analytic
// tier is an approximation — the gates document and bound its error,
// they do not demand packet-level agreement. Regenerate after an
// intentional analytic-model change with:
//
//	go test -run TestAnalyticAccuracyGates -update-golden .

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"deepqueuenet/internal/analytic"
	"deepqueuenet/internal/metrics"
)

type analyticGate struct {
	MeanRel float64 `json:"mean_rel"`
	P99Rel  float64 `json:"p99_rel"`
}

func analyticGatesPath() string {
	return filepath.Join("testdata", "golden", "analytic_gates.json")
}

// analyticAccuracy measures the analytic tier's aggregate-RTT error
// against the DES ground truth on one golden case.
func analyticAccuracy(t *testing.T, gc goldenCase) analyticGate {
	t.Helper()
	sc := gc.scenario(t)
	est, err := analytic.FromScenario(sc)
	if err != nil {
		t.Fatalf("%s: analytic decomposition failed on a golden scenario: %v", gc.name, err)
	}
	if !(est.MeanRTTSec > 0) || !(est.P99RTTSec >= est.MeanRTTSec) {
		t.Fatalf("%s: degenerate analytic estimate mean=%v p99=%v", gc.name, est.MeanRTTSec, est.P99RTTSec)
	}
	var all []float64
	for _, v := range sc.RunDES() {
		all = append(all, v...)
	}
	if len(all) == 0 {
		t.Fatalf("%s: DES produced no path samples", gc.name)
	}
	desMean := metrics.Mean(all)
	desP99 := metrics.Percentile(all, 99)
	if !(desMean > 0) || !(desP99 > 0) {
		t.Fatalf("%s: degenerate DES ground truth mean=%v p99=%v", gc.name, desMean, desP99)
	}
	return analyticGate{
		MeanRel: math.Abs(est.MeanRTTSec-desMean) / desMean,
		P99Rel:  math.Abs(est.P99RTTSec-desP99) / desP99,
	}
}

func TestAnalyticAccuracyGates(t *testing.T) {
	if testing.Short() {
		t.Skip("analytic accuracy gates run full DES ground truths")
	}
	measured := make(map[string]analyticGate)
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			measured[gc.name] = analyticAccuracy(t, gc)
			t.Logf("%s: meanRel=%.3f, p99Rel=%.3f", gc.name, measured[gc.name].MeanRel, measured[gc.name].P99Rel)
		})
	}

	if *updateGolden {
		// Commit thresholds with 1.5x headroom over what was measured,
		// floored at 2% relative error: a near-exact measurement (a
		// propagation-dominated WAN path) must not mint a hair-trigger
		// gate that any benign calibration tweak would trip.
		const floor = 0.02
		gates := make(map[string]analyticGate, len(measured))
		for name, m := range measured {
			gates[name] = analyticGate{
				MeanRel: math.Max(1.5*m.MeanRel, floor),
				P99Rel:  math.Max(1.5*m.P99Rel, floor),
			}
		}
		buf, err := json.MarshalIndent(gates, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(analyticGatesPath(), append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", analyticGatesPath())
		return
	}

	raw, err := os.ReadFile(analyticGatesPath())
	if err != nil {
		t.Fatalf("missing analytic gates %s (run with -update-golden to create): %v", analyticGatesPath(), err)
	}
	var gates map[string]analyticGate
	if err := json.Unmarshal(raw, &gates); err != nil {
		t.Fatalf("parse %s: %v", analyticGatesPath(), err)
	}
	for _, gc := range goldenCases() {
		gate, ok := gates[gc.name]
		if !ok {
			t.Errorf("%s: no committed gate in %s", gc.name, analyticGatesPath())
			continue
		}
		m := measured[gc.name]
		if m.MeanRel > gate.MeanRel {
			t.Errorf("%s: mean-RTT relative error %.3f exceeds gate %.3f — the analytic tier drifted from the DES ground truth",
				gc.name, m.MeanRel, gate.MeanRel)
		}
		if m.P99Rel > gate.P99Rel {
			t.Errorf("%s: P99-RTT relative error %.3f exceeds gate %.3f — the analytic tier drifted from the DES ground truth",
				gc.name, m.P99Rel, gate.P99Rel)
		}
	}
}

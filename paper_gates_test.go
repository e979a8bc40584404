package deepqueuenet

// Paper accuracy gates: the quick-scale Tables 4, 5 and 6 and Fig. 9 of
// cmd/paper, run from the shipped models with nothing trained, checked
// row by row and against the paper's shape claims.
//
// Per row (testdata/golden/paper_gates.json): each normalized
// Wasserstein-1 distance — avg/P99 RTT and avg/P99 jitter over paths,
// or Fig. 9's per-packet sojourn w1 — carries 1.5x headroom over its
// measured value, floored at exact_gates.json's 0.005; each DeepQueueNet
// row's Pearson ρ (Tables 8, 9, 10) is bounded below by the same rule
// applied to its distance from 1: ρ ≥ 1 − max(1.5·(1 − ρ), 0.005).
//
// Shape claims, as inequalities that no regeneration can loosen:
//   - DeepQueueNet beats every baseline (RouteNet, MimicNet) on every
//     statistic of every row they share;
//   - the unseen Fig. 9 load of 0.9 stays within fig9UnseenFactor of the
//     0.6 load inside the training range.
//
// Regenerate the per-row gates after an intentional model or engine
// change with:
//
//	go test -run TestPaperAccuracyGates -update-golden .

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/metrics"
)

// fig9UnseenFactor bounds Fig. 9's w1 at the unseen load 0.9 by this
// multiple of its w1 at 0.6 (measured 1.80 with the shipped model).
const fig9UnseenFactor = 2.5

// paperRow is one measured table row, and in the gates file its
// thresholds: W1 upper bounds, RhoAvg/RhoP99 lower bounds (DQN rows).
type paperRow struct {
	AvgRTT    float64 `json:"avg_rtt,omitempty"`
	P99RTT    float64 `json:"p99_rtt,omitempty"`
	AvgJitter float64 `json:"avg_jitter,omitempty"`
	P99Jitter float64 `json:"p99_jitter,omitempty"`
	W1        float64 `json:"w1,omitempty"`
	RhoAvg    float64 `json:"rho_avg,omitempty"`
	RhoP99    float64 `json:"rho_p99,omitempty"`
}

// w1Stats names the entries of paperRow.w1s.
var w1Stats = []string{"avg RTT", "P99 RTT", "avg jitter", "P99 jitter", "sojourn"}

// w1s lists the row's w1 distances; a table row leaves the sojourn
// entry 0, a Fig. 9 row the other four.
func (r paperRow) w1s() []float64 {
	return []float64{r.AvgRTT, r.P99RTT, r.AvgJitter, r.P99Jitter, r.W1}
}

func paperGatesPath() string {
	return filepath.Join("testdata", "golden", "paper_gates.json")
}

func summaryRow(s metrics.Summary) paperRow {
	return paperRow{AvgRTT: s.AvgRTTW1, P99RTT: s.P99RTTW1, AvgJitter: s.AvgJitterW1, P99Jitter: s.P99JitterW1}
}

// paperRows runs the quick tables and keys each row "table/system/case".
func paperRows(t *testing.T) map[string]paperRow {
	t.Helper()
	o := experiments.Opts{Quick: true}
	rows := make(map[string]paperRow)
	add := func(key string, r paperRow) {
		if _, dup := rows[key]; dup {
			t.Fatalf("duplicate paper row %s", key)
		}
		rows[key] = r
	}
	t4, _, err := experiments.Table4(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t4 {
		pr := summaryRow(r.Summary)
		if r.System == "DQN" {
			pr.RhoAvg, pr.RhoP99 = r.RhoAvg, r.RhoP99
		}
		add(fmt.Sprintf("table4/%s/%s", r.System, r.Traffic), pr)
	}
	t5, _, err := experiments.Table5(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t5 {
		pr := summaryRow(r.Summary)
		if r.System == "DQN" {
			pr.RhoAvg, pr.RhoP99 = r.RhoAvg, r.RhoP99
		}
		add(fmt.Sprintf("table5/%s/%s", r.System, r.Topology), pr)
	}
	t6, _, err := experiments.Table6(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range t6 {
		pr := summaryRow(r.Summary)
		pr.RhoAvg, pr.RhoP99 = r.RhoAvg, r.RhoP99
		add("table6/DQN/"+r.Config, pr)
	}
	f9, _, err := experiments.Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f9 {
		add(fmt.Sprintf("fig9/DQN/%.1f", r.Load), paperRow{W1: r.W1})
	}
	for key, r := range rows {
		for _, v := range append(r.w1s(), r.RhoAvg, r.RhoP99) {
			if math.IsNaN(v) {
				t.Fatalf("%s: degenerate row %+v", key, r)
			}
		}
	}
	return rows
}

// gateOf turns a measured row into its thresholds.
func gateOf(m paperRow, fig9 bool) paperRow {
	// The floor keeps a near-exact measurement (Abilene's
	// propagation-dominated RTTs, a ρ of 1.000) from minting a
	// hair-trigger gate.
	const floor = 0.005
	head := func(v float64) float64 { return math.Max(1.5*v, floor) }
	if fig9 {
		return paperRow{W1: head(m.W1)}
	}
	g := paperRow{AvgRTT: head(m.AvgRTT), P99RTT: head(m.P99RTT),
		AvgJitter: head(m.AvgJitter), P99Jitter: head(m.P99Jitter)}
	if m.RhoAvg != 0 || m.RhoP99 != 0 {
		g.RhoAvg = 1 - head(1-m.RhoAvg)
		g.RhoP99 = 1 - head(1-m.RhoP99)
	}
	return g
}

func TestPaperAccuracyGates(t *testing.T) {
	if testing.Short() {
		t.Skip("paper accuracy gates run the quick paper tables against DES ground truths")
	}
	measured := paperRows(t)
	keys := make([]string, 0, len(measured))
	for k := range measured {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Logf("%s: %+v", k, measured[k])
	}

	// Shape: DeepQueueNet beats every baseline on every shared row.
	shared := 0
	for _, k := range keys {
		part := strings.SplitN(k, "/", 3)
		table, system, name := part[0], part[1], part[2]
		if system == "DQN" {
			continue
		}
		dqn, ok := measured[table+"/DQN/"+name]
		if !ok {
			continue
		}
		shared++
		base := measured[k].w1s()
		for i, d := range dqn.w1s()[:4] {
			if d >= base[i] {
				t.Errorf("%s %s: DeepQueueNet %s w1 %.4f does not beat %s's %.4f", table, name, w1Stats[i], d, system, base[i])
			}
		}
	}
	if shared == 0 {
		t.Error("no baseline row shares a scenario with a DeepQueueNet row")
	}
	// Shape: the unseen load stays within a committed factor of a seen one.
	seen, unseen := measured["fig9/DQN/0.6"].W1, measured["fig9/DQN/0.9"].W1
	if seen <= 0 || unseen > fig9UnseenFactor*seen {
		t.Errorf("Fig. 9: w1 %.4f at the unseen load 0.9 exceeds %.1f× the %.4f at load 0.6", unseen, fig9UnseenFactor, seen)
	}

	if *updateGolden {
		gates := make(map[string]paperRow, len(measured))
		for k, m := range measured {
			gates[k] = gateOf(m, strings.HasPrefix(k, "fig9/"))
		}
		buf, err := json.MarshalIndent(gates, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperGatesPath(), append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", paperGatesPath())
		return
	}

	raw, err := os.ReadFile(paperGatesPath())
	if err != nil {
		t.Fatalf("missing paper gates %s (run with -update-golden to create): %v", paperGatesPath(), err)
	}
	var gates map[string]paperRow
	if err := json.Unmarshal(raw, &gates); err != nil {
		t.Fatalf("parse %s: %v", paperGatesPath(), err)
	}
	for k := range gates {
		if _, ok := measured[k]; !ok {
			t.Errorf("%s: gated row no longer produced by the quick tables", k)
		}
	}
	for _, k := range keys {
		gate, ok := gates[k]
		if !ok {
			t.Errorf("%s: no committed gate in %s", k, paperGatesPath())
			continue
		}
		m := measured[k]
		got, lim := m.w1s(), gate.w1s()
		for i := range got {
			if got[i] > lim[i] {
				t.Errorf("%s: %s normalized w1 %.4f exceeds gate %.4f", k, w1Stats[i], got[i], lim[i])
			}
		}
		if m.RhoAvg < gate.RhoAvg || m.RhoP99 < gate.RhoP99 {
			t.Errorf("%s: Pearson rho avg %.4f / P99 %.4f below gate %.4f / %.4f", k, m.RhoAvg, m.RhoP99, gate.RhoAvg, gate.RhoP99)
		}
	}
}

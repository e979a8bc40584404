package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// ratio returns a/b, or 0 when b is 0 (a bypassed layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tierLatencies returns the send-to-answer latencies of one tier.
func tierLatencies(w *window, tier string) []float64 {
	var out []float64
	for _, o := range w.ops {
		if o.tier == tier {
			out = append(out, o.rttMs)
		}
	}
	return out
}

// layerMetrics assembles the per-layer metrics of a traced run. Counts
// and shares that need spans come from the traced half-window; figures
// that tracing would disturb (packet rate, serving overhead, per-tier
// latency) come from the untraced half.
func layerMetrics(w *workloadSpec, rep *report, plain, traced *window, spans []span, pr *probes) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, spec := range perLayer {
		m[spec.Name] = 0
	}

	// core and ptm: offline windows carry the engine totals; serve
	// windows only the timed prediction calls.
	eng := traced.engine
	var iterations, bound, engineRuns int
	for _, o := range plain.ops {
		if o.tier == "exact" || o.tier == "quant" {
			engineRuns++
			iterations += o.iterations
			bound += o.bound
		}
	}
	m["core.runs"] = float64(engineRuns)
	m["core.sim_pkts_per_s"] = plain.simPktsPerS()
	m["core.iterations"] = ratio(float64(iterations), float64(engineRuns))
	m["core.iter_bound_ratio"] = ratio(float64(iterations), float64(bound))
	m["core.infer_busy_s"] = eng.inferBusy.Seconds()
	m["core.self_s"] = (eng.runNs - eng.iterNs).Seconds()
	m["core.shard_speedup"] = ratio(eng.shardWork.Seconds(), eng.shardCrit.Seconds())
	m["core.speedup_vs_1shard"] = rep.Facts.SpeedupVs1Shard
	m["core.w1_norm_vs_des"] = rep.Facts.W1

	calls, pkts, windows, busy := eng.calls, eng.pkts, eng.windows, eng.predictBusy.Seconds()
	if w.Serve != nil {
		c := traced.serve.calls
		calls, pkts, windows, busy = c.count, c.pkts, c.windows, c.ns.Seconds()
	}
	m["ptm.calls"] = float64(calls)
	m["ptm.pkts_per_call"] = ratio(float64(pkts), float64(calls))
	m["ptm.windows"] = float64(windows)
	m["ptm.predict_busy_s"] = busy
	m["ptm.us_per_window"] = ratio(busy*1e6, float64(windows))

	for _, name := range []string{"ptm.predict_stream_ms", "ptm.predict_stream_quant_ms",
		"tensor.gemm_embed_ns", "tensor.gemm_blstm1_ns", "tensor.gemm_blstm2_ns", "tensor.gemm_qkv_ns",
		"scenario.build_us", "analytic.estimate_us", "des.events_per_s"} {
		m[name] = pr.value(name)
	}
	m["nn.flops_per_window"] = pr.flopsPerWindow
	m["nn.bytes_per_window"] = pr.bytesPerWindow
	m["tensor.gemm_share"] = pr.gemmShare

	if w.Serve != nil {
		sv, tv := plain.serve, traced.serve
		m["plane.calls"] = float64(sv.planeCalls)
		m["plane.batch_size_avg"] = ratio(sv.planeBatchCalls, float64(sv.planeFlushes))
		m["plane.batch_ms_avg"] = ratio(sv.planeBatchSeconds*1e3, float64(sv.planeFlushes))
		// Caller-side time above the plane handle that was not the
		// execution of a batch: queueing behind, or sharing a flush with,
		// other requests' calls.
		if tv.calls.ns > 0 {
			m["plane.wait_share"] = 1 - tv.planeBatchSeconds/tv.calls.ns.Seconds()
		}
		var overhead []float64
		for _, o := range plain.ops {
			overhead = append(overhead, o.rttMs-o.elapsedMs)
		}
		m["serve.overhead_ms"] = median(overhead)
		exact, an := tierLatencies(plain, "exact"), tierLatencies(plain, "analytic")
		m["serve.exact_p50_ms"], m["serve.exact_p90_ms"] = median(exact), percentile(exact, 90)
		m["serve.analytic_p50_ms"], m["serve.analytic_p90_ms"] = median(an), percentile(an, 90)
		m["serve.exact_share"] = plain.tierShare("exact")
		m["serve.shed"] = float64(sv.shed)
		m["serve.brownouts"] = float64(sv.brownouts)
		m["serve.gen_lateness_max_ms"] = ms(plain.maxLate)
	}

	m["process.peak_rss_mb"] = peakRSSMB()
	m["process.allocs_per_op"] = ratio(float64(plain.mallocs), float64(plain.attempted))
	m["process.gc_pause_ms"] = float64(plain.gcPauseNs) / 1e6

	stats := rep.SelfTable
	total, self := rootTotals(spans, stats)
	m["trace.overhead_pct"] = 100 * (1 - ratio(traced.stats(w.Limit).goodput, plain.stats(w.Limit).goodput))
	m["trace.attributed_share"] = 1 - ratio(self.Seconds(), total.Seconds())
	m["trace.unattributed_s"] = self.Seconds()
	return m
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; 0 when
// /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

package main

import "time"

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names, units and directions; spec_test.go keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off, on every workload. An operation is one full engine run
// (offline workloads) or one HTTP request (serve workloads).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "goodput_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.20},
}

// perLayer are the metrics of single layers, reported by the traced run
// (-trace 1). A layer a workload bypasses reports 0.
var perLayer = []metricSpec{
	// core: the IRSA engine.
	{Name: "core.runs", Unit: "count", Better: "higher"},
	{Name: "core.sim_pkts_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.iterations", Unit: "count", Better: "lower"},
	{Name: "core.iter_bound_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.infer_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.self_s", Unit: "s", Better: "lower"},
	{Name: "core.shard_speedup", Unit: "x", Better: "higher"},
	{Name: "core.speedup_vs_1shard", Unit: "x", Better: "higher"},
	{Name: "core.w1_norm_vs_des", Unit: "ratio", Better: "lower"},
	// ptm: device-model prediction calls, timed through WrapDevice.
	{Name: "ptm.calls", Unit: "count", Better: "lower"},
	{Name: "ptm.pkts_per_call", Unit: "count", Better: "higher"},
	{Name: "ptm.windows", Unit: "count", Better: "lower"},
	{Name: "ptm.predict_busy_s", Unit: "s", Better: "lower"},
	{Name: "ptm.us_per_window", Unit: "us", Better: "lower"},
	// nn / tensor: probes outside the live path.
	{Name: "ptm.predict_stream_ms", Unit: "ms", Better: "lower"},
	{Name: "ptm.predict_stream_quant_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.flops_per_window", Unit: "count", Better: "lower"},
	{Name: "nn.bytes_per_window", Unit: "count", Better: "lower"},
	{Name: "tensor.gemm_embed_ns", Unit: "ns", Better: "lower"},
	{Name: "tensor.gemm_blstm1_ns", Unit: "ns", Better: "lower"},
	{Name: "tensor.gemm_blstm2_ns", Unit: "ns", Better: "lower"},
	{Name: "tensor.gemm_qkv_ns", Unit: "ns", Better: "lower"},
	{Name: "tensor.gemm_share", Unit: "ratio", Better: "lower"},
	// plane: the shared cross-request inference plane.
	{Name: "plane.calls", Unit: "count", Better: "lower"},
	{Name: "plane.batch_size_avg", Unit: "count", Better: "higher"},
	{Name: "plane.batch_ms_avg", Unit: "ms", Better: "lower"},
	{Name: "plane.wait_share", Unit: "ratio", Better: "lower"},
	// serve: the HTTP server around the engine.
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.exact_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.exact_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.analytic_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.analytic_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.exact_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.brownouts", Unit: "count", Better: "lower"},
	{Name: "serve.gen_lateness_max_ms", Unit: "ms", Better: "lower"},
	// experiments/topo/traffic, analytic, des: probes.
	{Name: "scenario.build_us", Unit: "us", Better: "lower"},
	{Name: "analytic.estimate_us", Unit: "us", Better: "lower"},
	{Name: "des.events_per_s", Unit: "1/s", Better: "higher"},
	// process.
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	// the trace itself.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.attributed_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.unattributed_s", Unit: "s", Better: "lower"},
}

// scenarioShape is the part of a scenario a workload fixes; the traffic
// seed is what varies from operation to operation.
type scenarioShape struct {
	Topo     string
	Traffic  string
	Load     float64
	Duration float64 // simulated horizon, seconds
}

// workloadSpec defines one workload: an offline one runs the engine
// through the library, one with Serve set drives the HTTP server.
type workloadSpec struct {
	Name  string
	Why   string
	Shape scenarioShape
	// Limit is the latency limit an operation must meet to count toward
	// goodput, timed from send (closed loop) or from due time (open loop).
	Limit time.Duration
	Serve *serveSpec // nil for offline workloads
}

// serveSpec configures a serve workload's server and load generator.
type serveSpec struct {
	Fidelity   string // request fidelity: exact, fast or auto
	WantTier   string // tier every answer must come from ("" = any)
	Brownout   bool
	QueueDepth int // 0 = server default
	TimeoutMs  int // per-request deadline sent to the server (0 = default)
	// RatePerP > 0 makes the workload open loop at RatePerP × P requests
	// per second; 0 makes it closed loop with P clients.
	RatePerP float64
}

// maxW1 is the correctness ceiling on the normalized w1 of RTT against the
// DES in an offline workload's set-up: an order of magnitude above what the
// shipped model scores, so it trips on a broken engine, not on noise.
const maxW1 = 0.05

// offlinePatternSeed fixes the flow pattern (who sends to whom) of the
// offline workloads. NewScenario draws the pattern and the traffic from
// one seed, and patterns differ in packet count by ±25 %, which would
// make the per-run time depend on the seed more than on the code; the
// traffic seed alone varies between runs.
const offlinePatternSeed = 1

var workloads = []workloadSpec{
	{
		Name:  "offline_fattree16",
		Why:   "library path, FatTree16/MAP: many devices with short streams; core+ptm+nn+tensor do the work, serve and plane do none",
		Shape: scenarioShape{Topo: "fattree16", Traffic: "map", Load: 0.5, Duration: 0.0002},
		Limit: 10 * time.Second,
	},
	{
		Name:  "offline_abilene",
		Why:   "library path, Abilene/BC-like: few devices with long bursty streams and a larger diameter; the opposite shard balance",
		Shape: scenarioShape{Topo: "abilene", Traffic: "bc", Load: 0.12, Duration: 0.001},
		Limit: 10 * time.Second,
	},
	{
		Name:  "serve_exact_closed",
		Why:   "HTTP closed loop, P clients, exact fidelity on line4: concurrency across requests, so plane, registry and scenario build are on the path",
		Shape: scenarioShape{Topo: "line4", Traffic: "poisson", Load: 0.5, Duration: 0.0002},
		Limit: time.Second,
		Serve: &serveSpec{Fidelity: "exact", WantTier: "exact"},
	},
	{
		Name:  "serve_fast_closed",
		Why:   "HTTP closed loop, P clients, fast fidelity on fattree16: bypasses core, ptm, nn, tensor and plane; engine changes must not move it",
		Shape: scenarioShape{Topo: "fattree16", Traffic: "map", Load: 0.4, Duration: 0.001},
		Limit: 10 * time.Millisecond,
		Serve: &serveSpec{Fidelity: "fast", WantTier: "analytic"},
	},
	{
		Name:  "serve_overload_open",
		Why:   "HTTP open loop at 20 x P req/s, about 4x exact capacity, auto fidelity with brownout: admission, estimator and the analytic tier under load",
		Shape: scenarioShape{Topo: "line4", Traffic: "poisson", Load: 0.5, Duration: 0.0002},
		Limit: time.Second,
		Serve: &serveSpec{Fidelity: "auto", Brownout: true, QueueDepth: 2, TimeoutMs: 2000, RatePerP: 20},
	},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Command dqnserve exposes DeepQueueNet as a resilient HTTP service:
// concurrent what-if simulation queries run through a bounded worker
// pool with bounded admission, per-request deadlines, per-model-path
// circuit breakers (analytic answers while open), retry with
// backoff, and graceful SIGTERM drain.
//
//	dqnserve -addr :8080 -model models/switch8-std.ptm.json
//	curl -XPOST localhost:8080/simulate -d '{"topo":"fattree16","traffic":"map","load":0.5,"duration":0.0002}'
//	curl localhost:8080/stats
//
// Without -model a small synthetic (untrained) device model serves the
// API for smoke testing. The -chaos-* flags enable the deterministic
// fault injector (internal/chaos) for resilience drills — never in
// production.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"deepqueuenet/internal/chaos"
	"deepqueuenet/internal/core"
	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/obs"
	"deepqueuenet/internal/plane"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "dqnserve: %v\n", err)
		os.Exit(1)
	}
}

// synthArch is the smoke-test model architecture (matches the
// experiment harness's CPU-scale PTM).
var synthArch = ptm.Arch{TimeSteps: 32, Margin: 8, Embed: 12, BLSTM1: 16, BLSTM2: 10, Heads: 2, DK: 8, DV: 8, HeadOut: 16}

func run(args []string) error {
	fs := flag.NewFlagSet("dqnserve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	modelPath := fs.String("model", "", "default trained device model (empty: synthetic smoke-test model)")
	workers := fs.Int("workers", 2, "concurrent simulation jobs")
	queueDepth := fs.Int("queue", 8, "admission queue depth beyond in-flight jobs")
	timeout := fs.Duration("timeout", 30*time.Second, "default per-job deadline")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "ceiling on client-requested deadlines")
	maxShards := fs.Int("max-shards", 8, "cap on per-request inference shards")
	maxDur := fs.Float64("max-duration", 0.01, "cap on simulated seconds per request")
	retries := fs.Int("retries", 2, "retry budget for transient job failures")
	brownout := fs.Bool("brownout", false, "answer overloaded or deadline-short requests at reduced fidelity (analytic) instead of shedding; fidelity \"exact\" requests are never browned out")
	planeOn := fs.Bool("plane", true, "route device inference through the shared cross-request batching plane (warm per-model workers, bit-identical results)")
	planeBatch := fs.Int("plane-batch", 16, "plane micro-batch size: flush when this many device calls have coalesced")
	brThreshold := fs.Int("breaker-threshold", 5, "consecutive failures that open a model-path breaker")
	brCooldown := fs.Duration("breaker-cooldown", 5*time.Second, "open-breaker cooldown before half-open probes")
	brProbes := fs.Int("breaker-probes", 2, "successful probes required to close a breaker")
	drain := fs.Duration("drain", 30*time.Second, "graceful drain budget on SIGTERM/SIGINT")
	stateDir := fs.String("state-dir", "", "durable job state directory (empty: jobs are in-memory only)")
	seed := fs.Uint64("seed", 1, "retry-jitter seed")
	maxBody := fs.Int64("max-body", 2<<20, "request body size cap in bytes (413 beyond)")
	pprofAddr := fs.String("pprof-addr", "", "admin listen address for net/http/pprof + /metrics (empty: disabled)")
	logJSON := fs.Bool("log-json", false, "emit slog request logs as JSON instead of text")
	quietLog := fs.Bool("quiet", false, "disable per-request structured logging")

	chaosPanic := fs.Float64("chaos-panic", 0, "injected panic rate per device inference (testing only)")
	chaosNaN := fs.Float64("chaos-nan", 0, "injected NaN rate per device inference (testing only)")
	chaosLatency := fs.Float64("chaos-latency", 0, "injected latency rate (testing only)")
	chaosCancel := fs.Float64("chaos-cancel", 0, "injected mid-run cancel rate per job (testing only)")
	chaosSeed := fs.Uint64("chaos-seed", 1, "fault-injector seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var model *ptm.PTM
	var err error
	if *modelPath != "" {
		model, err = ptm.Load(*modelPath)
		if err != nil {
			return err
		}
		fmt.Printf("serving model %s (%d ports)\n", *modelPath, model.NumPorts)
	} else {
		model, err = ptm.Synthetic(synthArch, 8, 1)
		if err != nil {
			return err
		}
		fmt.Println("no -model given: serving a synthetic (untrained) 8-port model for smoke testing")
	}

	reg := obs.NewRegistry()
	runner := &serve.ScenarioRunner{DefaultModel: model, MaxShards: *maxShards, MaxDuration: *maxDur}
	runner.CacheEvictions = reg.Counter("dqn_runner_cache_evictions_total",
		"runner cache entries dropped by the cache bounds (model registry, named topologies)")
	var pl *plane.Plane
	if *planeOn {
		pl = plane.New(plane.Config{MaxBatch: *planeBatch, Metrics: plane.NewMetrics(reg)})
		defer pl.Close()
		runner.Plane = pl
		fmt.Printf("shared inference plane enabled (batch=%d)\n", *planeBatch)
	}
	var jobRunner serve.Runner = runner
	if *chaosPanic > 0 || *chaosNaN > 0 || *chaosLatency > 0 || *chaosCancel > 0 {
		inj := chaos.New(chaos.Config{
			Seed: *chaosSeed, PanicRate: *chaosPanic, NaNRate: *chaosNaN,
			LatencyRate: *chaosLatency, CancelRate: *chaosCancel,
		})
		runner.WrapDevice = func(sw int, m core.DeviceModel) core.DeviceModel { return inj.WrapDevice(sw, m) }
		jobRunner = inj.WrapRunner(runner)
		registerChaosMetrics(reg, inj)
		fmt.Printf("CHAOS ENABLED (seed %d): panic=%.3f nan=%.3f latency=%.3f cancel=%.3f\n",
			*chaosSeed, *chaosPanic, *chaosNaN, *chaosLatency, *chaosCancel)
	}

	var logger *slog.Logger
	if !*quietLog {
		if *logJSON {
			logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
		} else {
			logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		}
	}

	srv, err := serve.New(serve.Config{
		Workers: *workers, QueueDepth: *queueDepth,
		DefaultTimeout: *timeout, MaxTimeout: *maxTimeout,
		RetryMax: *retries, Seed: *seed, Brownout: *brownout,
		MaxBodyBytes: *maxBody, Metrics: reg, Logger: logger, Plane: pl,
		StateDir: *stateDir,
		Breaker:  serve.BreakerConfig{Threshold: *brThreshold, Cooldown: *brCooldown, ProbeSuccesses: *brProbes},
	}, jobRunner)
	if err != nil {
		return err
	}
	if *stateDir != "" {
		fmt.Printf("durable job state in %s\n", *stateDir)
	}
	if *brownout {
		fmt.Println("brownout enabled: overload and deadline pressure answer at reduced fidelity instead of shedding")
	}

	if *pprofAddr != "" {
		admin := adminMux(srv)
		go func() {
			defer func() {
				if we := guard.RecoveredWorker(1, recover()); we != nil {
					fmt.Fprintf(os.Stderr, "dqnserve: admin listener: %v\n", we)
				}
			}()
			if err := http.ListenAndServe(*pprofAddr, admin); err != nil {
				fmt.Fprintf(os.Stderr, "dqnserve: admin listener: %v\n", err)
			}
		}()
		fmt.Printf("admin (pprof + metrics) on %s\n", *pprofAddr)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		defer func() {
			if we := guard.RecoveredWorker(0, recover()); we != nil {
				errCh <- we
			}
		}()
		errCh <- httpSrv.ListenAndServe()
	}()
	fmt.Printf("listening on %s (workers=%d queue=%d timeout=%v)\n", *addr, *workers, *queueDepth, *timeout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second ^C kills immediately
	fmt.Printf("signal received: draining (budget %v)\n", *drain)

	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "dqnserve: drain incomplete: %v\n", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		return err
	}
	st := srv.Snapshot()
	fmt.Printf("drained: %d completed, %d failed, %d shed, %d degraded, %d brownouts, %d retries\n",
		st.Completed, st.Failed, st.Shed, st.Degraded, st.Brownouts, st.Retries)
	return nil
}

// registerChaosMetrics exposes the fault injector's per-kind injection
// counts as dqn_chaos_injections_total{fault=...}, so a resilience
// drill's /metrics can be reconciled against the faults actually fired.
func registerChaosMetrics(reg *obs.Registry, inj *chaos.Injector) {
	names := make([]string, 0, len(inj.Counts()))
	for name := range inj.Counts() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		name := name
		reg.GaugeFunc("dqn_chaos_injections_total", "faults injected by kind (chaos drills only)",
			func() float64 { return float64(inj.Counts()[name]) }, obs.L("fault", name))
	}
}

// adminMux serves the operational side-channel: pprof profiles and the
// metrics scrape, kept off the public API listener.
func adminMux(srv *serve.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := srv.Metrics().WritePrometheus(w); err != nil {
			return // client disconnected mid-scrape
		}
	})
	return mux
}

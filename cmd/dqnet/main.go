// Command dqnet is the DeepQueueNet CLI: train device models, run
// DeepQueueNet simulations, and evaluate them against DES ground truth.
//
//	dqnet train -ports 8 -out models/switch8.ptm.json
//	dqnet sim   -topo fattree16 -model models/switch8.ptm.json -traffic map -load 0.5
//	dqnet eval  -topo line6 -model models/switch8.ptm.json -traffic poisson
//
// sim prints per-path RTT statistics and can dump the per-device packet
// traces (packet-level visibility) as CSV with -trace.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"deepqueuenet/internal/analytic"
	"deepqueuenet/internal/core"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/obs"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	// sim/eval runs are interruptible: ^C (or SIGTERM) cancels the
	// engine's context, which stops IRSA within one device inference and
	// still surfaces the partial results computed so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "sim":
		err = cmdSim(ctx, os.Args[2:])
	case "eval":
		err = cmdEval(ctx, os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dqnet: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dqnet <train|sim|eval> [flags]")
	os.Exit(2)
}

// obsConfig builds the engine Config for a run, attaching an
// EngineObserver when -obs-summary was given (nil otherwise — the
// engine's observer seam is zero-cost when detached).
func obsConfig(summary bool, shards int) (*obs.EngineObserver, core.Config) {
	cfg := core.Config{Shards: shards}
	if !summary {
		return nil, cfg
	}
	o := obs.NewEngineObserver(obs.NewRegistry())
	cfg.Observer = o
	return o, cfg
}

// dumpObs prints the -obs-summary block. It runs even after a failed or
// interrupted run: the partial delta trace is exactly what you want
// when diagnosing why a run did not converge.
func dumpObs(o *obs.EngineObserver) {
	if o == nil {
		return
	}
	if err := o.WriteSummary(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dqnet: writing obs summary: %v\n", err)
	}
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	ports := fs.Int("ports", 8, "device port count K")
	streams := fs.Int("streams", 16, "training streams")
	dur := fs.Float64("dur", 0.002, "seconds per training stream")
	epochs := fs.Int("epochs", 12, "training epochs")
	seed := fs.Uint64("seed", 42, "seed")
	out := fs.String("out", "device.ptm.json", "output model path")
	paperScale := fs.Bool("paper-arch", false, "use the Table 1 hyper-parameters (slow on CPU)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := ptm.TrainSpec{Ports: *ports, Streams: *streams, Duration: *dur, Seed: *seed}
	spec.Train.Epochs = *epochs
	if *paperScale {
		spec.Arch = ptm.PaperArch
	}
	t0 := time.Now()
	model, rep, err := ptm.TrainDevice(spec)
	if err != nil {
		return err
	}
	fmt.Printf("trained %d-port model in %v: %d chunks, val MSE %.6f, holdout w1 %.4f\n",
		*ports, time.Since(t0).Round(time.Second), rep.Windows, rep.ValMSE, rep.ValW1)
	return model.Save(*out)
}

// withTimeout derives the run context from the -timeout flag (0 keeps
// the signal-cancelable parent unchanged).
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// irsaSummary renders how a completed run's fixed-point iteration ended:
// converged (no arrival estimate moved by more than 1 ns), or at its
// Theorem 3.1 bound with the delta it plateaued at.
func irsaSummary(res *core.Result) string {
	end := "stopped at the bound"
	if res.Converged {
		end = "converged"
	}
	return fmt.Sprintf("IRSA %d/%d iterations, final delta %.3gs, %s", res.Iterations, res.Bound, res.FinalDelta, end)
}

// describeRunErr rewraps a context-terminated run error with CLI-level
// context (partial results, when any, were already printed).
func describeRunErr(err error) error {
	switch {
	case errors.Is(err, guard.ErrDeadline):
		return fmt.Errorf("run stopped at -timeout: %w", err)
	case errors.Is(err, guard.ErrCanceled):
		return fmt.Errorf("run interrupted by signal: %w", err)
	}
	return err
}

// runFlags declares the flags sim and eval share: the scenario spec's
// six and the device model, shard count and inference backend.
func runFlags(fs *flag.FlagSet) (spec *experiments.Spec, modelPath *string, shards *int, quant *bool) {
	spec = new(experiments.Spec)
	spec.RegisterFlags(fs)
	modelPath = fs.String("model", "", "trained device model (required for sim/eval)")
	shards = fs.Int("shards", 4, "parallel inference shards")
	quant = fs.Bool("quant", false, "use the int8-weight quantized inference backend (faster, accuracy-gated; default is the bit-exact float path)")
	return spec, modelPath, shards, quant
}

// loadModel resolves the -model flag: a trained model file, or the
// literal "synth" for a deterministic synthetic (untrained) 8-port
// model — enough for smoke runs without a training run.
func loadModel(path string) (*ptm.PTM, error) {
	if path == "synth" {
		return ptm.Synthetic(synthArch, 8, 1)
	}
	return ptm.Load(path)
}

// synthArch matches the serving layer's smoke-test architecture.
var synthArch = ptm.Arch{TimeSteps: 32, Margin: 8, Embed: 12, BLSTM1: 16, BLSTM2: 10, Heads: 2, DK: 8, DV: 8, HeadOut: 16}

func cmdSim(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	spec, modelPath, shards, quant := runFlags(fs)
	tracePath := fs.String("trace", "", "write per-device packet traces (CSV)")
	timeout := fs.Duration("timeout", 0, "wall-clock run deadline (0 = none; ^C always cancels)")
	obsSummary := fs.Bool("obs-summary", false, "print engine telemetry (delta trace, shard work, metrics) after the run")
	printDigest := fs.Bool("digest", false, "print the bit-exact delivery-trace digest")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("sim requires -model (a .ptm.json file, or 'synth')")
	}
	model, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	if *quant {
		if err := model.WithQuantized(); err != nil {
			return fmt.Errorf("-quant: %w", err)
		}
	}
	sc, err := spec.Build()
	if err != nil {
		return err
	}
	rctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()
	observer, runCfg := obsConfig(*obsSummary, *shards)
	t0 := time.Now()
	pred, res, err := sc.RunDQNCfgCtx(rctx, model, runCfg)
	defer dumpObs(observer)
	if err != nil {
		if res != nil && len(res.Deliveries) > 0 {
			fmt.Printf("partial results after %d/%d IRSA iterations (%d deliveries):\n",
				res.Iterations, res.Bound, len(res.Deliveries))
			printPathStats(pred)
		}
		return describeRunErr(err)
	}
	fmt.Printf("simulated %s in %v (%s)\n", sc.Name, time.Since(t0).Round(time.Millisecond), irsaSummary(res))
	printPathStats(pred)
	if *printDigest {
		fmt.Printf("digest %s\n", serve.Digest(res))
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintln(f, "device,pkt,flow,in_port,out_port,size,class,arrive,depart")
		devs := make([]int, 0, len(res.DeviceVisits))
		for d := range res.DeviceVisits {
			devs = append(devs, d)
		}
		sort.Ints(devs)
		for _, d := range devs {
			for _, v := range res.DeviceVisits[d] {
				fmt.Fprintf(f, "%d,%d,%d,%d,%d,%d,%d,%.9f,%.9f\n",
					v.Device, v.PktID, v.FlowID, v.InPort, v.OutPort, v.Size, v.Class, v.Arrive, v.Depart)
			}
		}
		fmt.Printf("wrote per-device traces to %s\n", *tracePath)
	}
	return nil
}

func cmdEval(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	spec, modelPath, shards, quant := runFlags(fs)
	perDevice := fs.Bool("perdevice", false, "print per-switch sojourn comparison")
	timeout := fs.Duration("timeout", 0, "wall-clock deadline for the DQN run (0 = none; ^C always cancels)")
	obsSummary := fs.Bool("obs-summary", false, "print engine telemetry (delta trace, shard work, metrics) after the run")
	analyticEval := fs.Bool("analytic", false, "also evaluate the queueing-theory analytic estimate (the serving layer's brownout tier) against DES; -model becomes optional")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" && !*analyticEval {
		return fmt.Errorf("eval requires -model (or -analytic for a model-free analytic evaluation)")
	}
	var model *ptm.PTM
	if *modelPath != "" {
		var err error
		model, err = ptm.Load(*modelPath)
		if err != nil {
			return err
		}
		if *quant {
			if err := model.WithQuantized(); err != nil {
				return fmt.Errorf("-quant: %w", err)
			}
		}
	}
	sc, err := spec.Build()
	if err != nil {
		return err
	}
	rctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()
	t0 := time.Now()
	net := sc.BuildDESNetwork()
	net.Run(sc.Duration + 1)
	truth := net.PathDelays(true)
	desTime := time.Since(t0)
	if err := rctx.Err(); err != nil {
		return describeRunErr(guard.FromContext(err))
	}
	if *analyticEval {
		if err := printAnalyticEval(sc, truth, desTime); err != nil {
			return err
		}
		if model == nil {
			return nil
		}
	}
	observer, runCfg := obsConfig(*obsSummary, *shards)
	t0 = time.Now()
	pred, res, err := sc.RunDQNCfgCtx(rctx, model, runCfg)
	defer dumpObs(observer)
	if err != nil {
		if res != nil {
			fmt.Printf("DQN run ended early after %d/%d IRSA iterations (%d deliveries)\n",
				res.Iterations, res.Bound, len(res.Deliveries))
		}
		return describeRunErr(err)
	}
	dqnTime := time.Since(t0)
	if *perDevice {
		for _, sw := range sc.G.Switches() {
			var dv, qv []float64
			for _, v := range net.Trace.DeviceVisits(sw) {
				if !v.Dropped {
					dv = append(dv, v.Sojourn())
				}
			}
			for _, v := range res.DeviceVisits[sw] {
				qv = append(qv, v.Sojourn())
			}
			if len(dv) == 0 {
				continue
			}
			fmt.Printf("switch %-3d (%s): DES n=%d mean=%.2fus p99=%.2fus | DQN n=%d mean=%.2fus p99=%.2fus\n",
				sw, sc.G.Names[sw], len(dv), metrics.Mean(dv)*1e6, metrics.Percentile(dv, 99)*1e6,
				len(qv), metrics.Mean(qv)*1e6, metrics.Percentile(qv, 99)*1e6)
		}
	}
	sum := metrics.Compare(pred, truth)
	fmt.Printf("scenario %s: DES %v, DeepQueueNet %v (%s)\n",
		sc.Name, desTime.Round(time.Millisecond), dqnTime.Round(time.Millisecond), irsaSummary(res))
	var allT, allP []float64
	for _, v := range truth {
		allT = append(allT, v...)
	}
	for _, v := range pred {
		allP = append(allP, v...)
	}
	fmt.Printf("DES: n=%d mean %.2fus p99 %.2fus | DQN: n=%d mean %.2fus p99 %.2fus\n",
		len(allT), metrics.Mean(allT)*1e6, metrics.Percentile(allT, 99)*1e6,
		len(allP), metrics.Mean(allP)*1e6, metrics.Percentile(allP, 99)*1e6)
	fmt.Printf("path-wise normalized w1: avgRTT %.4f  p99RTT %.4f  avgJitter %.4f  p99Jitter %.4f\n",
		sum.AvgRTTW1, sum.P99RTTW1, sum.AvgJitterW1, sum.P99JitterW1)
	return nil
}

// printAnalyticEval runs the G/G/1 analytic decomposition on the
// scenario and prints a per-path comparison against the DES ground
// truth — the accuracy table behind the degradation ladder's analytic
// tier (see testdata/golden/analytic_gates.json for the gated bounds).
func printAnalyticEval(sc *experiments.Scenario, truth metrics.PathSamples, desTime time.Duration) error {
	t0 := time.Now()
	est, err := analytic.FromScenario(sc)
	anaTime := time.Since(t0)
	if err != nil {
		return fmt.Errorf("-analytic: %w", err)
	}
	truthStats := truth.Stats()
	anaStats := est.PathStats()
	keys := make([]string, 0, len(truthStats))
	for k := range truthStats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("analytic tier (per-port G/G/1 decomposition): DES %v, analytic %v, max rho %.3f\n",
		desTime.Round(time.Millisecond), anaTime.Round(time.Microsecond), est.MaxRho)
	fmt.Println("path           DES meanRTT(us)  ana meanRTT(us)  rel     DES p99(us)  ana p99(us)  rel")
	for _, k := range keys {
		ts := truthStats[k]
		as, ok := anaStats[k]
		if !ok {
			fmt.Printf("%-14s (no analytic estimate)\n", k)
			continue
		}
		fmt.Printf("%-14s %-16.2f %-16.2f %-7.3f %-12.2f %-12.2f %-7.3f\n",
			k, ts.AvgRTT*1e6, as.AvgRTT*1e6, relErr(as.AvgRTT, ts.AvgRTT),
			ts.P99RTT*1e6, as.P99RTT*1e6, relErr(as.P99RTT, ts.P99RTT))
	}
	var allT []float64
	for _, v := range truth {
		allT = append(allT, v...)
	}
	desMean := metrics.Mean(allT)
	desP99 := metrics.Percentile(allT, 99)
	fmt.Printf("aggregate: DES mean %.2fus p99 %.2fus | analytic mean %.2fus p99 %.2fus (rel %.3f / %.3f)\n",
		desMean*1e6, desP99*1e6, est.MeanRTTSec*1e6, est.P99RTTSec*1e6,
		relErr(est.MeanRTTSec, desMean), relErr(est.P99RTTSec, desP99))
	return nil
}

// relErr is |got−want| / want, NaN-safe for empty ground truths.
func relErr(got, want float64) float64 {
	if !(want > 0) {
		return 0
	}
	return math.Abs(got-want) / want
}

func printPathStats(ps metrics.PathSamples) {
	keys := make([]string, 0, len(ps))
	for k := range ps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("path           n      meanRTT(us)  p99RTT(us)")
	for _, k := range keys {
		v := ps[k]
		fmt.Printf("%-14s %-6d %-12.2f %-12.2f\n",
			k, len(v), metrics.Mean(v)*1e6, metrics.Percentile(v, 99)*1e6)
	}
}

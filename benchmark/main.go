// Command benchmark is the repository's benchmark: five named workloads
// over the offline library path and the HTTP serving path, end-to-end
// metrics measured with tracing off, and a traced run that attributes
// wall time to layers. BENCHMARK.json at the repository root names the
// workloads, metrics and regression bounds; README.md in this directory
// explains them.
//
// The program drives the repository only through its packages' public
// functions and seams, from the repository root (it reads
// models/switch8-std.ptm.json):
//
//	go run ./benchmark                                  # all workloads
//	go run ./benchmark -workload offline_abilene -seed 3 -seconds 10 -trace 0
//	go run ./benchmark -workload serve_exact_closed -trace 1
//	go run ./benchmark -probe                           # layer probes only
//	go run ./benchmark -selfcheck                       # two full sets, compared
//
// With -workload, the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"deepqueuenet/internal/tensor"
)

// Every workload runs the trained 8-port model; traced runs write their
// span files under traceDir. Both paths are relative to the repository
// root, where the program is run from.
const (
	modelPath = "models/switch8-std.ptm.json"
	traceDir  = "benchmark/out"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload and end with its JSON result line (default: all five)")
		seed      = flag.Uint64("seed", 1, "derives every scenario and request seed")
		seconds   = flag.Float64("seconds", 15, "measured window per workload, seconds")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics, span file, layer probes")
		probe     = flag.Bool("probe", false, "run only the layer probes")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice and compare against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *seed >= setupRun {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{P: min(runtime.NumCPU(), 4), Seed: *seed, Seconds: *seconds,
		Trace: *trace == 1}

	selected := workloads
	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		selected = []workloadSpec{*w}
	}
	printEnv(os.Stdout, cfg)

	var err error
	ok := true
	switch {
	case *probe:
		err = runProbeOnly(selected, cfg, os.Stdout)
	case *selfcheck:
		ok, err = runSelfcheck(selected, cfg, os.Stdout)
	default:
		ok, err = runSelected(selected, cfg, os.Stdout, *workload != "")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// printEnv records the environment every result depends on.
func printEnv(out io.Writer, cfg runConfig) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(out, "env: %s %s/%s nproc=%d P=%d GOMAXPROCS=%d cpu=%q asm_kernels=%v vec_kernels=%v commit=%s seed=%d model=%s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), cfg.P, runtime.GOMAXPROCS(0),
		cpuModel(), tensor.AsmKernelsSupported(), tensor.VecKernelsSupported(), commit, cfg.Seed, modelPath)
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// resultLine is the machine-readable result: the last line of standard
// output when one workload is selected.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders the report's metrics: the end-to-end set of an untraced
// run, the per-layer set of a traced one.
func (r *report) line(traced bool) resultLine {
	specs, values := endToEnd, r.EndToEnd
	if traced {
		specs, values = perLayer, r.PerLayer
	}
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, m := range specs {
		out.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	return out
}

// runSet runs the workloads in order and prints each report. It reports
// false when any output verification failed.
func runSet(selected []workloadSpec, cfg runConfig, out io.Writer) ([]*report, bool, error) {
	var reps []*report
	ok := true
	for i := range selected {
		w := &selected[i]
		rep, err := runWorkload(w, cfg)
		if err != nil {
			return nil, false, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep.print(out, w, cfg)
		ok = ok && rep.Correct
		reps = append(reps, rep)
	}
	return reps, ok, nil
}

// runSelected runs the workloads once; with a single workload selected
// by name it ends with the machine-readable result line.
func runSelected(selected []workloadSpec, cfg runConfig, out io.Writer, jsonLast bool) (bool, error) {
	reps, ok, err := runSet(selected, cfg, out)
	if err != nil {
		return false, err
	}
	if jsonLast {
		data, err := json.Marshal(reps[0].line(cfg.Trace))
		if err != nil {
			return false, fmt.Errorf("encoding result: %w", err)
		}
		fmt.Fprintf(out, "%s\n", data)
	}
	return ok, nil
}

// runProbeOnly prints the layer probes for each selected workload's
// scenario shape.
func runProbeOnly(selected []workloadSpec, cfg runConfig, out io.Writer) error {
	for i := range selected {
		pr, err := runProbes(&selected[i], cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", selected[i].Name, err)
		}
		fmt.Fprintf(out, "\n== %s\n", selected[i].Name)
		pr.print(out)
	}
	return nil
}

// runSelfcheck runs the selected workloads twice on the same code and
// prints, per workload and end-to-end metric, both values, their
// relative difference and whether it is inside the metric's bound. A
// difference outside the bound is UNRESOLVED: the benchmark could not
// tell a change of that size from its own noise.
func runSelfcheck(selected []workloadSpec, cfg runConfig, out io.Writer) (bool, error) {
	cfg.Trace = false
	first, ok1, err := runSet(selected, cfg, out)
	if err != nil {
		return false, err
	}
	second, ok2, err := runSet(selected, cfg, out)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "\n| workload | metric | run 1 | run 2 | rel. diff | bound | verdict |\n|---|---|---|---|---|---|---|\n")
	for i := range selected {
		name := selected[i].Name
		for _, m := range endToEnd {
			a, b := first[i].EndToEnd[m.Name], second[i].EndToEnd[m.Name]
			verdict := "PASS"
			if relDiff(a, b) > m.Bound {
				verdict = "UNRESOLVED"
			}
			fmt.Fprintf(out, "| %s | %s (%s) | %.4f | %.4f | %.4f | %.2f | %s |\n",
				name, m.Name, m.Unit, a, b, relDiff(a, b), m.Bound, verdict)
		}
	}
	return ok1 && ok2, nil
}

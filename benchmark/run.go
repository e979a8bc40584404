package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one benchmark invocation's settings.
type runConfig struct {
	P       int     // min(nproc, 4): shards, server workers, closed-loop clients
	Seed    uint64  // derives every scenario and request seed
	Seconds float64 // measured window
	Trace   bool
}

// Seed streams: operations of different phases of one run never share a
// seed, so no two requests of a run are identical and a result cache
// cannot win by artefact.
const (
	streamVerify = iota
	streamWarmup
	streamRamp
	streamWindow
	streamTraced
)

// seedOf derives the seed of operation i of a phase of a run. Phases are
// 2^20 apart and runs 2^24 apart; the fastest workload issues under 2^18
// operations per phase.
func seedOf(run, stream, i uint64) uint64 { return run<<24 + stream<<20 + i + 1 }

// seedFor derives the seed of operation i of a measured phase from -seed.
func (c runConfig) seedFor(stream, i uint64) uint64 { return seedOf(c.Seed, stream, i) }

// setupRun is the run number set-up draws its seeds from. Set-up is
// fixed work: its verification scenario and warm-up requests are the
// same whatever -seed says, so setup_s varies with the machine and the
// code only, and the verification digest compares across runs. -seed
// must stay below it.
const setupRun = 1 << 39

// setupSeed derives the seed of operation i of a set-up phase.
func setupSeed(stream, i uint64) uint64 { return seedOf(setupRun, stream, i) }

// A run sets its workload up from scratch at least minSetups times, and
// keeps going (an odd count, at most maxSetups) until the set-ups have
// taken setupBudget together: a set-up of a few milliseconds needs many
// repeats before its median is steady. setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 31
	setupBudget = 2 * time.Second
)

// rampDur is the unmeasured stretch of the workload run before the
// window, so that connection pools, the heap target and the CPU's clock
// have settled. It is fixed work in time, the same on every commit, and
// not part of setup_s.
const rampDur = time.Second

// opSample is one successful operation.
type opSample struct {
	from       time.Duration // send (or, open loop, due) time since the window's start
	latMs      float64       // from send (closed loop, offline) or from due time (open loop)
	rttMs      float64       // from the actual send
	elapsedMs  float64       // server-reported run time (serve workloads)
	tier       string        // exact, quant, analytic or fifo
	deliveries int
	iterations int
	bound      int
}

// window is what one measured window produced.
type window struct {
	elapsed    time.Duration
	end        time.Time // completion of the last operation
	attempted  int
	failed     int
	failKinds  map[string]int
	ops        []opSample
	violations []string
	maxLate    time.Duration // open loop: how late the generator ran

	engine engineTotals // traced windows only
	serve  serveTotals

	// Heap allocations and GC pause over the window; newWindow stores the
	// process totals at its start, finish turns them into the difference.
	mallocs, gcPauseNs uint64
}

func newWindow() *window {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &window{failKinds: map[string]int{}, mallocs: m.Mallocs, gcPauseNs: m.PauseTotalNs}
}

func (w *window) fail(kind string) {
	w.failed++
	w.failKinds[kind]++
}

// finish closes the window: its length runs to the completion of the
// last operation, so a window is a whole number of operations and
// goodput is not quantized by where the deadline fell.
func (w *window) finish(start time.Time) {
	if w.end.IsZero() {
		w.end = time.Now()
	}
	w.elapsed = w.end.Sub(start)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.mallocs = m.Mallocs - w.mallocs
	w.gcPauseNs = m.PauseTotalNs - w.gcPauseNs
}

// sentAt returns when the operation was really sent, since the window's
// start: an open-loop request goes out a little after it was due.
func (o opSample) sentAt() time.Duration {
	return o.from + time.Duration((o.latMs-o.rttMs)*float64(time.Millisecond))
}

// statBlocks is how many consecutive blocks a window's operations are
// split into. Each end-to-end figure is the median over the blocks of the
// block's own figure, so a burst of stolen CPU time spoils one block, not
// the window: on a shared 2-vCPU box that halves the run-to-run spread
// of goodput and of the tail.
const statBlocks = 5

// e2eStats are a window's end-to-end figures.
type e2eStats struct {
	goodput  float64 // operations answered correctly inside the limit, per second
	p50, p90 float64 // latency of successful operations, ms
	perBlock int     // operations in the smallest block
}

// stats splits the successful operations, in start order, into
// statBlocks consecutive blocks of equal count. A block spans from its
// first send to the next block's first send (the last one to the
// window's end); its goodput is its in-limit operations over that span,
// so a failed or shed operation shows as a longer span per success.
func (w *window) stats(limit time.Duration) e2eStats {
	ops := append([]opSample(nil), w.ops...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].from < ops[j].from })
	n := min(statBlocks, len(ops))
	var goodput, p50, p90 []float64
	for b := 0; b < n; b++ {
		lo, hi := b*len(ops)/n, (b+1)*len(ops)/n
		end := w.elapsed
		if hi < len(ops) {
			end = ops[hi].sentAt()
		}
		good := 0
		lat := make([]float64, 0, hi-lo)
		for _, o := range ops[lo:hi] {
			lat = append(lat, o.latMs)
			if o.latMs <= ms(limit) {
				good++
			}
		}
		goodput = append(goodput, float64(good)/(end-ops[lo].sentAt()).Seconds())
		p50 = append(p50, median(lat))
		p90 = append(p90, percentile(lat, 90))
	}
	return e2eStats{goodput: median(goodput), p50: median(p50), p90: median(p90), perBlock: len(ops) / max(n, 1)}
}

// simPktsPerS returns the packets the engine delivered per host
// wall-second of window — the paper's Table 7 quantity. Analytic answers
// simulate no packets.
func (w *window) simPktsPerS() float64 {
	pkts := 0
	for _, o := range w.ops {
		pkts += o.deliveries
	}
	return float64(pkts) / w.elapsed.Seconds()
}

// tierShare returns the share of answered operations served at tier.
func (w *window) tierShare(tier string) float64 {
	n := 0
	for _, o := range w.ops {
		if o.tier == tier {
			n++
		}
	}
	return ratio(float64(n), float64(len(w.ops)))
}

// env is a set-up workload ready to measure.
type env interface {
	// measure runs the workload for d on the given seed stream; a
	// non-nil tracer turns span recording on.
	measure(d time.Duration, stream uint64, tr *tracer) (*window, error)
	setupFacts() setupFacts
	close() error
}

func setupWorkload(w *workloadSpec, cfg runConfig) (env, []string, error) {
	if w.Serve != nil {
		return setupServe(w, cfg)
	}
	return setupOffline(w, cfg)
}

// report is everything one run of one workload measured.
type report struct {
	Workload   string
	Correct    bool
	Violations []string
	Attempted  int
	Failed     int
	FailKinds  map[string]int
	Samples    int
	Tail90     int // samples beyond p90
	Facts      setupFacts
	Setups     []float64
	// Shown beside the end-to-end metrics on every run: the paper's
	// Table 7 quantity, and what moves on the overload workload.
	SimPktsPerS float64
	ExactShare  float64
	MaxLate     time.Duration
	EndToEnd    map[string]float64
	PerLayer    map[string]float64 // traced runs only
	TraceFile   string
	SelfTable   map[string]nameStat
	Probes      *probes
}

// runWorkload sets the workload up repeatedly, ramps and measures it,
// and verifies its outputs. With cfg.Trace the window is split: an untraced
// half gives the reference goodput, a traced half the spans.
func runWorkload(w *workloadSpec, cfg runConfig) (*report, error) {
	rep := &report{Workload: w.Name, FailKinds: map[string]int{}}
	var e env
	var setupTotal time.Duration
	for i := 0; i < minSetups || (i < maxSetups && (setupTotal < setupBudget || i%2 == 0)); i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		next, bad, err := setupWorkload(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		rep.Setups = append(rep.Setups, time.Since(t0).Seconds())
		setupTotal += time.Since(t0)
		rep.Violations = append(rep.Violations, bad...)
		e = next
	}
	defer func() {
		if err := e.close(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: closing %s: %v\n", w.Name, err)
		}
	}()
	rep.Facts = e.setupFacts()

	d := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		d /= 2
	}
	ramp, err := e.measure(rampDur, streamRamp, nil)
	if err != nil {
		return nil, err
	}
	rep.Violations = append(rep.Violations, ramp.violations...)
	win, err := e.measure(d, streamWindow, nil)
	if err != nil {
		return nil, err
	}
	rep.Violations = append(rep.Violations, win.violations...)
	rep.absorb(win)
	st := win.stats(w.Limit)
	rep.Samples = len(win.ops)
	rep.Tail90 = samplesBeyond(st.perBlock, 90)
	rep.SimPktsPerS, rep.ExactShare, rep.MaxLate = win.simPktsPerS(), win.tierShare("exact"), win.maxLate
	rep.EndToEnd = map[string]float64{
		"setup_s":       median(rep.Setups),
		"goodput_per_s": st.goodput,
		"op_p50_ms":     st.p50,
		"op_p90_ms":     st.p90,
	}

	if cfg.Trace {
		tr := newTracer()
		traced, err := e.measure(d, streamTraced, tr)
		if err != nil {
			return nil, err
		}
		rep.Violations = append(rep.Violations, traced.violations...)
		rep.absorb(traced)
		spans := tr.snapshot()
		rep.SelfTable = selfTimes(spans)
		if rep.TraceFile, err = writeTrace(traceDir, w.Name, cfg.Seed, spans); err != nil {
			return nil, err
		}
		pr, err := runProbes(w, cfg)
		if err != nil {
			return nil, err
		}
		rep.Probes = pr
		rep.PerLayer = layerMetrics(w, rep, win, traced, spans, pr)
	}
	rep.Correct = len(rep.Violations) == 0
	return rep, nil
}

func (r *report) absorb(w *window) {
	r.Attempted += w.attempted
	r.Failed += w.failed
	for k, n := range w.failKinds {
		r.FailKinds[k] += n
	}
}

// print writes the human-readable report.
func (r *report) print(out io.Writer, w *workloadSpec, cfg runConfig) {
	fmt.Fprintf(out, "\n== %s (seed %d, P=%d, window %gs, trace %v)\n", r.Workload, cfg.Seed, cfg.P, cfg.Seconds, cfg.Trace)
	fmt.Fprintf(out, "   %s\n", w.Why)
	fmt.Fprintf(out, "   attempted %d  failed %d  failed_share %.6f", r.Attempted, r.Failed,
		float64(r.Failed)/float64(max(r.Attempted, 1)))
	if len(r.FailKinds) > 0 {
		kinds := make([]string, 0, len(r.FailKinds))
		for k, n := range r.FailKinds {
			kinds = append(kinds, k+"="+strconv.Itoa(n))
		}
		sort.Strings(kinds)
		fmt.Fprintf(out, "  by kind: %s", strings.Join(kinds, " "))
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "   samples %d in %d blocks (beyond a block's p90: %d)  set-ups %d (median %.4f s, MAD %.4f s)\n", r.Samples, statBlocks, r.Tail90,
		len(r.Setups), median(r.Setups), mad(r.Setups))
	switch {
	case w.Serve == nil:
		fmt.Fprintf(out, "   verification: digest %s  deliveries %d  iterations %d/%d  w1_norm_vs_des %.6f\n",
			r.Facts.Digest, r.Facts.Deliveries, r.Facts.Iterations, r.Facts.Bound, r.Facts.W1)
	case r.Facts.Digest != "":
		fmt.Fprintf(out, "   verification: served digest %s equals a direct run  deliveries %d  iterations %d/%d\n",
			r.Facts.Digest, r.Facts.Deliveries, r.Facts.Iterations, r.Facts.Bound)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(out, "   %-24s %14.4f %-5s (%s is better, bound %.2f)\n", m.Name, r.EndToEnd[m.Name], m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintf(out, "   not gated: sim_pkts_per_s %.1f  exact_share %.4f  max generator lateness %.3f ms\n",
		r.SimPktsPerS, r.ExactShare, ms(r.MaxLate))
	if r.PerLayer != nil {
		fmt.Fprintf(out, "   -- per-layer (traced run; trace at %s)\n", r.TraceFile)
		for _, m := range perLayer {
			fmt.Fprintf(out, "   %-30s %16.4f %s\n", m.Name, r.PerLayer[m.Name], m.Unit)
		}
		fmt.Fprintln(out, "   -- self time per span name")
		writeSelfTable(out, r.SelfTable)
		r.Probes.print(out)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(out, "   VIOLATION: %s\n", v)
	}
	if r.Correct {
		fmt.Fprintln(out, "   outputs verified: ok")
	}
}

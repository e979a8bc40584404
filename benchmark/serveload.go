package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"deepqueuenet/internal/analytic"
	"deepqueuenet/internal/core"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/obs"
	"deepqueuenet/internal/plane"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/serve"
)

// serveEnv is a set-up serve workload: a server with the shared plane
// behind a loopback HTTP listener, wired as cmd/dqnserve wires it.
type serveEnv struct {
	w   *workloadSpec
	cfg runConfig

	model  *ptm.PTM
	planeM *plane.Metrics
	plane  *plane.Plane
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	st     *serveTrace // nil unless the run is traced

	facts setupFacts
}

// serveTotals are the server-side counters a window moved: the server's
// own, the plane's dqn_batch_* series, and (traced windows) the timed
// prediction calls.
type serveTotals struct {
	shed, brownouts   uint64
	planeCalls        uint64
	planeFlushes      uint64
	planeBatchCalls   float64 // Σ calls per flush
	planeBatchSeconds float64 // Σ execution time of flushes
	calls             callTotals
}

// callTotals sums the prediction calls timed above the plane handle.
type callTotals struct {
	ns            time.Duration
	count         int
	pkts, windows int
}

// counters reads the cumulative server-side counters.
func (e *serveEnv) counters() serveTotals {
	st := e.srv.Snapshot()
	return serveTotals{
		shed: st.Shed, brownouts: st.Brownouts,
		planeCalls:        e.planeM.Calls.Value(),
		planeFlushes:      e.planeM.BatchSize.Count(),
		planeBatchCalls:   e.planeM.BatchSize.Sum(),
		planeBatchSeconds: e.planeM.BatchSeconds.Sum(),
	}
}

// setupServe performs one full set-up: model load, plane and server
// start, the loopback listener, and the fixed-work warm-up of 2·P
// requests, one of which is verified against a direct library call.
func setupServe(w *workloadSpec, cfg runConfig) (env, []string, error) {
	model, err := ptm.Load(modelPath)
	if err != nil {
		return nil, nil, fmt.Errorf("loading model: %w", err)
	}
	reg := obs.NewRegistry()
	pm := plane.NewMetrics(reg)
	pl := plane.New(plane.Config{MaxBatch: 16, Metrics: pm})
	runner := &serve.ScenarioRunner{DefaultModel: model, MaxShards: cfg.P, Plane: pl}
	e := &serveEnv{w: w, cfg: cfg, model: model, planeM: pm, plane: pl}
	var jobRunner serve.Runner = runner
	if cfg.Trace {
		e.st = &serveTrace{inner: runner, timeSteps: model.TimeSteps, margin: model.Margin}
		runner.WrapDevice = e.st.wrapDevice
		jobRunner = e.st
	}
	e.srv, err = serve.New(serve.Config{
		Workers: cfg.P, QueueDepth: w.Serve.QueueDepth, RetryMax: -1,
		DefaultTimeout: 30 * time.Second, Seed: 1, Brownout: w.Serve.Brownout,
		Metrics: reg, Plane: pl,
	}, jobRunner)
	if err != nil {
		pl.Close()
		return nil, nil, fmt.Errorf("starting server: %w", err)
	}
	e.ts = httptest.NewServer(e.srv.Handler())
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1024, MaxIdleConnsPerHost: 1024, IdleConnTimeout: time.Minute,
	}}

	// Warm-up: two rounds of P concurrent requests.
	var bad []string
	var first *answer
	var guard panicGuard
	for round := uint64(0); round < 2; round++ {
		answers := make([]*answer, cfg.P)
		var wg sync.WaitGroup
		for c := 0; c < cfg.P; c++ {
			wg.Add(1)
			go func(c int) {
				defer guard.done(&wg)
				seed := setupSeed(streamWarmup, round*uint64(cfg.P)+uint64(c))
				answers[c] = e.do(seed, time.Time{}, nil)
			}(c)
		}
		wg.Wait()
		for _, a := range answers {
			if a == nil {
				continue // its goroutine panicked; guard has the report
			}
			if a.failKind != "" {
				bad = append(bad, fmt.Sprintf("warm-up request seed %d failed: %s", a.seed, a.failKind))
			}
			bad = append(bad, a.violations...)
			if first == nil && a.failKind == "" {
				first = a
			}
		}
	}
	bad = append(bad, guard.msgs...)
	if first != nil {
		bad = append(bad, e.verifyAgainstDirect(first)...)
		e.facts = setupFacts{Digest: first.res.Digest, Deliveries: first.res.Deliveries,
			Iterations: first.res.Iterations, Bound: first.res.Bound}
	}
	return e, bad, nil
}

func (e *serveEnv) setupFacts() setupFacts { return e.facts }

// close stops the listener, drains the server and retires the plane.
func (e *serveEnv) close() error {
	e.ts.Close()
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Drain(ctx)
	e.plane.Close()
	return err
}

// panicGuard recovers panics in the goroutines the load generator
// starts, so that a bug there is reported as a correctness violation
// instead of killing the run (the repository's goroutine-isolation
// contract, which dqnlint enforces on every go statement).
type panicGuard struct {
	mu   sync.Mutex
	msgs []string
}

// done is deferred first in a load-generator goroutine.
func (g *panicGuard) done(wg *sync.WaitGroup) {
	if r := recover(); r != nil {
		g.mu.Lock()
		g.msgs = append(g.msgs, fmt.Sprintf("load-generator goroutine panicked: %v", r))
		g.mu.Unlock()
	}
	wg.Done()
}

// answer is one request's outcome as the client saw it.
type answer struct {
	seed       uint64
	sent, done time.Time
	failKind   string // "" for a valid 200
	res        *serve.Result
	violations []string
}

// errorEnvelope mirrors the server's JSON error body.
type errorEnvelope struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// request builds the workload's request for a seed.
func (e *serveEnv) request(seed uint64) *serve.Request {
	s := e.w.Shape
	return &serve.Request{Topo: s.Topo, Traffic: s.Traffic, Load: s.Load, Duration: s.Duration,
		Seed: seed, Shards: 1, Fidelity: e.w.Serve.Fidelity, TimeoutMs: e.w.Serve.TimeoutMs}
}

// do sends one POST /simulate and classifies the answer. Every non-200
// is counted by status and error kind; a 200 whose body fails validation
// is both a failure and a correctness violation.
func (e *serveEnv) do(seed uint64, due time.Time, tr *tracer) *answer {
	a := &answer{seed: seed}
	body, err := json.Marshal(e.request(seed))
	if err != nil {
		a.failKind = "encode"
		return a
	}
	var spanID int64
	if tr != nil {
		spanID = tr.reserve()
		e.st.parents.Store(seed, spanID)
		defer e.st.parents.Delete(seed)
	}
	a.sent = time.Now()
	resp, err := e.client.Post(e.ts.URL+"/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		a.done = time.Now()
		a.failKind = "transport"
		return a
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a.done = time.Now()
	if tr != nil {
		tr.put(spanID, 0, int64(seed), "serve.request", a.sent, a.done)
	}
	if err != nil {
		a.failKind = "transport"
		return a
	}
	if resp.StatusCode != http.StatusOK {
		var env errorEnvelope
		if json.Unmarshal(data, &env) != nil || env.Kind == "" {
			env.Kind = "unparsed"
		}
		a.failKind = fmt.Sprintf("%d/%s", resp.StatusCode, env.Kind)
		return a
	}
	var res serve.Result
	if err := json.Unmarshal(data, &res); err != nil {
		a.failKind = "invalid_body"
		a.violations = append(a.violations, fmt.Sprintf("seed %d: 200 with undecodable body: %v", seed, err))
		return a
	}
	a.res = &res
	if bad := e.checkAnswer(&res, resp.Header.Get("X-DQN-Fidelity")); len(bad) > 0 {
		a.failKind = "invalid_body"
		for _, b := range bad {
			a.violations = append(a.violations, fmt.Sprintf("seed %d: %s", seed, b))
		}
	}
	return a
}

// checkAnswer validates a 200 body: the tier header matches the body
// and the workload's expectation, the statistics are finite and
// positive, and an engine answer carries a trace digest.
func (e *serveEnv) checkAnswer(res *serve.Result, tierHeader string) []string {
	var bad []string
	if tierHeader != res.Fidelity {
		bad = append(bad, fmt.Sprintf("X-DQN-Fidelity %q but body fidelity %q", tierHeader, res.Fidelity))
	}
	if want := e.w.Serve.WantTier; want != "" && res.Fidelity != want {
		bad = append(bad, fmt.Sprintf("answered at tier %q, want %q", res.Fidelity, want))
	}
	if !finite(res.MeanRTTUs) || res.MeanRTTUs <= 0 || !finite(res.P99RTTUs) || res.P99RTTUs <= 0 {
		bad = append(bad, fmt.Sprintf("RTT statistics not finite and positive: mean %v p99 %v", res.MeanRTTUs, res.P99RTTUs))
	}
	switch res.Fidelity {
	case "exact", "quant":
		if res.Deliveries <= 0 || len(res.Digest) != 64 {
			bad = append(bad, fmt.Sprintf("engine answer without a trace: deliveries %d digest %q", res.Deliveries, res.Digest))
		}
		if res.Iterations < 1 || res.Iterations > res.Bound {
			bad = append(bad, fmt.Sprintf("iterations %d outside [1, bound %d]", res.Iterations, res.Bound))
		}
		if res.Degraded {
			bad = append(bad, "engine answer ran degraded devices")
		}
	case "analytic":
		if res.Mode != "analytic" {
			bad = append(bad, fmt.Sprintf("analytic tier with mode %q", res.Mode))
		}
	default:
		bad = append(bad, fmt.Sprintf("unexpected tier %q", res.Fidelity))
	}
	return bad
}

// verifyAgainstDirect recomputes a served answer through the library:
// an exact answer's digest must equal a direct RunDQNCfg of the same
// request, an analytic answer's mean RTT a direct analytic.FromScenario.
func (e *serveEnv) verifyAgainstDirect(a *answer) []string {
	g, sched, tm, err := parseShape(e.w.Shape)
	if err != nil {
		return []string{err.Error()}
	}
	s := e.w.Shape
	sc, err := experiments.NewScenario("direct", g, sched, tm, s.Load, s.Duration, a.seed)
	if err != nil {
		return []string{err.Error()}
	}
	switch a.res.Fidelity {
	case "exact":
		_, res, err := sc.RunDQNCfg(e.model, core.Config{Shards: 1})
		if err != nil {
			return []string{fmt.Sprintf("direct run of seed %d: %v", a.seed, err)}
		}
		bad := checkResult(res)
		if d := serve.Digest(res); d != a.res.Digest {
			bad = append(bad, fmt.Sprintf("seed %d: served digest %s differs from direct run %s", a.seed, a.res.Digest, d))
		}
		return bad
	case "analytic":
		est, err := analytic.FromScenario(sc)
		if err != nil {
			return []string{fmt.Sprintf("direct analytic estimate of seed %d: %v", a.seed, err)}
		}
		if math.Float64bits(est.MeanRTTSec*1e6) != math.Float64bits(a.res.MeanRTTUs) {
			return []string{fmt.Sprintf("seed %d: served analytic mean RTT %v differs from direct %v",
				a.seed, a.res.MeanRTTUs, est.MeanRTTSec*1e6)}
		}
	}
	return nil
}

// collector gathers answers from concurrent clients into a window.
type collector struct {
	start   time.Time // of the window
	mu      sync.Mutex
	win     *window
	samples []*answer // a few exact answers kept for the digest check after the window
}

const keepForDigestCheck = 2

func (c *collector) add(a *answer, due time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.win
	w.attempted++
	if a.done.After(w.end) {
		w.end = a.done
	}
	w.violations = append(w.violations, a.violations...)
	if a.failKind != "" {
		w.fail(a.failKind)
		return
	}
	from := a.sent
	if !due.IsZero() {
		from = due
	}
	w.ops = append(w.ops, opSample{
		from:  from.Sub(c.start),
		latMs: ms(a.done.Sub(from)), rttMs: ms(a.done.Sub(a.sent)), elapsedMs: a.res.ElapsedMs,
		tier: a.res.Fidelity, deliveries: a.res.Deliveries, iterations: a.res.Iterations, bound: a.res.Bound,
	})
	if a.res.Fidelity == "exact" && len(c.samples) < keepForDigestCheck {
		c.samples = append(c.samples, a)
	}
}

// measure drives the server for d: closed loop with P clients, or open
// loop on a fixed schedule when the workload sets a rate.
func (e *serveEnv) measure(d time.Duration, stream uint64, tr *tracer) (*window, error) {
	if e.st != nil {
		e.st.start(tr)
		defer e.st.start(nil)
	}
	before := e.counters()
	start := time.Now()
	col := &collector{start: start, win: newWindow()}
	var offered time.Duration // open loop: how long the generator offered load
	var guard panicGuard
	var wg sync.WaitGroup
	if rate := e.w.Serve.RatePerP * float64(e.cfg.P); rate > 0 {
		sch := schedule{start: start, interval: time.Duration(float64(time.Second) / rate)}
		_, col.win.maxLate = runOpenLoop(realClock{}, sch, d, func(i int, due time.Time) {
			wg.Add(1)
			go func() {
				defer guard.done(&wg)
				col.add(e.do(e.cfg.seedFor(stream, uint64(i)), due, tr), due)
			}()
		})
		offered = time.Since(start)
	} else {
		var next atomic.Uint64
		for c := 0; c < e.cfg.P; c++ {
			wg.Add(1)
			go func() {
				defer guard.done(&wg)
				for time.Since(start) < d {
					seed := e.cfg.seedFor(stream, next.Add(1)-1)
					col.add(e.do(seed, time.Time{}, tr), time.Time{})
				}
			}()
		}
	}
	wg.Wait()
	win := col.win
	win.violations = append(win.violations, guard.msgs...)
	win.finish(start)
	if offered > 0 {
		// An open loop offers load for the schedule's span whatever the
		// answers do; the tail spent waiting for the last answers is not
		// time in which requests were offered.
		win.elapsed = offered
	}
	after := e.counters()
	win.serve = serveTotals{
		shed:              after.shed - before.shed,
		brownouts:         after.brownouts - before.brownouts,
		planeCalls:        after.planeCalls - before.planeCalls,
		planeFlushes:      after.planeFlushes - before.planeFlushes,
		planeBatchCalls:   after.planeBatchCalls - before.planeBatchCalls,
		planeBatchSeconds: after.planeBatchSeconds - before.planeBatchSeconds,
	}
	if e.st != nil && tr != nil {
		win.serve.calls = e.st.takeCalls()
	}
	win.violations = append(win.violations, e.checkStats()...)
	// The window is closed: re-running a sample of its exact answers
	// through the library, a full engine run each, no longer costs it time.
	for _, a := range col.samples {
		win.violations = append(win.violations, e.verifyAgainstDirect(a)...)
	}
	return win, nil
}

// checkStats fetches GET /stats once the server is quiet and checks the
// accounting identities: every received request has exactly one terminal
// outcome, and the fidelity tiers sum to completed.
func (e *serveEnv) checkStats() []string {
	var st serve.Stats
	for try := 0; ; try++ {
		resp, err := e.client.Get(e.ts.URL + "/stats")
		if err != nil {
			return []string{fmt.Sprintf("GET /stats: %v", err)}
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return []string{fmt.Sprintf("reading /stats: %v", err)}
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return []string{fmt.Sprintf("decoding /stats: %v", err)}
		}
		// A job whose client already has its answer may still be in the
		// worker's bookkeeping for a moment.
		if (st.InFlight == 0 && st.Queued == 0) || try >= 200 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	var bad []string
	terminal := st.Shed + st.Rejected + st.Completed + st.Failed + st.Canceled + st.Deadline
	if st.Received != terminal {
		bad = append(bad, fmt.Sprintf("/stats: received %d != shed+rejected+completed+failed+canceled+deadline %d", st.Received, terminal))
	}
	var tiers uint64
	for _, n := range st.Fidelity {
		tiers += n
	}
	if tiers != st.Completed {
		bad = append(bad, fmt.Sprintf("/stats: fidelity tiers sum to %d, completed %d", tiers, st.Completed))
	}
	return bad
}

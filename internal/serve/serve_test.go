package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepqueuenet/internal/guard"
)

// stubRunner scripts Run outcomes for server-mechanics tests.
type stubRunner struct {
	mu    sync.Mutex
	calls int
	fn    func(ctx context.Context, req *Request, mode RunMode, call int) (*Result, error)
}

func (s *stubRunner) Run(ctx context.Context, req *Request, mode RunMode) (*Result, error) {
	s.mu.Lock()
	s.calls++
	call := s.calls
	s.mu.Unlock()
	return s.fn(ctx, req, mode, call)
}

func (s *stubRunner) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// okResult builds a minimal successful result.
func okResult(mode string) *Result {
	return &Result{Scenario: "stub", Mode: mode, Digest: "d"}
}

// blockingRunner blocks every Run until released (or its ctx dies).
type blockingRunner struct {
	started     chan struct{} // one tick per Run entered
	release     chan struct{} // closed by Release to let every Run finish
	releaseOnce sync.Once
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (b *blockingRunner) Release() { b.releaseOnce.Do(func() { close(b.release) }) }

func (b *blockingRunner) Run(ctx context.Context, _ *Request, _ RunMode) (*Result, error) {
	b.started <- struct{}{}
	select {
	case <-b.release:
		return okResult("model"), nil
	case <-ctx.Done():
		return nil, guard.FromContext(ctx.Err())
	}
}

// mustNew builds a server, failing the test on a config/state error.
func mustNew(t *testing.T, cfg Config, r Runner) *Server {
	t.Helper()
	s, err := New(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func drainServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestSubmitRunsJob(t *testing.T) {
	r := &stubRunner{fn: func(context.Context, *Request, RunMode, int) (*Result, error) {
		return okResult("model"), nil
	}}
	s := mustNew(t, Config{Workers: 1, QueueDepth: 1, RetryMax: -1}, r)
	defer drainServer(t, s)
	res, err := s.Submit(context.Background(), &Request{Topo: "line4"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "model" || res.Attempts != 1 {
		t.Fatalf("unexpected result %+v", res)
	}
	st := s.Snapshot()
	if st.Completed != 1 || st.Accepted != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDeadlinePropagates(t *testing.T) {
	b := newBlockingRunner()
	s := mustNew(t, Config{Workers: 1, QueueDepth: 1, RetryMax: -1}, b)
	defer drainServer(t, s)
	defer b.Release()
	_, err := s.Submit(context.Background(), &Request{TimeoutMs: 20})
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	// The worker does the terminal accounting; wait for it.
	deadline := time.Now().Add(2 * time.Second)
	for s.Snapshot().Deadline == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.Snapshot().Deadline; got != 1 {
		t.Fatalf("deadline counter %d, want 1", got)
	}
}

func TestRetryTransientThenSucceed(t *testing.T) {
	r := &stubRunner{fn: func(_ context.Context, _ *Request, _ RunMode, call int) (*Result, error) {
		if call <= 2 {
			return nil, guard.Recovered(0, 1, 0, "transient boom")
		}
		return okResult("model"), nil
	}}
	s := mustNew(t, Config{Workers: 1, QueueDepth: 1, RetryMax: 2, RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond}, r)
	defer drainServer(t, s)
	res, err := s.Submit(context.Background(), &Request{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts %d, want 3", res.Attempts)
	}
	if got := s.Snapshot().Retries; got != 2 {
		t.Fatalf("retries %d, want 2", got)
	}
}

func TestBadRequestNotRetriedNotBreakerCharged(t *testing.T) {
	stub := &stubRunner{fn: func(context.Context, *Request, RunMode, int) (*Result, error) {
		return nil, badRequestf("no such topo")
	}}
	// torus0x3 parses as a topology name; the builder rejects its size,
	// which must reach the server as ErrBadRequest, not as a panic.
	scenario := &stubRunner{fn: func(ctx context.Context, req *Request, mode RunMode, _ int) (*Result, error) {
		return (&ScenarioRunner{}).Run(ctx, req, mode)
	}}
	for _, tc := range []struct {
		r   *stubRunner
		req Request
	}{
		{stub, Request{Topo: "nope"}},
		{scenario, Request{Topo: "torus0x3"}},
		{scenario, Request{Topo: "torus0x3", Fidelity: "fast"}},
		// Over experiments.MaxTopoNodes: refused from the name, before the
		// O(n²) routing fabric of 2 200 or 40 000 nodes is built.
		{scenario, Request{Topo: "line1100", Fidelity: "fast"}},
		{scenario, Request{Topo: "line20000", Fidelity: "fast"}},
		{scenario, Request{Topo: "line20000"}},
	} {
		name := tc.req.Topo + "/" + tc.req.Fidelity
		calls := tc.r.callCount()
		s := mustNew(t, Config{Workers: 1, QueueDepth: 1, Breaker: BreakerConfig{Threshold: 1}}, tc.r)
		start := time.Now()
		_, err := s.Submit(context.Background(), &tc.req)
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: want ErrBadRequest, got %v", name, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("%s: a bad request took %v to refuse", name, d)
		}
		if n := tc.r.callCount() - calls; n != 1 {
			t.Fatalf("%s: bad request retried: %d calls", name, n)
		}
		if st := s.Snapshot(); st.Retries != 0 || st.Panics != 0 {
			t.Fatalf("%s: %d retries, %d panics", name, st.Retries, st.Panics)
		}
		// The fast tier never consults a breaker, so it may not exist.
		if b := s.BreakerFor("default"); b != nil && b.State() != BreakerClosed {
			t.Fatalf("%s: bad request charged the breaker: %v", name, b.State())
		}
		drainServer(t, s)
	}
}

// fakeClock is a mutable clock for breaker-timing tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestBreakerOpensDegradesAndRecovers(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	var healthy atomic.Bool
	r := &stubRunner{fn: func(_ context.Context, _ *Request, mode RunMode, _ int) (*Result, error) {
		switch mode {
		case RunAnalytic:
			return &Result{Scenario: "stub", Mode: "analytic", Fidelity: "analytic"}, nil
		}
		if healthy.Load() {
			return okResult("model"), nil
		}
		return nil, guard.Recovered(0, 3, 1, "model keeps exploding")
	}}
	s := mustNew(t, Config{
		Workers: 1, QueueDepth: 2, RetryMax: -1, Now: clk.Now,
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Minute, ProbeSuccesses: 1},
	}, r)
	defer drainServer(t, s)

	// Two consecutive failures open the breaker.
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(context.Background(), &Request{}); err == nil {
			t.Fatal("expected failure")
		}
	}
	br := s.BreakerFor("default")
	if br.State() != BreakerOpen {
		t.Fatalf("breaker %v, want open", br.State())
	}
	if !errors.Is(br.Err(), guard.ErrBreakerOpen) {
		t.Fatalf("breaker error %v must match guard.ErrBreakerOpen", br.Err())
	}
	var se *guard.ShardError
	if !errors.As(br.Err(), &se) {
		t.Fatalf("breaker error %v must expose the tripping ShardError", br.Err())
	}

	// Open: requests answer from the analytic tier, not errors.
	res, err := s.Submit(context.Background(), &Request{})
	if err != nil {
		t.Fatalf("open breaker must degrade, not fail: %v", err)
	}
	if res.Mode != "analytic" || res.Fidelity != "analytic" || !res.BreakerOpen || res.DegradedReason == "" {
		t.Fatalf("degraded result %+v", res)
	}
	if got := s.Snapshot().Degraded; got != 1 {
		t.Fatalf("degraded count %d, want 1", got)
	}
	if got := s.Snapshot().Fidelity["analytic"]; got != 1 {
		t.Fatalf("analytic fidelity count %d, want 1", got)
	}

	// Model fixed + cooldown elapsed: the next request is the half-open
	// probe, succeeds, and closes the breaker.
	healthy.Store(true)
	clk.Advance(2 * time.Minute)
	res, err = s.Submit(context.Background(), &Request{})
	if err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if res.Mode != "model" {
		t.Fatalf("probe should run the real model, got %+v", res)
	}
	if br.State() != BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", br.State())
	}
}

func TestDrainWaitsForInFlightAndRefusesNew(t *testing.T) {
	b := newBlockingRunner()
	s := mustNew(t, Config{Workers: 1, QueueDepth: 2, RetryMax: -1}, b)
	defer b.Release()

	var submitErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer func() {
			if we := guard.RecoveredWorker(0, recover()); we != nil {
				submitErr = we
			}
			wg.Done()
		}()
		_, submitErr = s.Submit(context.Background(), &Request{})
	}()
	<-b.started // job is in flight

	drainDone := make(chan error, 1)
	go func() {
		defer func() {
			if we := guard.RecoveredWorker(1, recover()); we != nil {
				drainDone <- we
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()

	// Draining: readiness false, new work refused with 503.
	deadline := time.Now().Add(2 * time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", rec.Code)
	}
	if _, err := s.Submit(context.Background(), &Request{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining, got %v", err)
	}

	// The in-flight job completes; drain then returns cleanly.
	b.Release()
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if submitErr != nil {
		t.Fatalf("in-flight job must complete during drain: %v", submitErr)
	}
	// The refused submit took admission's early return under the drain
	// read lock; a second Drain takes the write lock and must get it.
	withTimeout(t, "drain lock after a refused submit", func() {
		if err := s.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	})
}

func TestWorkerSurvivesRunnerPanic(t *testing.T) {
	r := &stubRunner{fn: func(_ context.Context, _ *Request, _ RunMode, call int) (*Result, error) {
		if call == 1 {
			panic("runner exploded straight through")
		}
		return okResult("model"), nil
	}}
	s := mustNew(t, Config{Workers: 1, QueueDepth: 1, RetryMax: -1, Breaker: BreakerConfig{Threshold: 100}}, r)
	defer drainServer(t, s)
	_, err := s.Submit(context.Background(), &Request{})
	if err == nil {
		t.Fatal("panicking job must surface an error")
	}
	var we *guard.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("want *guard.WorkerError, got %v", err)
	}
	// The same worker must still serve the next request.
	if _, err := s.Submit(context.Background(), &Request{}); err != nil {
		t.Fatalf("worker died after panic: %v", err)
	}
	if got := s.Snapshot().Panics; got != 1 {
		t.Fatalf("panic count %d, want 1", got)
	}
}

func TestHealthzAlwaysOK(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueDepth: 1}, &stubRunner{fn: func(context.Context, *Request, RunMode, int) (*Result, error) {
		return okResult("model"), nil
	}})
	defer drainServer(t, s)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz %d", rec.Code)
	}
}

func TestBreakerProbeReleaseOnNeutralOutcome(t *testing.T) {
	// A probe that ends for a reason unrelated to the model (deadline)
	// must hand the probe slot back instead of wedging the breaker.
	clk := &fakeClock{now: time.Unix(1000, 0)}
	br := NewBreaker("m", BreakerConfig{Threshold: 1, Cooldown: time.Minute, ProbeSuccesses: 1})
	br.Record(false, guard.Recovered(0, 0, 0, "boom"), clk.Now())
	if br.State() != BreakerOpen {
		t.Fatalf("state %v, want open", br.State())
	}
	clk.Advance(2 * time.Minute)
	if adm := br.Allow(clk.Now()); adm != AdmitProbe {
		t.Fatalf("admission %v, want probe", adm)
	}
	// While the probe is out, everyone else degrades.
	if adm := br.Allow(clk.Now()); adm != AdmitDegraded {
		t.Fatalf("admission %v, want degraded while probing", adm)
	}
	br.ReleaseProbe() // neutral outcome: no judgment
	if adm := br.Allow(clk.Now()); adm != AdmitProbe {
		t.Fatalf("admission %v, want a fresh probe after release", adm)
	}
	br.Record(true, nil, clk.Now())
	if br.State() != BreakerClosed {
		t.Fatalf("state %v, want closed", br.State())
	}
}

// TestChoose pins the decision table of the lifecycle's choose step:
// situation → rung plan, and what the plan is charged as.
func TestChoose(t *testing.T) {
	const est = 100 * time.Millisecond
	for _, tc := range []struct {
		name      string
		fidelity  string
		brownout  bool
		adm       Admission
		queueFull bool
		remaining time.Duration
		want      plan
	}{
		{name: "fast answers analytic", fidelity: "fast", want: plan{rungs: rungsAnalytic}},
		{name: "fast ignores a full queue", fidelity: "fast", queueFull: true, want: plan{rungs: rungsAnalytic}},
		{name: "plenty of time runs exact", brownout: true, remaining: time.Second, want: plan{rungs: rungsExact}},
		{name: "full queue sheds", queueFull: true, want: plan{refuse: ErrShed}},
		{name: "full queue browns out", brownout: true, queueFull: true,
			want: plan{rungs: rungsAnalytic, refuse: ErrShed, pressure: true}},
		{name: "full queue never browns out exact", fidelity: "exact", brownout: true, queueFull: true,
			want: plan{refuse: ErrShed}},
		{name: "open breaker answers analytic or refuses", adm: AdmitDegraded, remaining: time.Second,
			want: plan{rungs: rungsAnalytic, refuse: ErrBreakerOpen, breakerOpen: true}},
		{name: "open breaker refuses exact", fidelity: "exact", adm: AdmitDegraded, remaining: time.Second,
			want: plan{refuse: ErrBreakerOpen, breakerOpen: true}},
		{name: "open breaker outranks a short deadline", brownout: true, adm: AdmitDegraded, remaining: time.Millisecond,
			want: plan{rungs: rungsAnalytic, refuse: ErrBreakerOpen, breakerOpen: true}},
		{name: "short deadline without brownout runs exact", remaining: time.Millisecond, want: plan{rungs: rungsExact}},
		{name: "short deadline never moves exact", fidelity: "exact", brownout: true, remaining: time.Millisecond,
			want: plan{rungs: rungsExact}},
		{name: "probe runs exact whatever the deadline", brownout: true, adm: AdmitProbe, remaining: time.Millisecond,
			want: plan{rungs: rungsExact}},
		{name: "just short of the estimate: analytic, exact if it errors", brownout: true, remaining: 90 * time.Millisecond,
			want: plan{rungs: rungsAnalyticExact, pressure: true}},
		{name: "nothing fits: analytic, exact if it errors", fidelity: "auto", brownout: true, remaining: 50 * time.Millisecond,
			want: plan{rungs: rungsAnalyticExact, pressure: true}},
	} {
		got := choose(&Request{Fidelity: tc.fidelity}, tc.brownout, tc.adm, tc.queueFull, tc.remaining, est)
		if !slices.Equal(got.rungs, tc.want.rungs) || got.refuse != tc.want.refuse ||
			got.pressure != tc.want.pressure || got.breakerOpen != tc.want.breakerOpen {
			t.Errorf("%s: plan %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// No history: a short deadline cannot be judged, so exact runs.
	if got := choose(&Request{}, true, AdmitNormal, false, time.Millisecond, 0); !slices.Equal(got.rungs, rungsExact) {
		t.Errorf("no estimate: plan %+v, want exact", got)
	}
}

// TestDeadlineBrownoutWalksThePlan drives the deadline-short plans end
// to end: with an exact-run estimate far above the request's deadline
// the job is answered analytic and counted a brownout, and when the
// analytic tier errors the same plan falls through to an exact run that
// is not one.
func TestDeadlineBrownoutWalksThePlan(t *testing.T) {
	var analyticDown atomic.Bool
	r := &stubRunner{fn: func(_ context.Context, _ *Request, mode RunMode, _ int) (*Result, error) {
		if mode == RunAnalytic && analyticDown.Load() {
			return nil, errors.New("analytic tier down")
		}
		return okResult(mode.String()), nil
	}}
	s := mustNew(t, Config{Workers: 1, QueueDepth: 1, RetryMax: -1, Brownout: true}, r)
	defer drainServer(t, s)
	s.estimator.observe("line4", time.Hour, true)

	res, err := s.Submit(context.Background(), &Request{Topo: "line4", TimeoutMs: 1000})
	if err != nil || res.Fidelity != "analytic" {
		t.Fatalf("deadline-short job: %+v, %v; want an analytic answer", res, err)
	}
	analyticDown.Store(true)
	res, err = s.Submit(context.Background(), &Request{Topo: "line4", TimeoutMs: 1000})
	if err != nil || res.Fidelity != "exact" {
		t.Fatalf("analytic tier down: %+v, %v; want the exact fallback", res, err)
	}
	if st := s.Snapshot(); st.Brownouts != 1 || st.Fidelity["analytic"] != 1 || st.Fidelity["exact"] != 1 {
		t.Fatalf("brownouts %d fidelity %v, want one analytic brownout and one plain exact answer", st.Brownouts, st.Fidelity)
	}
}

// TestWireKeyedStateBounded: the model name comes off the wire, so the
// breaker table — and with it the /stats rows and breaker series — must
// stop growing at maxWireKeys+1 however many names a client invents.
func TestWireKeyedStateBounded(t *testing.T) {
	s := okServer(t, Config{})
	for i := 0; i < 200; i++ {
		if _, err := s.Submit(context.Background(), &Request{Model: fmt.Sprintf("junk-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.Snapshot().Breakers); n > maxWireKeys+1 {
		t.Fatalf("%d breakers after 200 model names, want <= %d", n, maxWireKeys+1)
	}
	// The breaker label families are the request-fed series of /metrics
	// (the HTTP path label is bounded by route, TestUnknownRouteBounded).
	var exp strings.Builder
	if err := s.Metrics().WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"dqn_breaker_state{", "dqn_breaker_transitions_total{"} {
		paths := map[string]bool{}
		for _, line := range strings.Split(exp.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, family+`path="`); ok {
				paths[rest[:strings.IndexByte(rest, '"')]] = true
			}
		}
		if len(paths) < maxWireKeys || len(paths) > maxWireKeys+1 || !paths[overflowKey] {
			t.Fatalf("%s series carry %d path labels (overflow %v), want %d..%d including %q",
				family, len(paths), paths[overflowKey], maxWireKeys, maxWireKeys+1, overflowKey)
		}
	}
	if s.BreakerFor("junk-0").Stats().Path != "junk-0" {
		t.Fatal("an early model key lost its own breaker")
	}
	if a, b := s.BreakerFor("junk-150"), s.BreakerFor("never-seen"); a != b || a.Stats().Path != overflowKey {
		t.Fatalf("overflow keys must share the %q breaker, got %v and %v", overflowKey, a.Stats(), b.Stats())
	}
}

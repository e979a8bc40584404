package serve_test

// End-to-end chaos suite: the acceptance gate for the resilient serving
// layer. A real ScenarioRunner (synthetic PTM, real IRSA engine) serves
// HTTP traffic while internal/chaos injects shard panics, NaN outputs,
// latency, and mid-run cancels at material rates. The server must
// survive every fault, answer only well-defined statuses, open and
// recover circuit breakers, shed with 429 + Retry-After, and drain
// cleanly. lifecycle_test.go holds the contract (digests, fidelity,
// accounting) every feature combination must meet.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepqueuenet/internal/chaos"
	"deepqueuenet/internal/core"
	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/plane"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/serve"
)

// testArch is a CPU-cheap but structurally complete PTM architecture.
var testArch = ptm.Arch{TimeSteps: 8, Margin: 2, Embed: 4, BLSTM1: 4, BLSTM2: 4, Heads: 1, DK: 2, DV: 2, HeadOut: 4}

func testModel(t *testing.T) *ptm.PTM {
	t.Helper()
	m, err := ptm.Synthetic(testArch, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mustServe builds a server, failing the test on a config/state error.
func mustServe(t *testing.T, cfg serve.Config, r serve.Runner) *serve.Server {
	t.Helper()
	s, err := serve.New(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// simBody renders a /simulate request body.
func simBody(seed uint64) string {
	return fmt.Sprintf(`{"topo":"line4","duration":0.0002,"shards":2,"seed":%d}`, seed)
}

func postSim(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/simulate", strings.NewReader(body)))
	return rec
}

// scrapeValue extracts one series' value from a Prometheus text
// exposition. series is the exact "name" or `name{labels}` prefix; a
// missing series reads as 0 (counters register eagerly, so the real
// families are always present).
func scrapeValue(t *testing.T, exposition, series string) uint64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			t.Fatalf("parsing %q value %q: %v", series, rest, err)
		}
		return v
	}
	return 0
}

// chaosStorm starts six concurrent clients, each posting n /simulate
// requests with fresh seeds to h, adds them to wg and hands every
// response to check.
func chaosStorm(h http.Handler, wg *sync.WaitGroup, seed *atomic.Uint64, n int, check func(*httptest.ResponseRecorder)) {
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				check(postSim(h, simBody(seed.Add(1))))
			}
		}()
	}
}

// TestChaosStormServerSurvives is the headline drill: sustained
// concurrent traffic with every fault kind injected at >= 1% rates. The
// process must not die, every response must be a well-defined status,
// some requests must still succeed, and the server must drain cleanly
// while traffic is still arriving.
func TestChaosStormServerSurvives(t *testing.T) {
	inj := chaos.New(chaos.Config{
		Seed:      7,
		PanicRate: 0.03, NaNRate: 0.03, LatencyRate: 0.02, CancelRate: 0.10,
		Latency: 200 * time.Microsecond, CancelAfter: 50 * time.Microsecond,
	})
	runner := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2}
	runner.WrapDevice = inj.WrapDevice
	srv := mustServe(t, serve.Config{
		Workers: 3, QueueDepth: 2,
		DefaultTimeout: 10 * time.Second,
		RetryMax:       1, RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond,
		Breaker: serve.BreakerConfig{Threshold: 4, Cooldown: 20 * time.Millisecond, ProbeSuccesses: 1},
		Seed:    7,
	}, inj.WrapRunner(runner))
	h := srv.Handler()

	var codes sync.Map // status -> *atomic.Uint64
	count := func(code int) {
		c, _ := codes.LoadOrStore(code, new(atomic.Uint64))
		c.(*atomic.Uint64).Add(1)
	}
	var wg sync.WaitGroup
	var seed atomic.Uint64
	storm := func(n int) {
		chaosStorm(h, &wg, &seed, n, func(rec *httptest.ResponseRecorder) {
			count(rec.Code)
			if rec.Code == http.StatusTooManyRequests && rec.Header().Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		})
	}
	storm(15)
	wg.Wait()

	// Only the documented statuses may ever appear.
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusTooManyRequests: true,
		http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
		serve.StatusClientClosedRequest: true, http.StatusInternalServerError: true,
	}
	var ok200 uint64
	codes.Range(func(k, v any) bool {
		code, n := k.(int), v.(*atomic.Uint64).Load()
		t.Logf("status %d: %d", code, n)
		if !allowed[code] {
			t.Errorf("undocumented status %d (%d times)", code, n)
		}
		if code == http.StatusOK {
			ok200 = n
		}
		return true
	})
	if ok200 == 0 {
		t.Error("no request succeeded under chaos")
	}

	// Every fault kind must actually have fired.
	for f := chaos.FaultPanic; f <= chaos.FaultCancel; f++ {
		if inj.Count(f) == 0 {
			t.Errorf("fault %v never injected (total %d)", f, inj.Total())
		}
	}

	// Terminal accounting must balance: every request seen got exactly
	// one disposition.
	st := srv.Snapshot()
	if got := st.Shed + st.Rejected + st.Completed + st.Failed + st.Canceled + st.Deadline; got != st.Received {
		t.Errorf("dispositions %d != received %d (%+v)", got, st.Received, st)
	}
	if st.Panics != 0 {
		t.Errorf("chaos panics leaked to worker level: %d (must be contained as shard errors)", st.Panics)
	}

	// /metrics must tell the same story as /stats, exactly: the storm is
	// quiescent here, so every counter is settled.
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", mrec.Code)
	}
	exp := mrec.Body.String()
	if got := scrapeValue(t, exp, `dqn_requests_received_total`); got != st.Received {
		t.Errorf("/metrics received %d != /stats %d", got, st.Received)
	}
	outcomes := map[string]uint64{
		"completed": st.Completed, "failed": st.Failed, "shed": st.Shed,
		"rejected": st.Rejected, "canceled": st.Canceled, "deadline": st.Deadline,
	}
	var sum uint64
	for outcome, want := range outcomes {
		got := scrapeValue(t, exp, fmt.Sprintf(`dqn_requests_total{outcome="%s"}`, outcome))
		if got != want {
			t.Errorf("/metrics outcome %s = %d, /stats = %d", outcome, got, want)
		}
		sum += got
	}
	if received := scrapeValue(t, exp, `dqn_requests_received_total`); sum != received {
		t.Errorf("/metrics outcomes sum %d != received %d", sum, received)
	}
	if got := scrapeValue(t, exp, `dqn_retries_total`); got != st.Retries {
		t.Errorf("/metrics retries %d != /stats %d", got, st.Retries)
	}
	if got := scrapeValue(t, exp, `dqn_degraded_total`); got != st.Degraded {
		t.Errorf("/metrics degraded %d != /stats %d", got, st.Degraded)
	}
	if got := scrapeValue(t, exp, `dqn_brownouts_total`); got != st.Brownouts {
		t.Errorf("/metrics brownouts %d != /stats %d", got, st.Brownouts)
	}

	// The fidelity ladder must reconcile too: exactly one tier answered
	// each completed request, and /metrics agrees with /stats per tier.
	var fidSum uint64
	for _, tier := range []string{"exact", "analytic"} {
		got := scrapeValue(t, exp, fmt.Sprintf(`dqn_fidelity_total{tier="%s"}`, tier))
		if got != st.Fidelity[tier] {
			t.Errorf("/metrics fidelity %s = %d, /stats = %d", tier, got, st.Fidelity[tier])
		}
		fidSum += got
	}
	if fidSum != st.Completed {
		t.Errorf("fidelity tiers sum %d != completed %d (%v)", fidSum, st.Completed, st.Fidelity)
	}

	// Drain while fresh traffic is still arriving: drain must finish,
	// late requests must see 503.
	storm(5)
	time.Sleep(2 * time.Millisecond)
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain under storm: %v", err)
	}
	wg.Wait()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d, want 503", rec.Code)
	}
	if rec2 := postSim(h, simBody(0)); rec2.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain simulate: %d, want 503", rec2.Code)
	}
}

// TestChaosSoakNoLeaks drives the chaos storm (shard panics and NaN
// outputs injected, plane on, brownout on) for several rounds after one
// warm-up round. Once the server is quiet after each round, it must hold
// no more goroutines than after warm-up, and the live heap must stay
// within a fixed margin of the warm-up heap: a leaked waiter, timer,
// plane call or retained result grows with every round.
func TestChaosSoakNoLeaks(t *testing.T) {
	const (
		rounds    = 4
		perClient = 4
		// Heap growth allowed over warm-up. A round leaves none that
		// survives a GC (±0.1 MiB measured); a request retaining its
		// engine result or scenario crosses this within the soak.
		heapSlack = 2 << 20
	)
	inj := chaos.New(chaos.Config{Seed: 13, PanicRate: 0.004, NaNRate: 0.004})
	pl := plane.New(plane.Config{MaxBatch: 8})
	defer pl.Close()
	runner := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2, Plane: pl}
	runner.WrapDevice = inj.WrapDevice
	srv := mustServe(t, serve.Config{
		Workers: 3, QueueDepth: 2, Brownout: true, Plane: pl,
		RetryMax: 1, RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond,
		// An open breaker would answer every later request analytically
		// and take the engine and the plane out of the soak.
		Breaker: serve.BreakerConfig{Threshold: 1 << 30},
		Seed:    13,
	}, inj.WrapRunner(runner))
	h := srv.Handler()

	var seed atomic.Uint64
	round := func() {
		var wg sync.WaitGroup
		chaosStorm(h, &wg, &seed, perClient, func(*httptest.ResponseRecorder) {})
		wg.Wait()
	}
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	round()
	baseG, baseHeap := runtime.NumGoroutine(), heapInuse()
	for r := 1; r <= rounds; r++ {
		round()
		g := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); g > baseG && time.Now().Before(deadline); g = runtime.NumGoroutine() {
			time.Sleep(5 * time.Millisecond)
		}
		if g > baseG {
			t.Fatalf("round %d: %d goroutines once quiet, %d after warm-up", r, g, baseG)
		}
		heap := heapInuse()
		t.Logf("round %d: %d goroutines (warm-up %d), HeapInuse %d B (warm-up %d B)", r, g, baseG, heap, baseHeap)
		if heap > baseHeap+heapSlack {
			t.Fatalf("round %d: HeapInuse %d B after GC, warm-up %d B + slack %d B", r, heap, baseHeap, heapSlack)
		}
	}
	if inj.Count(chaos.FaultPanic) == 0 || inj.Count(chaos.FaultNaN) == 0 {
		t.Errorf("faults injected: panic %d, NaN %d; want both", inj.Count(chaos.FaultPanic), inj.Count(chaos.FaultNaN))
	}
	st := srv.Snapshot()
	assertBalanced(t, st)
	if st.Fidelity["exact"] == 0 || st.Brownouts == 0 {
		t.Errorf("exact answers %d, brownouts %d; the soak must exercise both", st.Fidelity["exact"], st.Brownouts)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestChaosBreakerOpensAndRecovers drives the breaker lifecycle with a
// switchable injector: 100% panic rate until the breaker opens (500s,
// then degraded 200s), then a healed model and an elapsed cooldown let
// the half-open probe close it again.
func TestChaosBreakerOpensAndRecovers(t *testing.T) {
	var inj atomic.Pointer[chaos.Injector]
	inj.Store(chaos.New(chaos.Config{Seed: 3, PanicRate: 1.0}))
	runner := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2}
	runner.WrapDevice = func(sw int, m core.DeviceModel) core.DeviceModel {
		if in := inj.Load(); in != nil {
			return in.WrapDevice(sw, m)
		}
		return m
	}
	srv := mustServe(t, serve.Config{
		Workers: 1, QueueDepth: 2, RetryMax: -1,
		Breaker: serve.BreakerConfig{Threshold: 2, Cooldown: 30 * time.Millisecond, ProbeSuccesses: 1},
	}, runner)
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	h := srv.Handler()

	// Every inference panics: two failures open the breaker.
	for i := 0; i < 2; i++ {
		if rec := postSim(h, simBody(uint64(i+1))); rec.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500", i, rec.Code)
		}
	}
	br := srv.BreakerFor("default")
	if br == nil || br.State() != serve.BreakerOpen {
		t.Fatalf("breaker not open after threshold failures: %v", br)
	}

	// Open: availability one rung down — the analytic tier answers 200
	// with the degradation advertised in headers.
	rec := postSim(h, simBody(10))
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded request: status %d body %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-DQN-Degraded") != "breaker-open" {
		t.Fatalf("degraded response missing X-DQN-Degraded header")
	}
	if got := rec.Header().Get("X-DQN-Fidelity"); got != "analytic" {
		t.Fatalf("degraded response X-DQN-Fidelity = %q, want analytic", got)
	}
	if !strings.Contains(rec.Body.String(), `"mode":"analytic"`) {
		t.Fatalf("degraded body %s", rec.Body.String())
	}
	if st := srv.Snapshot(); st.Fidelity["analytic"] != 1 {
		t.Fatalf("fidelity counters %v, want analytic=1", st.Fidelity)
	}

	// A caller pinned to exact fidelity refuses the downgrade: 503 with
	// a breaker_open error, never a silently-degraded answer.
	exact := postSim(h, `{"topo":"line4","duration":0.0002,"seed":12,"fidelity":"exact"}`)
	if exact.Code != http.StatusServiceUnavailable {
		t.Fatalf("exact-only under open breaker: status %d body %s", exact.Code, exact.Body.String())
	}
	if !strings.Contains(exact.Body.String(), "breaker_open") {
		t.Fatalf("exact-only error body %s, want kind breaker_open", exact.Body.String())
	}

	// A malformed request is the client's fault, not the model's: the
	// open breaker does not turn its 400 into a 503.
	if bad := postSim(h, `{"topo":"nosuchtopo","duration":0.0002}`); bad.Code != http.StatusBadRequest {
		t.Fatalf("malformed request under an open breaker: status %d body %s, want 400", bad.Code, bad.Body.String())
	}

	// Heal the model, let the cooldown elapse: the probe closes it.
	inj.Store(nil)
	time.Sleep(40 * time.Millisecond)
	rec = postSim(h, simBody(11))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"mode":"model"`) {
		t.Fatalf("probe request: status %d body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-DQN-Fidelity"); got != "exact" {
		t.Fatalf("healthy response X-DQN-Fidelity = %q, want exact", got)
	}
	if br.State() != serve.BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", br.State())
	}
}

// TestChaosNaNSurfacesAsDivergence: a poisoned model output must be
// caught by the engine's divergence watchdog, not silently served.
func TestChaosNaNSurfacesAsDivergence(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 5, NaNRate: 1.0})
	runner := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2}
	runner.WrapDevice = inj.WrapDevice
	srv := mustServe(t, serve.Config{Workers: 1, QueueDepth: 1, RetryMax: -1}, runner)
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	_, err := srv.Submit(context.Background(), &serve.Request{Topo: "line4", Duration: 0.0002, Shards: 2})
	if err == nil {
		t.Fatal("NaN-poisoned run must fail")
	}
	var de *guard.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("want *guard.DivergenceError, got %v", err)
	}
	if inj.Count(chaos.FaultNaN) == 0 {
		t.Fatal("NaN fault never injected")
	}
}

// TestChaosCancelSurfacesAsCanceled: an injected mid-run cancel must
// read as guard.ErrCanceled (HTTP 499), never as a deadline or failure.
func TestChaosCancelSurfacesAsCanceled(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 5, CancelRate: 1.0, CancelAfter: time.Microsecond})
	runner := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2}
	srv := mustServe(t, serve.Config{Workers: 1, QueueDepth: 1, RetryMax: -1}, inj.WrapRunner(runner))
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	_, err := srv.Submit(context.Background(), &serve.Request{Topo: "line4", Duration: 0.0002, Shards: 2})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("want guard.ErrCanceled, got %v", err)
	}
	rec := postSim(srv.Handler(), simBody(1))
	if rec.Code != serve.StatusClientClosedRequest {
		t.Fatalf("status %d, want 499", rec.Code)
	}
	if got := srv.Snapshot().Canceled; got < 2 {
		t.Fatalf("canceled count %d, want >= 2", got)
	}
	if inj.Count(chaos.FaultCancel) == 0 {
		t.Fatal("cancel fault never injected")
	}
}

// analyticDown wraps a runner so the analytic tier always errors — the
// fault that leaves an open breaker no rung to answer with.
type analyticDown struct{ next serve.Runner }

func (a *analyticDown) Run(ctx context.Context, req *serve.Request, mode serve.RunMode) (*serve.Result, error) {
	if mode == serve.RunAnalytic {
		return nil, errors.New("chaos: analytic tier down")
	}
	return a.next.Run(ctx, req, mode)
}

// TestChaosBreakerRefusesWhenAnalyticFails: with the breaker open AND
// the analytic tier erroring, no rung is left to answer, so the server
// refuses with 503 breaker_open and a Retry-After, never a silently
// degraded 200.
func TestChaosBreakerRefusesWhenAnalyticFails(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 3, PanicRate: 1.0})
	runner := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2}
	runner.WrapDevice = inj.WrapDevice
	srv := mustServe(t, serve.Config{
		Workers: 1, QueueDepth: 2, RetryMax: -1,
		Breaker: serve.BreakerConfig{Threshold: 2, Cooldown: time.Minute, ProbeSuccesses: 1},
	}, &analyticDown{next: runner})
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	h := srv.Handler()

	for i := 0; i < 2; i++ {
		if rec := postSim(h, simBody(uint64(i+1))); rec.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500", i, rec.Code)
		}
	}
	if br := srv.BreakerFor("default"); br == nil || br.State() != serve.BreakerOpen {
		t.Fatal("breaker not open after threshold failures")
	}

	rec := postSim(h, simBody(10))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("breaker open, analytic down: status %d body %s, want 503", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("breaker-open refusal without Retry-After")
	}
	if !strings.Contains(rec.Body.String(), `"kind":"breaker_open"`) {
		t.Fatalf("refusal body %s, want kind breaker_open", rec.Body.String())
	}
	if st := srv.Snapshot(); st.Completed != 0 || st.Fidelity["analytic"] != 0 {
		t.Fatalf("nothing may complete with every rung down: %+v", st)
	}
}

// TestChaosKillRestartRerunStorm is the storm's kill→restart→re-run
// phase: a batch of durable jobs at one and two shards is admitted, the
// engines park mid-run, and a drain interrupts every job, running or
// queued. A clean server on the same state directory re-runs every
// interrupted job from scratch: each must end completed, restarted
// once, with a digest bit-identical to a never-killed run of the same
// request, and both processes' accounting must balance.
func TestChaosKillRestartRerunStorm(t *testing.T) {
	const jobs = 6
	stateDir := t.TempDir()
	reqFor := func(seed uint64) *serve.Request { return durableReq(seed, 1+int(seed%2)) }

	// Ground truth: never-killed digests per seed.
	want := make(map[uint64]string, jobs)
	for seed := uint64(1); seed <= jobs; seed++ {
		want[seed] = uninterruptedDigest(t, *reqFor(seed))
	}

	gate := newEngineGate(4)
	runner1 := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2, WrapDevice: gate.wrap}
	srv1 := mustServe(t, serve.Config{
		Workers: 2, QueueDepth: jobs, RetryMax: -1, StateDir: stateDir,
	}, runner1)

	ids := make(map[uint64]string, jobs)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for seed := uint64(1); seed <= jobs; seed++ {
		wg.Add(1)
		go func(seed uint64) {
			defer func() {
				if we := guard.RecoveredWorker(int(seed), recover()); we != nil {
					t.Error(we)
				}
				wg.Done()
			}()
			_, id, err := srv1.SubmitJob(context.Background(), reqFor(seed))
			mu.Lock()
			defer mu.Unlock()
			ids[seed] = id
			if !errors.Is(err, guard.ErrCanceled) {
				t.Errorf("seed %d: outcome %v, want guard.ErrCanceled from the drain", seed, err)
			}
		}(seed)
	}
	<-gate.entered // an engine is mid-run
	deadline := time.Now().Add(10 * time.Second)
	for srv1.Snapshot().Accepted < jobs && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	drained := make(chan error, 1)
	go func() {
		defer func() {
			if we := guard.RecoveredWorker(0, recover()); we != nil {
				drained <- we
			}
		}()
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- srv1.Drain(dctx)
	}()
	awaitDraining(t, srv1)
	close(gate.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain after kill phase: %v", err)
	}
	wg.Wait()
	st := srv1.Snapshot()
	assertBalanced(t, st)
	if st.Accepted != jobs || st.Canceled != jobs {
		t.Fatalf("kill phase stats %+v, want all %d jobs admitted and interrupted", st, jobs)
	}
	for seed, id := range ids {
		if rec := awaitStatus(t, srv1, id, serve.JobInterrupted); rec.Restarts != 0 {
			t.Fatalf("seed %d: pre-restart record has Restarts = %d", seed, rec.Restarts)
		}
	}

	// Restart without a gate: every interrupted job must re-run and
	// complete with the never-killed digest.
	runner2 := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2}
	srv2 := mustServe(t, serve.Config{
		Workers: 2, QueueDepth: jobs, RetryMax: -1, StateDir: stateDir,
	}, runner2)
	for seed := uint64(1); seed <= jobs; seed++ {
		rec := awaitStatus(t, srv2, ids[seed], serve.JobCompleted)
		if rec.Restarts != 1 {
			t.Errorf("seed %d: record restarts = %d, want 1", seed, rec.Restarts)
		}
		if rec.Result == nil || rec.Result.Digest != want[seed] {
			t.Errorf("seed %d: re-run digest %+v != never-killed %q", seed, rec.Result, want[seed])
		}
	}
	drainWithin(t, srv2, 30*time.Second)
	st = srv2.Snapshot()
	assertBalanced(t, st)
	if st.Completed != jobs || st.Received != jobs {
		t.Errorf("restarted process stats %+v, want all %d recovered jobs completed", st, jobs)
	}
}

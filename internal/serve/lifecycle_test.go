package serve_test

// Lifecycle conformance: one table over every serving feature that can
// be switched — {plane} × {brownout} × {durable} × {chaos} × {client
// fidelity} — driving each cell through the same three phases (unloaded
// traffic, a runner panic, a saturated queue) and checking the same
// contract: every received request has exactly one terminal outcome,
// one tier answered each completed one, header and body name that tier,
// exact answers are bit-identical to a direct engine run, and /stats and
// /metrics are one set of numbers.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"deepqueuenet/internal/chaos"
	"deepqueuenet/internal/core"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/plane"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/serve"
)

// panicSeed marks the request on which cellRunner panics at runner
// level — above the engine's shard guard, where only the server's own
// isolation can contain it.
const panicSeed = 666

// cellRunner is the conformance harness's runner seam. While held, it
// parks every model-tier run (the deterministic saturation: parked
// workers and a full queue make each further arrival a would-be 429);
// the analytic tier always passes through.
type cellRunner struct {
	next   serve.Runner
	parked chan struct{} // one tick per run that parked; sized to the pool

	mu   sync.Mutex
	gate chan struct{} // non-nil while held
}

func (c *cellRunner) hold() {
	c.mu.Lock()
	c.gate = make(chan struct{})
	c.mu.Unlock()
}

func (c *cellRunner) release() {
	c.mu.Lock()
	close(c.gate)
	c.gate = nil
	c.mu.Unlock()
}

func (c *cellRunner) Run(ctx context.Context, req *serve.Request, mode serve.RunMode) (*serve.Result, error) {
	if req.Seed == panicSeed {
		panic("conformance: runner exploded straight through")
	}
	if mode != serve.RunAnalytic {
		c.mu.Lock()
		gate := c.gate
		c.mu.Unlock()
		if gate != nil {
			c.parked <- struct{}{}
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, guard.FromContext(ctx.Err())
			}
		}
	}
	return c.next.Run(ctx, req, mode)
}

// directDigests runs the conformance scenario straight through the
// engine — no server, no runner, no plane, no chaos — once per seed.
func directDigests(t *testing.T, model *ptm.PTM, seeds []uint64) map[uint64]string {
	t.Helper()
	want := make(map[uint64]string, len(seeds))
	for _, seed := range seeds {
		sc, err := experiments.Spec{Topo: "line4", Duration: 0.0002, Seed: seed}.Build()
		if err != nil {
			t.Fatal(err)
		}
		_, res, err := sc.RunDQNCfgCtx(context.Background(), model, core.Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = serve.Digest(res)
	}
	return want
}

// cell is one point of the conformance product.
type cell struct {
	plane, brownout, durable, chaos bool
	fidelity                        string // exact | auto | fast
}

func (c cell) name() string {
	on := func(b bool, s string) string {
		if b {
			return "+" + s
		}
		return "-" + s
	}
	return on(c.plane, "plane") + on(c.brownout, "brownout") + on(c.durable, "durable") + on(c.chaos, "chaos") + "/" + c.fidelity
}

func (c cell) body(seed uint64) string {
	return fmt.Sprintf(`{"topo":"line4","duration":0.0002,"shards":2,"seed":%d,"fidelity":%q}`, seed, c.fidelity)
}

func TestLifecycleConformance(t *testing.T) {
	model := testModel(t)
	want := directDigests(t, model, []uint64{1, 2, 3})
	onOff := []bool{false, true}
	for _, pl := range onOff {
		for _, brownout := range onOff {
			for _, durable := range onOff {
				for _, chaosOn := range onOff {
					for _, fidelity := range []string{"exact", "auto", "fast"} {
						c := cell{pl, brownout, durable, chaosOn, fidelity}
						t.Run(c.name(), func(t *testing.T) {
							t.Parallel() // cells share only the read-only model and digests
							runCell(t, c, model, want)
						})
					}
				}
			}
		}
	}
}

// cellEnv is one cell's running server plus what the test sent it.
type cellEnv struct {
	t    *testing.T
	c    cell
	want map[uint64]string
	h    http.Handler

	mu       sync.Mutex
	sent     uint64   // POST /simulate requests issued
	exactOK  int      // 200s answered by the exact tier
	statuses []string // durable: job id → expected record status, as "id=status"
}

// post sends one /simulate request and checks everything a single
// response must satisfy, whatever the cell. It returns the status code
// and the answering tier ("" unless 200).
func (e *cellEnv) post(body string, seed uint64) (int, string) {
	rec := postSim(e.h, body)
	e.mu.Lock()
	e.sent++
	e.mu.Unlock()
	id := rec.Header().Get("X-DQN-Job")
	switch rec.Code {
	case http.StatusOK:
		var res serve.Result
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			e.t.Errorf("seed %d: decoding 200 body: %v", seed, err)
			return rec.Code, ""
		}
		if tier := rec.Header().Get("X-DQN-Fidelity"); tier == "" || tier != res.Fidelity {
			e.t.Errorf("seed %d: X-DQN-Fidelity %q != body fidelity %q", seed, tier, res.Fidelity)
		}
		if res.Fidelity == "exact" {
			// Plane, chaos wrappers, retries and durability may not move a
			// bit: the digest is the direct engine run's.
			if res.Digest != e.want[seed] || res.Mode != "model" || res.Degraded {
				e.t.Errorf("seed %d: exact answer %+v, want a clean model run with digest %s", seed, res, e.want[seed])
			}
			if !e.c.chaos && res.Attempts != 1 {
				e.t.Errorf("seed %d: %d attempts with chaos off, want 1", seed, res.Attempts)
			}
			e.mu.Lock()
			e.exactOK++
			e.mu.Unlock()
		}
		e.expectRecord(id, serve.JobCompleted)
		return rec.Code, res.Fidelity
	case http.StatusTooManyRequests:
		if rec.Header().Get("Retry-After") == "" {
			e.t.Errorf("seed %d: 429 without Retry-After", seed)
		}
		if id != "" {
			e.t.Errorf("seed %d: shed request kept durable job %s", seed, id)
		}
	case http.StatusInternalServerError:
		// Chaos exhausted the retry budget, or the runner panicked: a
		// breaker-worthy failure, so a durable record is parked.
		if !e.c.chaos && seed != panicSeed {
			e.t.Errorf("seed %d: 500 with chaos off: %s", seed, rec.Body.String())
		}
		e.expectRecord(id, serve.JobParked)
	default:
		e.t.Errorf("seed %d: undocumented status %d: %s", seed, rec.Code, rec.Body.String())
	}
	return rec.Code, ""
}

// expectRecord notes the terminal status a durable job's record must
// show. Only queued requests of a durable cell carry an ID; inline
// answers (fast, brownout) leave no record.
func (e *cellEnv) expectRecord(id, status string) {
	switch {
	case !e.c.durable && id != "":
		e.t.Errorf("non-durable cell minted job id %s", id)
	case e.c.durable && id == "" && status == serve.JobParked && e.c.fidelity != "fast":
		// A 500 to an exact or auto client can only come from a queued job.
		e.t.Errorf("durable cell: failed job carries no X-DQN-Job")
	case id != "":
		e.mu.Lock()
		e.statuses = append(e.statuses, id+"="+status)
		e.mu.Unlock()
	}
}

// concurrently runs fn(0..n-1) on n goroutines and waits for them.
func concurrently(t *testing.T, n int, fn func(i int)) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer func() {
				if we := guard.RecoveredWorker(i, recover()); we != nil {
					t.Error(we)
				}
				wg.Done()
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
}

func runCell(t *testing.T, c cell, model *ptm.PTM, want map[uint64]string) {
	const workers, queueDepth, burst = 2, 2, 4

	// With every rate zero the chaos wrappers must be identities.
	ccfg := chaos.Config{Seed: 11}
	if c.chaos {
		ccfg.PanicRate, ccfg.NaNRate = 0.004, 0.004
	}
	inj := chaos.New(ccfg)
	var pl *plane.Plane
	if c.plane {
		pl = plane.New(plane.Config{MaxBatch: 8})
		defer pl.Close()
	}
	runner := &serve.ScenarioRunner{DefaultModel: model, MaxShards: 2, Plane: pl}
	runner.WrapDevice = inj.WrapDevice
	cr := &cellRunner{next: inj.WrapRunner(runner), parked: make(chan struct{}, workers)}
	cfg := serve.Config{
		Workers: workers, QueueDepth: queueDepth, Brownout: c.brownout, Plane: pl,
		RetryMax: 6, RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond,
		// Breaker behaviour has its own tests; an open breaker here would
		// answer the occupiers below without parking them.
		Breaker: serve.BreakerConfig{Threshold: 1 << 30},
	}
	if c.durable {
		cfg.StateDir = t.TempDir()
	}
	srv := mustServe(t, cfg, cr)
	e := &cellEnv{t: t, c: c, want: want, h: srv.Handler()}
	engine := c.fidelity != "fast" // do this cell's own requests reach the engine?

	// Phase 1, unloaded: three clients (never more than workers + queue
	// in flight, so nothing sheds), three seeds each.
	concurrently(t, 3, func(int) {
		for seed := uint64(1); seed <= 3; seed++ {
			code, tier := e.post(c.body(seed), seed)
			switch {
			case code == http.StatusTooManyRequests:
				t.Errorf("unloaded request shed")
			case code == http.StatusOK && engine && tier != "exact":
				t.Errorf("unloaded %s request answered by %q, want exact", c.fidelity, tier)
			case code == http.StatusOK && !engine && tier != "analytic":
				t.Errorf("fast request answered by %q, want analytic", tier)
			}
		}
	})
	if engine && e.exactOK == 0 {
		t.Fatal("no exact answer survived: the digest claim is untested")
	}
	if st := srv.Snapshot(); st.Shed != 0 || st.Brownouts != 0 || st.Panics != 0 {
		t.Errorf("unloaded phase: shed %d brownouts %d panics %d, want none (chaos faults are shard errors, not panics)",
			st.Shed, st.Brownouts, st.Panics)
	}

	// Phase 2, a runner panic: contained as a 500 on the queued and the
	// inline path alike, counted in panics, and the server lives on.
	if code, _ := e.post(c.body(panicSeed), panicSeed); code != http.StatusInternalServerError {
		t.Errorf("runner panic: status %d, want 500", code)
	}
	if st := srv.Snapshot(); st.Panics == 0 {
		t.Error("runner panic not counted")
	}

	// Phase 3, saturated: park every worker, fill the queue, then offer
	// a burst. The occupiers are plain auto requests in every cell (a
	// fast request never queues); the burst uses the cell's fidelity.
	before := srv.Snapshot()
	cr.hold()
	auto := cell{fidelity: "auto"}
	var occupiers sync.WaitGroup
	occupy := func(seed uint64) {
		occupiers.Add(1)
		go func() {
			defer func() {
				if we := guard.RecoveredWorker(int(seed), recover()); we != nil {
					t.Error(we)
				}
				occupiers.Done()
			}()
			if code, _ := e.post(auto.body(seed), seed); code == http.StatusTooManyRequests {
				t.Errorf("occupier seed %d shed", seed)
			}
		}()
	}
	for i := uint64(0); i < workers; i++ {
		occupy(1 + i)
	}
	for i := 0; i < workers; i++ {
		<-cr.parked
	}
	for i := uint64(0); i < queueDepth; i++ {
		occupy(1 + i)
	}
	for deadline := time.Now().Add(30 * time.Second); srv.Snapshot().Queued < queueDepth; {
		if !time.Now().Before(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	var wantShed, wantBrownouts uint64
	for i := 0; i < burst; i++ {
		code, tier := e.post(c.body(2), 2)
		switch {
		case c.fidelity == "fast" || (c.fidelity == "auto" && c.brownout):
			// Inline analytic answer: fast by request, auto by brownout.
			if code != http.StatusOK || tier != "analytic" {
				t.Errorf("saturated %s request: status %d tier %q, want 200 analytic", c.fidelity, code, tier)
			}
			if c.fidelity == "auto" {
				wantBrownouts++
			}
		default:
			// No brownout, or a client that opted out of the ladder.
			if code != http.StatusTooManyRequests {
				t.Errorf("saturated %s request: status %d, want 429", c.fidelity, code)
			}
			wantShed++
		}
	}
	cr.release()
	occupiers.Wait()
	mid := srv.Snapshot()
	if got := mid.Shed - before.Shed; got != wantShed {
		t.Errorf("saturated phase shed %d, want %d", got, wantShed)
	}
	if got := mid.Brownouts - before.Brownouts; got != wantBrownouts {
		t.Errorf("saturated phase brownouts %d, want %d", got, wantBrownouts)
	}

	// Quiesce, then check the contract on the wire: GET /stats and GET
	// /metrics, as a client would.
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	get := func(path string) string {
		w := httptest.NewRecorder()
		e.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, w.Code)
		}
		return w.Body.String()
	}
	var st serve.Stats
	if err := json.Unmarshal([]byte(get("/stats")), &st); err != nil {
		t.Fatal(err)
	}
	assertBalanced(t, st)
	if st.Received != e.sent {
		t.Errorf("received %d, sent %d", st.Received, e.sent)
	}
	var tiers uint64
	for _, n := range st.Fidelity {
		tiers += n
	}
	if tiers != st.Completed {
		t.Errorf("fidelity tiers %v sum to %d, completed %d", st.Fidelity, tiers, st.Completed)
	}
	if st.Degraded != 0 {
		t.Errorf("degraded %d with breakers pinned closed", st.Degraded)
	}
	exp := get("/metrics")
	series := map[string]uint64{
		`dqn_requests_received_total`:             st.Received,
		`dqn_requests_accepted_total`:             st.Accepted,
		`dqn_requests_total{outcome="completed"}`: st.Completed,
		`dqn_requests_total{outcome="failed"}`:    st.Failed,
		`dqn_requests_total{outcome="shed"}`:      st.Shed,
		`dqn_requests_total{outcome="rejected"}`:  st.Rejected,
		`dqn_requests_total{outcome="canceled"}`:  st.Canceled,
		`dqn_requests_total{outcome="deadline"}`:  st.Deadline,
		`dqn_retries_total`:                       st.Retries,
		`dqn_degraded_total`:                      st.Degraded,
		`dqn_brownouts_total`:                     st.Brownouts,
		`dqn_panics_total`:                        st.Panics,
	}
	for tier, n := range st.Fidelity {
		series[fmt.Sprintf(`dqn_fidelity_total{tier=%q}`, tier)] = n
	}
	for name, want := range series {
		if got := scrapeValue(t, exp, name); got != want {
			t.Errorf("/metrics %s = %d, /stats says %d", name, got, want)
		}
	}
	if c.plane {
		if sec, _ := pl.BatchStats(); sec == 0 {
			t.Error("plane saw no flush: the batched path was not exercised")
		}
	}
	for _, want := range e.statuses {
		id, status, _ := strings.Cut(want, "=")
		rec, err := srv.Job(id)
		if err != nil || rec.Status != status {
			t.Errorf("job %s: record %+v (err %v), want status %s", id, rec, err, status)
		}
	}
}

// TestDrainTimeoutKeepsAccountingBalanced: jobs still queued when the
// drain budget expires are finished with ErrDraining — and counted
// rejected, so the accounting identity survives a drain timeout.
func TestDrainTimeoutKeepsAccountingBalanced(t *testing.T) {
	cr := &cellRunner{
		next:   &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2},
		parked: make(chan struct{}, 1),
	}
	cr.hold()
	srv := mustServe(t, serve.Config{Workers: 1, QueueDepth: 2, RetryMax: -1}, cr)
	errs := make(chan error, 3)
	submit := func(i int) {
		go func() {
			defer func() {
				if we := guard.RecoveredWorker(i, recover()); we != nil {
					errs <- we
				}
			}()
			_, err := srv.Submit(context.Background(), durableReq(uint64(i+1), 2))
			errs <- err
		}()
	}
	submit(0)
	<-cr.parked // the worker holds job 0; the next two stay queued
	submit(1)
	submit(2)
	for deadline := time.Now().Add(30 * time.Second); srv.Snapshot().Queued < 2; {
		if !time.Now().Before(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		defer func() {
			if we := guard.RecoveredWorker(3, recover()); we != nil {
				drained <- we
			}
		}()
		dctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		drained <- srv.Drain(dctx)
	}()
	// The budget expires with job 0 still running: the two queued
	// submitters are released with ErrDraining.
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, serve.ErrDraining) {
			t.Fatalf("queued submitter: err = %v, want ErrDraining", err)
		}
	}
	cr.release()
	if err := <-errs; err != nil {
		t.Fatalf("in-flight job: %v", err)
	}
	if err := <-drained; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain past its budget: err = %v, want context.DeadlineExceeded", err)
	}
	st := srv.Snapshot()
	assertBalanced(t, st)
	if st.Received != 3 || st.Completed != 1 || st.Rejected != 2 {
		t.Fatalf("received %d completed %d rejected %d, want 3/1/2", st.Received, st.Completed, st.Rejected)
	}
}

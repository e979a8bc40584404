// Package serve is the resilient simulation-serving layer: it runs
// concurrent DeepQueueNet jobs (Sim.RunContext via a Runner) through a
// bounded worker pool behind a bounded admission queue, propagates
// per-request deadlines, sheds load with Retry-After when the queue is
// full, contains repeated model failures behind per-model-path circuit
// breakers (answering from the analytic tier while open), retries
// transient faults with exponential backoff and jitter, and drains
// in-flight jobs on shutdown. The failure taxonomy is internal/guard's: shard panics,
// divergence, cancellation, deadlines, and breaker-open states all stay
// inspectable with errors.Is/As.
//
// Every received request — HTTP, Submit, or a durable record recovered
// at start-up — goes through the same four steps: admit (validate,
// drain gate, deadline), choose (situation → ordered rung plan), run
// (walk the plan until a rung answers) and account, which is reached
// exactly once per request, so received = completed + failed + shed +
// rejected + canceled + deadline and Σ fidelity tiers = completed hold
// by construction. DESIGN.md §8 has the pipeline and the decision table.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/obs"
	"deepqueuenet/internal/plane"
	"deepqueuenet/internal/rng"
)

// Config tunes the server's resilience envelope.
type Config struct {
	// Workers is the number of concurrently executing simulation jobs.
	// <= 0 uses 2.
	Workers int
	// QueueDepth bounds the admission queue beyond the in-flight jobs;
	// a request arriving with the queue full is shed with 429 +
	// Retry-After instead of queuing unboundedly. <= 0 uses 8.
	QueueDepth int
	// DefaultTimeout is the per-job deadline when the request names
	// none. <= 0 uses 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines. <= 0 uses 2m.
	MaxTimeout time.Duration
	// RetryMax is how many times a transient job failure (shard panic,
	// divergence) is retried before surfacing. < 0 disables retries;
	// 0 uses 2.
	RetryMax int
	// RetryBase is the first backoff delay; attempt n waits
	// RetryBase·2ⁿ plus jitter, capped at RetryCap. <= 0 uses 25ms.
	RetryBase time.Duration
	// RetryCap bounds a single backoff delay. <= 0 uses 1s.
	RetryCap time.Duration
	// Breaker configures the per-model-path circuit breakers.
	Breaker BreakerConfig
	// Seed seeds the jitter generator (deterministic tests). 0 uses 1.
	Seed uint64
	// Now is the clock (injectable for deterministic breaker tests);
	// nil uses time.Now.
	Now func() time.Time
	// MaxBodyBytes caps the size of a /simulate request body; an
	// oversized body is refused with 413 before any decoding buffers
	// grow. <= 0 uses 2 MiB.
	MaxBodyBytes int64
	// StateDir, when non-empty, makes jobs durable: every admitted job
	// gets an atomically persisted JSON record under StateDir, and a
	// restarted server re-enqueues every record that was pending or
	// interrupted when the previous process stopped, re-running each
	// from scratch under a fresh deadline (the engine is deterministic,
	// so the re-run returns the same bits). Empty disables durability
	// (no files, no overhead).
	StateDir string
	// Brownout enables deadline-aware fidelity degradation: when the
	// admission queue would shed a request, or a job's remaining
	// deadline is below the estimated exact run time for its topology,
	// the server answers from the analytic tier instead of returning
	// 429 or running into the deadline. Requests with fidelity "exact"
	// are never browned out.
	Brownout bool
	// Plane, when non-nil, is the shared cross-request inference plane.
	// The server folds its queue depth and measured batch latency into
	// Retry-After estimates — under model-bound load the plane's warm
	// workers, not the HTTP worker pool, are the clearing bottleneck.
	// Wire the same plane into the runner (ScenarioRunner.Plane).
	Plane *plane.Plane
	// Metrics is the registry the server's observability series register
	// in (exposed at GET /metrics). nil creates a private registry,
	// reachable via Server.Metrics.
	Metrics *obs.Registry
	// Logger, when non-nil, receives one structured record per finished
	// HTTP exchange (method, path, status, duration, bytes).
	Logger *slog.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetryMax == 0 {
		c.RetryMax = 2
	}
	if c.RetryMax < 0 {
		c.RetryMax = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 2 << 20
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// ErrShed marks a request refused at admission because the queue was
// full (HTTP 429 + Retry-After).
var ErrShed = errors.New("serve: overloaded, request shed")

// ErrDraining marks a request refused because the server is draining
// for shutdown (HTTP 503 + Retry-After).
var ErrDraining = errors.New("serve: draining, not accepting jobs")

// ErrBreakerOpen marks an exact-fidelity request refused because its
// model's circuit breaker is open: the client opted out of the
// degradation ladder, so there is nothing left to answer with
// (HTTP 503 + Retry-After).
var ErrBreakerOpen = errors.New("serve: model circuit breaker open")

// jobOutcome is what a worker hands back to the waiting submitter.
type jobOutcome struct {
	res *Result
	err error
}

// job is one admitted request traveling through the queue. id and rec
// are set only in durable mode; cancel lets Drain interrupt the job
// inside the shutdown budget.
type job struct {
	req    *Request
	ctx    context.Context
	cancel context.CancelFunc
	done   chan jobOutcome // buffered(1): a worker never blocks finishing

	id  string
	rec *JobRecord
}

// Server owns the worker pool, admission queue, breakers, and stats.
// Build with New, serve HTTP through Handler, stop with Drain.
type Server struct {
	cfg    Config
	runner Runner

	queue  chan *job
	closed chan struct{} // closes when workers must exit
	wg     sync.WaitGroup
	jobWG  sync.WaitGroup // tracks admitted-but-unfinished jobs

	// drainMu orders jobWG.Add against Drain's jobWG.Wait: admit
	// increments under the read lock only after seeing draining false,
	// and Drain flips the flag under the write lock before waiting, so
	// no Add can start from a zero counter while Wait runs.
	drainMu   sync.RWMutex
	draining  atomic.Bool
	drainOnce sync.Once

	breakers wireKeyed[*Breaker] // by Request.modelKey

	jitterMu sync.Mutex
	jitter   *rng.Rand

	// store and active exist only in durable mode: the job store under
	// Config.StateDir and the cancel functions of admitted jobs (Drain
	// cancels them so engines exit inside the budget).
	store    *jobStore
	activeMu sync.Mutex
	active   map[string]context.CancelFunc

	met       *serverMetrics // every event count; /stats and /metrics both read it
	inflight  atomic.Int64   // jobs currently executing
	estimator runEstimator   // engine run-time EWMAs: Retry-After and the rung choice

	// planeStats reads the shared inference plane's live state (pending
	// calls, EWMA flush seconds, EWMA batch size) for the Retry-After
	// estimate; nil when no plane is attached. A func field so tests can
	// pin both Retry-After regimes deterministically.
	planeStats func() (depth int, avgSec, avgSize float64)
}

// New builds a Server and starts its worker pool. With Config.StateDir
// set it also opens the durable job store and re-enqueues every
// recoverable record the previous process left behind; the only error
// New can return is a state-directory failure.
func New(cfg Config, runner Runner) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		runner: runner,
		queue:  make(chan *job, cfg.QueueDepth),
		closed: make(chan struct{}),
		jitter: rng.New(cfg.Seed),
	}
	if p := cfg.Plane; p != nil {
		s.planeStats = func() (int, float64, float64) {
			sec, size := p.BatchStats()
			return p.Depth(), sec, size
		}
	}
	var recovered []*JobRecord
	if cfg.StateDir != "" {
		store, err := openJobStore(cfg.StateDir)
		if err != nil {
			return nil, err
		}
		s.store = store
		s.active = make(map[string]context.CancelFunc)
		if recovered, err = store.recoverable(); err != nil {
			return nil, fmt.Errorf("serve: scan recoverable jobs: %w", err)
		}
	}
	s.met = newServerMetrics(cfg.Metrics, s)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	if len(recovered) > 0 {
		s.jobWG.Add(1)
		go s.recoverJobs(recovered)
	}
	return s, nil
}

// recoverJobs re-enqueues the previous process's unfinished jobs, in ID
// order. Each is a received request of this process and goes through
// the same lifecycle as a live one. Runs under jobWG so Drain waits for
// recovery to settle.
func (s *Server) recoverJobs(recs []*JobRecord) {
	defer s.jobWG.Done()
	defer func() {
		if we := guard.RecoveredWorker(-1, recover()); we != nil {
			// A recovery panic must not kill the server; unrecovered
			// records stay on disk for the next process.
			s.met.panics.Inc()
		}
	}()
	for _, rec := range recs {
		if s.draining.Load() {
			return // records stay recoverable for the next process
		}
		rec.Restarts++
		rec.Status = JobPending
		if err := s.store.put(rec); err != nil {
			continue
		}
		s.met.recovered.Inc()
		s.resubmit(rec)
	}
}

// resubmit runs one recovered record through admission. The original
// client is gone, so the job runs under a fresh deadline, nobody waits
// on its done channel, and its result lands in the record (retrievable
// via GET /jobs/{id}). Unlike a live submit it waits for a queue slot:
// recovery must not shed what a previous process already accepted.
func (s *Server) resubmit(rec *JobRecord) {
	jctx, cancel, err := s.admit(context.Background(), rec.Request)
	if err != nil {
		return // rejected by the drain gate; the record stays recoverable
	}
	j := &job{req: rec.Request, ctx: jctx, cancel: cancel, done: make(chan jobOutcome, 1), id: rec.ID, rec: rec}
	s.registerActive(j)
	select {
	case s.queue <- j:
		s.met.accepted.Inc()
	case <-s.closed:
		cancel()
		s.settle(j, plan{}, nil, ErrDraining)
		s.jobWG.Done()
	}
}

// registerActive and unregisterActive maintain the drain-cancel set of
// durable jobs (the only ones with an id).
func (s *Server) registerActive(j *job) {
	if j.id != "" {
		s.activeMu.Lock()
		s.active[j.id] = j.cancel
		s.activeMu.Unlock()
	}
}

func (s *Server) unregisterActive(j *job) {
	if j.id != "" {
		s.activeMu.Lock()
		delete(s.active, j.id)
		s.activeMu.Unlock()
	}
}

// worker pulls jobs until the server closes. Runner panics are
// contained per attempt (Server.attempt); this outer recover is the
// last line that keeps a worker goroutine from taking down the process.
func (s *Server) worker(i int) {
	defer s.wg.Done()
	defer func() {
		if we := guard.RecoveredWorker(i, recover()); we != nil {
			s.met.panics.Inc()
		}
	}()
	for {
		select {
		case <-s.closed:
			return
		case j := <-s.queue:
			s.serveJob(j)
		}
	}
}

// Submit admits a request and blocks until its job finishes or ctx
// ends. It is the transport-independent core of POST /simulate: HTTP
// handlers and benchmarks call it directly. The returned error is one
// of: nil, ErrShed, ErrDraining, ErrBreakerOpen, ErrBadRequest, a guard
// error (ErrCanceled/ErrDeadline/ShardError/DivergenceError/
// WorkerError), or a runner failure.
func (s *Server) Submit(ctx context.Context, req *Request) (*Result, error) {
	res, _, err := s.SubmitJob(ctx, req)
	return res, err
}

// admit is the lifecycle's first step, shared by live submits and
// recovered records: count the request received, validate it, pass the
// drain gate, and put it under its deadline. A non-nil error is the
// request's terminal outcome, already accounted; on success the caller
// owes one jobWG.Done once the request has been accounted.
func (s *Server) admit(ctx context.Context, req *Request) (context.Context, context.CancelFunc, error) {
	s.met.received.Inc()
	if !req.fidelityValid() {
		err := badRequestf("fidelity %q not one of exact|auto|fast", req.Fidelity)
		s.account(nil, plan{}, nil, err)
		return nil, nil, err
	}
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		s.account(nil, plan{}, nil, ErrDraining)
		return nil, nil, ErrDraining
	}
	s.jobWG.Add(1)
	s.drainMu.RUnlock()
	jctx, cancel := context.WithTimeout(ctx, s.timeoutFor(req))
	return jctx, cancel, nil
}

// SubmitJob is Submit plus the job's durable ID ("" when the server has
// no StateDir or the request never reached the queue). A client holding
// the ID can retrieve the job's final record through GET /jobs/{id}
// even if its own connection dies mid-run — including across a server
// restart.
func (s *Server) SubmitJob(ctx context.Context, req *Request) (*Result, string, error) {
	jctx, cancel, err := s.admit(ctx, req)
	if err != nil {
		return nil, "", err
	}
	defer cancel()
	queueFull := false
	if req.Fidelity != "fast" {
		j := &job{req: req, ctx: jctx, cancel: cancel, done: make(chan jobOutcome, 1)}
		if s.store != nil {
			// Persist the admission record before the job can reach a
			// worker: a crash between here and completion leaves a
			// recoverable record, never an invisible job.
			j.id = s.store.newID()
			j.rec = &JobRecord{ID: j.id, Request: req, Status: JobPending}
			if err := s.store.put(j.rec); err != nil {
				s.account(nil, plan{}, nil, err)
				s.jobWG.Done()
				return nil, "", err
			}
			s.registerActive(j)
		}
		select {
		case s.queue <- j:
			s.met.accepted.Inc()
			select {
			case out := <-j.done:
				return out.res, j.id, out.err
			case <-jctx.Done():
				// Still queued (or the submitter gave up first): the worker
				// will observe the dead context, finish the job cheaply, and
				// account it; the buffered done channel means nobody blocks.
				return nil, j.id, guard.FromContext(jctx.Err())
			}
		default:
			queueFull = true
			if s.store != nil {
				s.unregisterActive(j)
				s.store.remove(j.id)
			}
		}
	}
	// Inline: the fast tier skips the queue, the workers, the model and
	// the durable record (the answer outlives the request by nothing);
	// a full queue browns out to the same µs-scale answer or sheds.
	p := choose(req, s.cfg.Brownout, AdmitNormal, queueFull, 0, 0)
	res, err := s.run(jctx, req, p, nil, false)
	s.account(nil, p, res, err)
	s.jobWG.Done()
	return res, "", err
}

// timeoutFor clamps the request's deadline into the server's envelope.
func (s *Server) timeoutFor(req *Request) time.Duration {
	d := time.Duration(req.TimeoutMs) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// plan is the outcome of the choose step: the ladder rungs to try, in
// order, until one answers.
type plan struct {
	rungs []RunMode // one of the read-only rung lists below
	// refuse, when set, is what the request ends with if no rung answers
	// (none listed, or all errored); otherwise the last rung's error is.
	refuse      error
	pressure    bool // shaped by overload or a short deadline: an answer below exact is a brownout
	breakerOpen bool // rerouted by an open breaker: counted degraded, the answer carries the breaker's reason
}

var (
	rungsExact         = []RunMode{RunExact}
	rungsAnalytic      = []RunMode{RunAnalytic}
	rungsAnalyticExact = []RunMode{RunAnalytic, RunExact}
)

// choose is the lifecycle's second step and the only place a fidelity
// rung is picked, from the whole situation: what the client asked for,
// whether brownout is configured, the breaker's admission, whether the
// queue refused the job, and the time left against the topology's
// exact-run estimate (0 when unknown). DESIGN.md §8 tabulates it.
func choose(req *Request, brownout bool, adm Admission, queueFull bool, remaining, estimate time.Duration) plan {
	// ladder: may pressure move this request below exact fidelity?
	ladder := brownout && !req.exactOnly()
	switch {
	case req.Fidelity == "fast":
		return plan{rungs: rungsAnalytic}
	case queueFull && ladder:
		// An analytic answer costs microseconds: convert the would-be 429
		// into a reduced-fidelity 200, shedding only if the analytic tier
		// itself cannot answer (e.g. a saturated scenario).
		return plan{rungs: rungsAnalytic, refuse: ErrShed, pressure: true}
	case queueFull:
		return plan{refuse: ErrShed}
	case adm == AdmitDegraded && req.exactOnly():
		// The client opted out of the ladder; there is nothing left to
		// answer with.
		return plan{refuse: ErrBreakerOpen, breakerOpen: true}
	case adm == AdmitDegraded:
		// Do not hammer the suspect model: answer analytically, and
		// refuse with the breaker's reason if the analytic tier cannot.
		return plan{rungs: rungsAnalytic, refuse: ErrBreakerOpen, breakerOpen: true}
	case adm == AdmitProbe || !ladder || estimate <= 0 || remaining >= estimate:
		// Probes always run exact: their whole point is to judge the
		// model path.
		return plan{rungs: rungsExact}
	default:
		// Not enough time left for an engine run. Should the analytic
		// tier error, take our chances at full fidelity — the outcome is
		// what it would have been without brownout.
		return plan{rungs: rungsAnalyticExact, pressure: true}
	}
}

// serveJob takes one queued job through choose, run and account.
func (s *Server) serveJob(j *job) {
	defer s.jobWG.Done()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if err := j.ctx.Err(); err != nil {
		// Canceled while queued; the submitter is already gone.
		s.settle(j, plan{}, nil, guard.FromContext(err))
		return
	}
	req := j.req
	now := s.cfg.Now()
	br := s.breakerFor(req.modelKey())
	adm := br.Allow(now)
	deadline, _ := j.ctx.Deadline()
	p := choose(req, s.cfg.Brownout, adm, false, deadline.Sub(now), s.estimator.estimate(req.Topo))
	res, err := s.run(j.ctx, req, p, br, adm == AdmitProbe)
	s.settle(j, p, res, err)
}

// settle ends a queued job: account it, release its drain-cancel slot,
// and wake the submitter, in that order — a client holding its answer
// already finds it in /stats.
func (s *Server) settle(j *job, p plan, res *Result, err error) {
	s.account(j.rec, p, res, err)
	s.unregisterActive(j)
	j.done <- jobOutcome{res, err}
}

// run is the lifecycle's third step: walk the plan until a rung
// answers. The model rung (exact) retries transient failures and
// reports to the breaker — as its probe when probe is set; the analytic
// rung never judges the model. br is nil for inline plans,
// which list no model rung.
func (s *Server) run(ctx context.Context, req *Request, p plan, br *Breaker, probe bool) (*Result, error) {
	var res *Result
	err := p.refuse
	start := s.cfg.Now()
	for _, mode := range p.rungs {
		attempts := 1
		if mode == RunExact {
			res, attempts, err = s.retry(ctx, req, mode)
			if err == nil || breakerWorthy(err) {
				br.Record(probe, err, s.cfg.Now())
			} else if probe {
				// Context-terminated or bad-request probes judge nothing;
				// hand the probe slot back so the breaker can try again.
				br.ReleaseProbe()
			}
			// An engine run, whatever its outcome, feeds Retry-After; a
			// successful one also its topology's estimate.
			elapsed := s.cfg.Now().Sub(start)
			s.met.jobSeconds.Observe(elapsed.Seconds())
			s.estimator.observe(req.Topo, elapsed, err == nil)
		} else {
			res, err = s.attempt(ctx, req, mode)
		}
		if res != nil {
			res.Attempts = attempts
		}
		if err == nil {
			// The server knows which rung it ran: header, body and
			// counter tier are this one value.
			res.Fidelity = mode.Fidelity()
			break
		}
	}
	switch {
	case err == nil && p.breakerOpen:
		res.BreakerOpen = true
		if open := br.Err(); open != nil {
			res.DegradedReason = open.Error()
		}
	case err != nil && p.refuse != nil && !errors.Is(err, ErrBadRequest):
		// No rung answered: the request ends with the plan's refusal,
		// unless it is malformed, which is a 400 on every rung.
		res, err = nil, p.refuse
		if p.breakerOpen {
			err = fmt.Errorf("%w: %w", err, br.Err())
		}
	}
	return res, err
}

// attempt is the server's one call into the runner, behind panic
// isolation: a panicking runner becomes a *guard.WorkerError — transient
// and breaker-worthy like a shard panic — instead of killing a worker
// or an HTTP handler.
func (s *Server) attempt(ctx context.Context, req *Request, mode RunMode) (res *Result, err error) {
	defer func() {
		if we := guard.RecoveredWorker(0, recover()); we != nil {
			s.met.panics.Inc()
			res, err = nil, we
		}
	}()
	return s.runner.Run(ctx, req, mode)
}

// retry attempts one model rung, retrying transient failures with
// exponential backoff + jitter while the deadline lasts. It returns the
// number of attempts made.
func (s *Server) retry(ctx context.Context, req *Request, mode RunMode) (*Result, int, error) {
	for attempts := 1; ; attempts++ {
		res, err := s.attempt(ctx, req, mode)
		if err == nil || !transient(err) || attempts > s.cfg.RetryMax {
			return res, attempts, err
		}
		t := time.NewTimer(s.backoff(attempts - 1))
		select {
		case <-ctx.Done():
			t.Stop()
			// Out of time mid-backoff: the transient error is what the
			// caller should see, joined with the deadline state.
			return res, attempts, errors.Join(guard.FromContext(ctx.Err()), err)
		case <-t.C:
		}
		s.met.retries.Inc()
	}
}

// account is the lifecycle's last step, reached exactly once per
// received request: it is the only code that moves the outcome,
// fidelity, brownout and degraded counters and the only code that
// writes a durable record's terminal state. err classifies the
// outcome; rec is nil unless the request is a queued durable job.
func (s *Server) account(rec *JobRecord, p plan, res *Result, err error) {
	outcome := "failed"
	switch {
	case err == nil:
		outcome = "completed"
		s.met.fidelity[res.Fidelity].Inc()
		if p.pressure && res.Fidelity != RunExact.Fidelity() {
			s.met.brownouts.Inc()
		}
	case errors.Is(err, ErrShed):
		outcome = "shed"
	case errors.Is(err, ErrDraining):
		outcome = "rejected"
	case errors.Is(err, guard.ErrDeadline):
		outcome = "deadline"
	case errors.Is(err, guard.ErrCanceled):
		outcome = "canceled"
	}
	s.met.outcomes[outcome].Inc()
	if p.breakerOpen {
		s.met.degraded.Inc()
	}
	if rec != nil {
		s.record(rec, res, err)
	}
}

// record persists a durable job's terminal (or recoverable) state:
//
//   - success, deadline, non-drain cancel, plain failure → terminal
//     record.
//   - cancellation during drain, or a drain that closed the server
//     before the job ran → the record goes interrupted, and the next
//     server re-runs it from scratch.
//   - breaker-worthy failure → the record is parked; it is not retried
//     automatically, because the failure charged the model's breaker
//     and retrying a parked job would hammer a suspect model from the
//     recovery path.
func (s *Server) record(rec *JobRecord, res *Result, err error) {
	rec.Error = ""
	if err != nil {
		rec.Error = err.Error()
	}
	switch {
	case err == nil:
		rec.Status = JobCompleted
		rec.Result = res
	case errors.Is(err, ErrDraining),
		errors.Is(err, guard.ErrCanceled) && s.draining.Load():
		rec.Status = JobInterrupted
		s.met.interrupted.Inc()
	case errors.Is(err, guard.ErrCanceled):
		rec.Status = JobCanceled
	case errors.Is(err, guard.ErrDeadline):
		rec.Status = JobDeadline
	case breakerWorthy(err):
		rec.Status = JobParked
		s.met.parked.Inc()
		// A parked dead letter still carries a reduced-fidelity answer:
		// the analytic estimate needs no model, so GET /jobs/{id} shows
		// a principled result instead of nothing. The job's terminal
		// accounting stays "failed" — this is advisory data on the
		// record, not a completed request.
		if ares, aerr := s.attempt(context.Background(), rec.Request, RunAnalytic); aerr == nil {
			ares.DegradedReason = err.Error()
			rec.Result = ares
		}
	default:
		rec.Status = JobFailed
	}
	// A failed record write loses durability, not correctness: the
	// in-memory outcome still reaches the submitter.
	//dqnlint:allow errdiscard record write failure loses durability only; the in-memory outcome still reaches the submitter
	_ = s.store.put(rec)
}

// backoff computes the delay before retry attempt n (0-based):
// RetryBase·2ⁿ capped at RetryCap, with "equal jitter" — half fixed,
// half uniform — so synchronized failures don't retry in lockstep.
func (s *Server) backoff(attempt int) time.Duration {
	if attempt > 30 {
		attempt = 30
	}
	d := s.cfg.RetryBase << uint(attempt)
	if d > s.cfg.RetryCap || d <= 0 {
		d = s.cfg.RetryCap
	}
	s.jitterMu.Lock()
	u := s.jitter.Float64()
	s.jitterMu.Unlock()
	return d/2 + time.Duration(u*float64(d/2))
}

// transient reports whether a failure is worth retrying: shard panics
// and divergence can stem from environmental faults (and, under chaos
// testing, provably do), while context errors, bad requests, and
// invalid models are deterministic.
func transient(err error) bool {
	if errors.Is(err, guard.ErrCanceled) || errors.Is(err, guard.ErrDeadline) {
		return false
	}
	var se *guard.ShardError
	var de *guard.DivergenceError
	var we *guard.WorkerError
	return errors.As(err, &se) || errors.As(err, &de) || errors.As(err, &we)
}

// breakerWorthy reports whether a failure should charge the model
// path's circuit breaker: inference faults and invalid models do;
// cancellations, deadlines, and bad requests do not.
func breakerWorthy(err error) bool {
	return transient(err) || errors.Is(err, errModelInvalid)
}

// breakerFor returns (creating on first use) the breaker of one model
// key; keys past maxWireKeys share one breaker.
func (s *Server) breakerFor(key string) *Breaker {
	return s.breakers.get(key, func(slot string) *Breaker {
		b := NewBreaker(slot, s.cfg.Breaker)
		b.transitions = s.met.breakerMetrics(slot, b)
		return b
	})
}

// Metrics returns the registry the server's series live in — the
// backing store of GET /metrics.
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// RetryAfter estimates how long a shed client should wait before
// retrying: the time for the current backlog to clear through the
// worker pool — or, with a shared inference plane attached, through
// the plane's warm workers if that is slower — clamped to [1s, 60s].
func (s *Server) RetryAfter() time.Duration {
	avg := s.estimator.average()
	if avg <= 0 {
		avg = time.Second
	}
	backlog := len(s.queue) + int(s.inflight.Load())
	est := avg * time.Duration(backlog+1) / time.Duration(s.cfg.Workers)
	if s.planeStats != nil {
		if depth, sec, size := s.planeStats(); sec > 0 && size >= 1 {
			// Model-bound load clears through the plane: depth pending
			// device calls drain in ~depth/avgBatchSize flushes of
			// avgBatchSec each (+1 for the retrying client's own work).
			flushes := float64(depth)/size + 1
			if p := time.Duration(flushes * sec * float64(time.Second)); p > est {
				est = p
			}
		}
	}
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est.Round(time.Second)
}

// Draining reports whether the server has begun shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the server down: it stops admitting new jobs
// (readiness goes false, /simulate answers 503), waits for every
// already-admitted job — queued and in-flight — to finish, then stops
// the workers. If ctx expires first, remaining workers are stopped
// anyway and still-queued jobs end rejected with ErrDraining; the error
// is then ctx's. Drain is idempotent; concurrent calls all wait.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	if s.store != nil {
		// Durable mode: interrupt every admitted job now. Each running
		// engine stops within one device inference and returns
		// guard.ErrCanceled; record sees draining and marks the record
		// interrupted, so the next process re-runs it — all inside the
		// drain budget instead of waiting out long runs.
		s.activeMu.Lock()
		cancels := make([]context.CancelFunc, 0, len(s.active))
		for _, cancel := range s.active {
			cancels = append(cancels, cancel)
		}
		s.activeMu.Unlock()
		for _, cancel := range cancels {
			cancel()
		}
	}
	done := make(chan struct{})
	go func() {
		defer func() {
			if we := guard.RecoveredWorker(0, recover()); we != nil {
				s.met.panics.Inc() // keep the drain waiter from killing the process
			}
		}()
		s.jobWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.drainOnce.Do(func() { close(s.closed) })
sweep:
	for err != nil {
		// Timed out: whatever is still queued never ran. Settle it so
		// submitters unblock; a durable record stays recoverable for the
		// next process.
		select {
		case j := <-s.queue:
			s.settle(j, plan{}, nil, ErrDraining)
			s.jobWG.Done()
		default:
			break sweep
		}
	}
	s.wg.Wait()
	return err
}

// Stats is the observable server state (/stats payload).
type Stats struct {
	Received  uint64 `json:"received"`          // simulate requests seen
	Accepted  uint64 `json:"accepted"`          // admitted into the queue
	Completed uint64 `json:"completed"`         // finished successfully (incl. degraded)
	Failed    uint64 `json:"failed"`            // finished with a non-context error
	Shed      uint64 `json:"shed"`              // refused with 429 (queue full)
	Rejected  uint64 `json:"rejected"`          // refused with 503 (draining)
	Retries   uint64 `json:"retries"`           // transient-failure re-executions
	Canceled  uint64 `json:"canceled"`          // ended by cancellation
	Deadline  uint64 `json:"deadline_exceeded"` // ended by deadline
	Degraded  uint64 `json:"degraded"`          // rerouted down the ladder by an open breaker
	Brownouts uint64 `json:"brownouts"`         // answered below exact fidelity under pressure
	Panics    uint64 `json:"panics"`            // recovered runner and goroutine panics
	InFlight  int64  `json:"in_flight"`
	Queued    int    `json:"queued"`
	Workers   int    `json:"workers"`
	Queue     int    `json:"queue_depth"`
	Draining  bool   `json:"draining"`
	// Fidelity counts completed requests by degradation-ladder tier;
	// the three values sum to Completed. BrownoutEnabled mirrors
	// Config.Brownout so orchestrators can tell "will answer at reduced
	// fidelity" from "will shed".
	Fidelity        map[string]uint64 `json:"fidelity"`
	BrownoutEnabled bool              `json:"brownout_enabled"`
	AvgRunMs        float64           `json:"avg_run_ms"`
	Breakers        []BreakerStats    `json:"breakers,omitempty"`
}

// Snapshot reads the counter handles GET /metrics renders.
func (s *Server) Snapshot() Stats {
	m := s.met
	st := Stats{
		Received:        m.received.Value(),
		Accepted:        m.accepted.Value(),
		Completed:       m.outcomes["completed"].Value(),
		Failed:          m.outcomes["failed"].Value(),
		Shed:            m.outcomes["shed"].Value(),
		Rejected:        m.outcomes["rejected"].Value(),
		Retries:         m.retries.Value(),
		Canceled:        m.outcomes["canceled"].Value(),
		Deadline:        m.outcomes["deadline"].Value(),
		Degraded:        m.degraded.Value(),
		Brownouts:       m.brownouts.Value(),
		Panics:          m.panics.Value(),
		InFlight:        s.inflight.Load(),
		Queued:          len(s.queue),
		Workers:         s.cfg.Workers,
		Queue:           s.cfg.QueueDepth,
		Draining:        s.draining.Load(),
		Fidelity:        make(map[string]uint64, len(m.fidelity)),
		BrownoutEnabled: s.cfg.Brownout,
		AvgRunMs:        float64(s.estimator.average()) / float64(time.Millisecond),
	}
	for tier, c := range m.fidelity {
		st.Fidelity[tier] = c.Value()
	}
	for _, b := range s.breakers.values() {
		st.Breakers = append(st.Breakers, b.Stats())
	}
	slices.SortFunc(st.Breakers, func(a, b BreakerStats) int { return strings.Compare(a.Path, b.Path) })
	return st
}

// Job loads a durable job's record by ID. It returns an error when the
// server is not durable, the ID is malformed, or no such record exists.
func (s *Server) Job(id string) (*JobRecord, error) {
	if s.store == nil {
		return nil, errors.New("serve: server has no state directory")
	}
	if !validJobID(id) {
		return nil, fmt.Errorf("%w: malformed job id", ErrBadRequest)
	}
	return s.store.get(id)
}

// OpenBreakers counts model keys whose breaker is currently open —
// the number of model identities being answered at reduced fidelity.
func (s *Server) OpenBreakers() int {
	n := 0
	for _, b := range s.breakers.values() {
		if b.State() == BreakerOpen {
			n++
		}
	}
	return n
}

// BreakerFor exposes the breaker a request for this model key would
// meet, for tests and operational tooling (nil when no request has
// created it yet).
func (s *Server) BreakerFor(key string) *Breaker {
	b, _ := s.breakers.lookup(key)
	return b
}

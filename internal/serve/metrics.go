package serve

import (
	"strconv"
	"sync"

	"deepqueuenet/internal/obs"
)

// jobOutcomes are the terminal dispositions of a received request.
// Server.account increments exactly one per request, so
// dqn_requests_received_total == Σ dqn_requests_total{outcome=*} at
// every quiescent point.
var jobOutcomes = []string{"completed", "failed", "shed", "rejected", "canceled", "deadline"}

// fidelityTiers are the degradation-ladder rungs. Server.account counts
// a completed request under the one tier that answered it, so
// Σ dqn_fidelity_total{tier=*} == dqn_requests_total{outcome="completed"}.
var fidelityTiers = []string{"exact", "analytic"}

// serverMetrics holds the serve layer's pre-registered metric handles —
// the server's only event counts: /stats (Server.Snapshot) reads these
// same handles, so it cannot disagree with /metrics. Everything on the
// job path is a pre-created atomic handle: no registry lock, no
// allocation.
type serverMetrics struct {
	reg *obs.Registry

	received  *obs.Counter
	accepted  *obs.Counter
	outcomes  map[string]*obs.Counter
	fidelity  map[string]*obs.Counter
	degraded  *obs.Counter
	brownouts *obs.Counter
	retries   *obs.Counter
	panics    *obs.Counter

	// Durable-job lifecycle: drain interruptions that left a recoverable
	// record, parked dead letters, and recovered jobs a restarted server
	// re-enqueued.
	interrupted *obs.Counter
	parked      *obs.Counter
	recovered   *obs.Counter

	jobSeconds *obs.Histogram

	httpMu   sync.Mutex
	httpReqs map[string]*obs.Counter // keyed path + "\x00" + code
}

// jobBuckets cover the serve job latency range: sub-millisecond cache
// hits through multi-second saturated runs.
var jobBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// newServerMetrics registers the serve metric families in reg.
func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{
		reg:      reg,
		received: reg.Counter("dqn_requests_received_total", "simulate requests seen at admission"),
		accepted: reg.Counter("dqn_requests_accepted_total", "requests admitted into the queue"),
		outcomes: make(map[string]*obs.Counter, len(jobOutcomes)),
		fidelity: make(map[string]*obs.Counter, len(fidelityTiers)),
		degraded: reg.Counter("dqn_degraded_total", "jobs rerouted down the degradation ladder by an open breaker"),
		brownouts: reg.Counter("dqn_brownouts_total",
			"requests answered below exact fidelity under deadline or overload pressure"),
		retries: reg.Counter("dqn_retries_total", "transient-failure re-executions"),
		panics:  reg.Counter("dqn_panics_total", "worker-level recovered panics"),
		interrupted: reg.Counter("dqn_jobs_interrupted_total",
			"jobs interrupted by a drain with a recoverable durable record"),
		parked: reg.Counter("dqn_jobs_parked_total",
			"jobs parked as dead letters after breaker-worthy failures"),
		recovered: reg.Counter("dqn_jobs_recovered_total",
			"recoverable jobs re-enqueued at server start"),
		jobSeconds: reg.Histogram("dqn_job_seconds",
			"wall time per executed job (admission to finish, including retries)", jobBuckets),
		httpReqs: make(map[string]*obs.Counter),
	}
	for _, o := range jobOutcomes {
		m.outcomes[o] = reg.Counter("dqn_requests_total",
			"terminal request dispositions; sums to dqn_requests_received_total", obs.L("outcome", o))
	}
	for _, tier := range fidelityTiers {
		m.fidelity[tier] = reg.Counter("dqn_fidelity_total",
			"completed requests by degradation-ladder tier; sums to dqn_requests_total{outcome=completed}",
			obs.L("tier", tier))
	}
	flag := func(on bool) float64 {
		if on {
			return 1
		}
		return 0
	}
	reg.GaugeFunc("dqn_brownout_enabled", "1 while deadline/overload brownout is configured on",
		func() float64 { return flag(s.cfg.Brownout) })
	reg.GaugeFunc("dqn_queue_depth", "jobs waiting in the admission queue",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("dqn_inflight", "jobs currently executing",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("dqn_draining", "1 while the server is draining",
		func() float64 { return flag(s.draining.Load()) })
	return m
}

// httpRequest counts one finished HTTP exchange by route and status.
func (m *serverMetrics) httpRequest(path string, code int) {
	key := path + "\x00" + strconv.Itoa(code)
	m.httpMu.Lock()
	c, ok := m.httpReqs[key]
	if !ok {
		c = m.reg.Counter("dqn_http_requests_total", "HTTP requests by route and status",
			obs.L("path", path), obs.L("code", strconv.Itoa(code)))
		m.httpReqs[key] = c
	}
	m.httpMu.Unlock()
	c.Inc()
}

// breakerMetrics registers one breaker's series and returns its
// transition counters, indexed by destination state. They are created
// here so that counting a transition, under the breaker's mutex, never
// touches the registry lock. path is a Server.breakers slot key, so the
// label's cardinality is bounded by maxWireKeys (breakers past the
// bound share one breaker, hence one series).
func (m *serverMetrics) breakerMetrics(path string, b *Breaker) [3]*obs.Counter {
	var trans [3]*obs.Counter
	for _, st := range []BreakerState{BreakerClosed, BreakerOpen, BreakerHalfOpen} {
		trans[st] = m.reg.Counter("dqn_breaker_transitions_total",
			"circuit-breaker state transitions by destination state",
			obs.L("path", path), obs.L("to", st.String()))
	}
	m.reg.GaugeFunc("dqn_breaker_state", "breaker position (0 closed, 1 open, 2 half-open)",
		func() float64 { return float64(b.State()) }, obs.L("path", path))
	return trans
}

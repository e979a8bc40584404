package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"deepqueuenet/internal/analytic"
	"deepqueuenet/internal/core"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/metrics"
	"deepqueuenet/internal/obs"
	"deepqueuenet/internal/plane"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/topo"
)

// ErrBadRequest marks a request the server can never execute (unknown
// topology, out-of-range load, unloadable parameters): it maps to HTTP
// 400, is never retried, and never charges the circuit breaker.
var ErrBadRequest = errors.New("serve: bad request")

// badRequestf wraps a descriptive error with ErrBadRequest.
func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadRequest}, args...)...)
}

// errModelInvalid marks an unloadable or structurally invalid device
// model file. Unlike a bad request it charges the circuit breaker of
// its model path: the path is expected to work and repeated failures
// should trip the degraded fallback.
var errModelInvalid = errors.New("serve: device model invalid")

// Request is one what-if simulation query, the JSON body of POST
// /simulate. Zero fields take server-side defaults.
type Request struct {
	// Topo, Sched, Traffic, Load, Duration and Seed are the fields of an
	// experiments.Spec, with its grammar, defaults and bounds; the server
	// adds only its MaxDuration cap.
	Topo     string  `json:"topo"`
	Sched    string  `json:"sched,omitempty"`
	Traffic  string  `json:"traffic,omitempty"`
	Load     float64 `json:"load,omitempty"`
	Duration float64 `json:"duration,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	// Shards is the number of parallel inference shards for this job.
	Shards int `json:"shards,omitempty"`
	// Model is the device-model path this job runs against; "" uses the
	// server's default model. The circuit breaker is keyed on this.
	Model string `json:"model,omitempty"`
	// TimeoutMs bounds the job's wall-clock runtime; 0 uses the server
	// default, and values above the server maximum are clamped.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Fidelity selects the client's position on the degradation ladder:
	//   "exact" — full-fidelity model runs only; a breaker-open or
	//             brownout condition fails the request instead of
	//             answering at reduced fidelity.
	//   "auto"  — (also "") the server may walk the ladder: analytic
	//             answers under deadline pressure or overload, and
	//             when the breaker is open.
	//   "fast"  — answer analytically right away, skipping the queue
	//             and the model entirely (O(µs), no per-packet trace).
	Fidelity string `json:"fidelity,omitempty"`
}

// modelKey is the circuit-breaker identity of the request.
func (r *Request) modelKey() string {
	if r.Model == "" {
		return "default"
	}
	return r.Model
}

// fidelityValid reports whether the request's fidelity field is one of
// the wire-legal values.
func (r *Request) fidelityValid() bool {
	switch r.Fidelity {
	case "", "exact", "auto", "fast":
		return true
	}
	return false
}

// exactOnly reports whether the client opted out of the degradation
// ladder.
func (r *Request) exactOnly() bool { return r.Fidelity == "exact" }

// Result is the JSON payload of a completed simulation job.
type Result struct {
	Scenario   string  `json:"scenario"`
	Deliveries int     `json:"deliveries"`
	Iterations int     `json:"iterations"`
	Bound      int     `json:"bound"`
	MeanRTTUs  float64 `json:"mean_rtt_us"`
	P99RTTUs   float64 `json:"p99_rtt_us"`
	// Mode is "model" for exact PTM-driven runs and "analytic" for the
	// queueing-theory estimate.
	Mode string `json:"mode"`
	// Fidelity is the degradation-ladder tier that produced the answer:
	// "exact" or "analytic" (mirrors X-DQN-Fidelity).
	Fidelity string `json:"fidelity,omitempty"`
	// BreakerOpen reports that an open circuit breaker rerouted this
	// job down the ladder (the X-DQN-Degraded condition).
	BreakerOpen bool `json:"breaker_open,omitempty"`
	// Degraded reports whether any device ran the engine's exact
	// FIFO-serialization fallback because its model failed validation.
	Degraded        bool   `json:"degraded,omitempty"`
	DegradedDevices int    `json:"degraded_devices,omitempty"`
	DegradedReason  string `json:"degraded_reason,omitempty"`
	// Digest is the bit-exact SHA-256 over the delivery trace (the
	// golden-trace scheme) — two runs of the same request agree on it
	// bit for bit, chaos off.
	Digest    string  `json:"digest"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Attempts counts runner executions including retries.
	Attempts int `json:"attempts"`
}

// RunMode is one rung of the degradation ladder, in fidelity order.
type RunMode int

// The ladder, top to bottom.
const (
	// RunExact runs the full float64 device model.
	RunExact RunMode = iota
	// RunAnalytic answers from the queueing-theory decomposition
	// (internal/analytic): O(µs), path statistics only, no trace.
	RunAnalytic
)

// Fidelity is the tier's wire name (X-DQN-Fidelity, dqn_fidelity_total).
func (m RunMode) Fidelity() string {
	switch m {
	case RunExact:
		return "exact"
	case RunAnalytic:
		return "analytic"
	}
	return "unknown"
}

// String implements fmt.Stringer.
func (m RunMode) String() string { return m.Fidelity() }

// Runner executes one admitted simulation job at the requested rung of
// the degradation ladder. Implementations must be goroutine-safe; the
// worker pool calls Run concurrently.
type Runner interface {
	Run(ctx context.Context, req *Request, mode RunMode) (*Result, error)
}

// ScenarioRunner is the production Runner: it materializes requests
// into experiments.Scenario runs against cached PTM models.
type ScenarioRunner struct {
	// DefaultModel serves requests with no model path.
	DefaultModel *ptm.PTM
	// MaxShards caps per-request shard counts. <= 0 uses 8.
	MaxShards int
	// MaxDuration caps the simulated horizon per request (admission
	// control against unboundedly large jobs). <= 0 uses 0.01 s.
	MaxDuration float64
	// WrapDevice, when set, is passed through to core.Config.WrapDevice
	// on every non-degraded run — the chaos-injection seam.
	WrapDevice func(switchID int, m core.DeviceModel) core.DeviceModel
	// Plane, when non-nil, routes every device prediction through the
	// shared cross-request inference plane: the resolved model is
	// wrapped in a plane handle (innermost, below WrapDevice) so all
	// concurrent jobs sharing a model coalesce onto one warm worker.
	Plane *plane.Plane
	// CacheEvictions, when non-nil, counts runner cache entries dropped
	// by the cache bounds (model registry and named topologies).
	CacheEvictions *obs.Counter

	registry modelRegistry

	mu    sync.Mutex
	topos map[string]*namedTopo
}

// maxCachedTopoPairs bounds the topology cache by size as well as by
// count: the cached graphs' summed node-pair count (about 16 bytes per
// pair of routing fabric) is held to what one experiments.MaxTopoNodes
// graph, or maxModelEntries 256-node ones, would need, roughly 64 MiB.
const maxCachedTopoPairs = experiments.MaxTopoNodes * experiments.MaxTopoNodes

// namedTopo is one topology of the request grammar, shared by every
// request that names it: the graph, which carries its own compiled
// routing fabric.
type namedTopo struct {
	g     *topo.Graph
	pairs int // NumNodes()², the unit of maxCachedTopoPairs
}

// entry resolves the warm registry entry for a model path. Cold-start
// loads are singleflighted per path; load failures are not cached, so a
// half-open probe after the model file is fixed must see the fix.
func (r *ScenarioRunner) entry(path string) (*modelEntry, error) {
	if path == "" {
		if r.DefaultModel == nil {
			return nil, badRequestf("no model path given and no default model configured")
		}
		return r.registry.entry("", r.CacheEvictions, func() (*ptm.PTM, error) {
			return r.DefaultModel, nil
		})
	}
	return r.registry.entry(path, r.CacheEvictions, func() (*ptm.PTM, error) {
		m, err := ptm.Load(path)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", errModelInvalid, err)
		}
		return m, nil
	})
}

// deviceWrap composes the per-run device wrapper: the shared plane
// handle innermost, the configured WrapDevice (chaos injection) on top
// — injected faults fire in the submitting shard goroutine, where the
// engine's guard expects them, while the plane's warm worker only ever
// runs the true model.
func (r *ScenarioRunner) deviceWrap(req *Request) func(int, core.DeviceModel) core.DeviceModel {
	user := r.WrapDevice
	pl := r.Plane
	if pl == nil {
		return user
	}
	tag := req.modelKey()
	return func(id int, m core.DeviceModel) core.DeviceModel {
		var d core.DeviceModel = pl.Wrap(m, tag)
		if user != nil {
			d = user(id, d)
		}
		return d
	}
}

// topology resolves a topology name through the runner's cache (the
// request grammar is deterministic: one name, one graph), so a named
// topology is built and compiled for routing once per process rather
// than once per request. TopoByName refuses a name over
// experiments.MaxTopoNodes before it is built. The cache is bounded in
// count like the registry and in size by maxCachedTopoPairs; past either
// bound arbitrary entries are dropped — rebuilding is cheap.
func (r *ScenarioRunner) topology(name string) (*namedTopo, error) {
	r.mu.Lock()
	t := r.topos[name]
	r.mu.Unlock()
	if t != nil {
		return t, nil
	}
	g, err := experiments.TopoByName(name)
	if err != nil {
		return nil, err
	}
	t = &namedTopo{g: g, pairs: g.NumNodes() * g.NumNodes()}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev := r.topos[name]; prev != nil {
		// A concurrent first request won the build; share its graph.
		return prev, nil
	}
	if r.topos == nil {
		r.topos = make(map[string]*namedTopo)
	}
	pairs := t.pairs
	for _, old := range r.topos {
		pairs += old.pairs
	}
	for k, old := range r.topos {
		if len(r.topos) < maxModelEntries && pairs <= maxCachedTopoPairs {
			break
		}
		delete(r.topos, k)
		pairs -= old.pairs
		if r.CacheEvictions != nil {
			r.CacheEvictions.Inc()
		}
	}
	r.topos[name] = t
	return t, nil
}

// scenario builds the scenario a request names over its cached topology:
// the spec holds the names, defaults and bounds, the server adds only its
// MaxDuration cap.
func (r *ScenarioRunner) scenario(req *Request, g *topo.Graph) (*experiments.Scenario, error) {
	spec := experiments.Spec{Topo: req.Topo, Sched: req.Sched, Traffic: req.Traffic,
		Load: req.Load, Duration: req.Duration, Seed: req.Seed}
	sc, err := spec.BuildOn(g)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	maxDur := r.MaxDuration
	if maxDur <= 0 {
		maxDur = 0.01
	}
	if sc.Duration > maxDur {
		return nil, badRequestf("duration %v over the server's %v s cap", sc.Duration, maxDur)
	}
	return sc, nil
}

// Run implements Runner.
func (r *ScenarioRunner) Run(ctx context.Context, req *Request, mode RunMode) (*Result, error) {
	start := time.Now()
	nt, err := r.topology(req.Topo)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	sc, err := r.scenario(req, nt.g)
	if err != nil {
		return nil, err
	}
	if mode == RunAnalytic {
		// The analytic tier never touches the engine or the model: the
		// scenario decomposes into per-port G/G/1 queues and the path
		// statistics come from closed forms. A saturated port surfaces
		// as analytic.ErrUnstable, a 422.
		est, aerr := analytic.FromScenario(sc)
		if aerr != nil {
			return nil, aerr
		}
		return &Result{
			Scenario:  sc.Name,
			Mode:      "analytic",
			Fidelity:  RunAnalytic.Fidelity(),
			MeanRTTUs: est.MeanRTTSec * 1e6,
			P99RTTUs:  est.P99RTTSec * 1e6,
			ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
		}, nil
	}
	maxShards := r.MaxShards
	if maxShards <= 0 {
		maxShards = 8
	}
	shards := req.Shards
	if shards <= 0 {
		shards = 1
	}
	if shards > maxShards {
		shards = maxShards
	}
	ent, err := r.entry(req.Model)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Shards: shards, WrapDevice: r.deviceWrap(req)}
	samples, res, err := sc.RunDQNCfgCtx(ctx, ent.base, cfg)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Scenario:   sc.Name,
		Deliveries: len(res.Deliveries),
		Iterations: res.Iterations,
		Bound:      res.Bound,
		Digest:     Digest(res),
		ElapsedMs:  float64(time.Since(start)) / float64(time.Millisecond),
	}
	out.Mode = "model"
	out.Fidelity = mode.Fidelity()
	if res.Degraded() {
		out.Degraded = true
		out.DegradedDevices = len(res.DegradedDevices)
		out.DegradedReason = res.DegradedReasons[res.DegradedDevices[0]]
	}
	var all []float64
	for _, v := range samples {
		all = append(all, v...)
	}
	if len(all) > 0 {
		out.MeanRTTUs = metrics.Mean(all) * 1e6
		out.P99RTTUs = metrics.Percentile(all, 99) * 1e6
	}
	return out, nil
}

// Digest hashes a result's delivery trace bit-exactly — packet identity
// plus the raw IEEE-754 bits of each send/receive time — with the same
// scheme as the repository's golden-trace tests, so a served run can be
// checked bit-for-bit against a direct engine run.
func Digest(res *core.Result) string {
	h := sha256.New()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, d := range res.Deliveries {
		w(d.PktID)
		w(uint64(d.FlowID))
		if d.IsRTT {
			w(1)
		} else {
			w(0)
		}
		w(math.Float64bits(d.SendTime))
		w(math.Float64bits(d.RecvTime))
	}
	return hex.EncodeToString(h.Sum(nil))
}

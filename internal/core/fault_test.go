package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

// panicModel is a DeviceModel that explodes on first use.
type panicModel struct{}

func (m *panicModel) PredictDevice([]ptm.PortStream, des.SchedKind) {
	panic("mock ptm exploded")
}
func (m *panicModel) CloneModel() DeviceModel { return m }

// inflatingModel doubles its predicted sojourns on every call: a learned
// model destabilizing over the inference horizon. Shared across clones
// (CloneModel returns the receiver) so growth accumulates across
// iterations; use with Shards <= 1.
type inflatingModel struct{ sojourn float64 }

func (m *inflatingModel) PredictDevice(ports []ptm.PortStream, _ des.SchedKind) {
	m.sojourn *= 2
	for i := range ports {
		ps := &ports[i]
		ps.Out = ps.Out[:0]
		for range ps.Stream {
			ps.Out = append(ps.Out, m.sojourn)
		}
	}
}
func (m *inflatingModel) CloneModel() DeviceModel { return m }

// cancelRun is the shared state of one canceled run's device models: the
// first device call cancels the run's context (a cancellation landing
// mid-iteration), every later call records whether the cancel had
// already landed when it began, and as the run's Observer it learns which
// shard inferred each device.
type cancelRun struct {
	ctx    context.Context
	cancel context.CancelFunc
	calls  atomic.Int64

	mu    sync.Mutex
	late  []int       // devices whose call began after the cancel
	shard map[int]int // device → the shard that inferred it
}

func (r *cancelRun) ObserveIteration(IterationEvent) {}

func (r *cancelRun) ObserveInference(ev InferenceEvent) {
	r.mu.Lock()
	r.shard[ev.Device] = ev.Shard
	r.mu.Unlock()
}

// cancelingModel is one switch's device model under a cancelRun; each
// call is one device inference.
type cancelingModel struct {
	run *cancelRun
	dev int
}

func (m *cancelingModel) PredictDevice(ports []ptm.PortStream, _ des.SchedKind) {
	r := m.run
	if r.ctx.Err() != nil {
		r.mu.Lock()
		r.late = append(r.late, m.dev)
		r.mu.Unlock()
	}
	if r.calls.Add(1) == 1 {
		r.cancel()
	}
	fillTransmission(ports)
}
func (m *cancelingModel) CloneModel() DeviceModel { return m }

// fillTransmission predicts every packet's bare transmission time, the
// sojourn of a queue that is always empty.
func fillTransmission(ports []ptm.PortStream) {
	for i := range ports {
		ps := &ports[i]
		ps.Out = ps.Out[:0]
		for _, p := range ps.Stream {
			ps.Out = append(ps.Out, float64(p.Size*8)/ps.RateBps)
		}
	}
}

// nanModel returns a valid-looking tinyModel poisoned with a NaN weight.
func nanModel(ports int) *ptm.PTM {
	m := tinyModel(ports)
	m.Net.Params()[0].W.Data[0] = math.NaN()
	return m
}

func addTestFlow(sim *Sim, hosts []int) {
	sim.AddFlow(FlowSpec{FlowID: 1, Src: hosts[0], Dst: hosts[2],
		Gen: traffic.NewReplay([]float64{1e-6, 1e-6, 1e-6, 1e-6}, []int{100, 200, 100, 200}, true)})
}

func TestShardPanicIsolated(t *testing.T) {
	bad := &panicModel{}
	victim := -1
	sim, hosts := lineSim(t, Config{
		Sched: des.SchedConfig{Kind: des.FIFO},
		WrapDevice: func(sw int, m DeviceModel) DeviceModel {
			if victim < 0 {
				victim = sw // first switch wrapped becomes the victim
			}
			if sw == victim {
				return bad
			}
			return m
		},
	})
	addTestFlow(sim, hosts)
	res, err := sim.Run(0.001)
	if err == nil {
		t.Fatal("panicking device model must surface as an error")
	}
	var se *guard.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("want *guard.ShardError, got %T: %v", err, err)
	}
	if se.Device != victim {
		t.Fatalf("ShardError device %d, want %d", se.Device, victim)
	}
	if se.Panic == nil || len(se.Stack) == 0 {
		t.Fatalf("ShardError missing diagnostics: %+v", se)
	}
	if res == nil {
		t.Fatal("partial result must accompany the shard error")
	}
}

// TestCancellationStopsWithinOneIteration pins RunContext's cancellation
// latency at both grains: the run ends inside the iteration the cancel
// lands in, and within it every shard starts at most one further device
// inference — the one that may already have been past its context poll.
// Eight switches over two shards leave each shard several devices that
// would still run if the per-device poll were lost.
func TestCancellationStopsWithinOneIteration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := &cancelRun{ctx: ctx, cancel: cancel, shard: map[int]int{}}
	g := topo.Line(8, topo.DefaultLAN)
	hosts := g.Hosts()
	rt, err := g.Route([]topo.FlowDef{{FlowID: 1, Src: hosts[0], Dst: hosts[7]}})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(g, rt, Config{
		Sched:      des.SchedConfig{Kind: des.FIFO},
		Shards:     2,
		Model:      tinyModel(4),
		Observer:   run,
		WrapDevice: func(sw int, _ DeviceModel) DeviceModel { return &cancelingModel{run: run, dev: sw} },
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.AddFlow(FlowSpec{FlowID: 1, Src: hosts[0], Dst: hosts[7],
		Gen: traffic.NewReplay([]float64{1e-6, 1e-6, 1e-6, 1e-6}, []int{100, 200, 100, 200}, true)})
	res, err := sim.RunContext(ctx, 0.001)
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("want guard.ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("underlying context error lost: %v", err)
	}
	if res == nil {
		t.Fatal("canceled run must return the partial result")
	}
	if res.Iterations > 2 {
		t.Fatalf("cancel mid-iteration 0 ran %d iterations, want <= 2 of %d", res.Iterations, res.Bound)
	}
	late := map[int]int{} // shard → device calls begun after the cancel
	for _, d := range run.late {
		late[run.shard[d]]++
	}
	for si, n := range late {
		if n > 1 {
			t.Errorf("shard %d started %d device inferences after the cancel, want at most 1 (late devices %v)", si, n, run.late)
		}
	}
}

func TestDeadlineBeforeStart(t *testing.T) {
	//dqnlint:allow detguard test fixture: an already-expired wall-clock deadline; simulated time is untouched
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	sim, hosts := lineSim(t, Config{Sched: des.SchedConfig{Kind: des.FIFO}})
	addTestFlow(sim, hosts)
	_, err := sim.RunContext(ctx, 0.001)
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("want guard.ErrDeadline, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("underlying deadline error lost: %v", err)
	}
}

// TestDivergenceWatchdogTrips runs line8 with echo legs, whose
// Theorem 3.1 bound leaves room for guard.DefaultPatience growth steps.
func TestDivergenceWatchdogTrips(t *testing.T) {
	m := &inflatingModel{sojourn: 1e-6}
	sim := line8Sim(t, Config{
		Sched:      des.SchedConfig{Kind: des.FIFO},
		Echo:       true,
		Damping:    1, // undamped: let the inflation feed straight through
		WrapDevice: func(int, DeviceModel) DeviceModel { return m },
	})
	res, err := sim.Run(0.001)
	var de *guard.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("want *guard.DivergenceError, got %v (res iters %v)", err, res)
	}
	if len(de.Trace) == 0 {
		t.Fatal("DivergenceError must carry the delta trace")
	}
	if res.Bound <= guard.DefaultPatience || res.Iterations >= res.Bound {
		t.Fatalf("watchdog must abort before the bound, ran %d of %d", res.Iterations, res.Bound)
	}
	for _, d := range de.Trace {
		if math.IsNaN(d) {
			return // NaN abort is fine too
		}
	}
	last := de.Trace[len(de.Trace)-1]
	if last <= de.Trace[0] {
		t.Fatalf("trace should show growth: %v", de.Trace)
	}
}

func TestNaNSojournTripsWatchdog(t *testing.T) {
	nan := &inflatingModel{sojourn: math.NaN()}
	sim, hosts := lineSim(t, Config{
		Sched:      des.SchedConfig{Kind: des.FIFO},
		WrapDevice: func(int, DeviceModel) DeviceModel { return nan },
	})
	addTestFlow(sim, hosts)
	_, err := sim.Run(0.001)
	var de *guard.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("NaN sojourns must trip the watchdog, got %v", err)
	}
	if !strings.Contains(de.Reason, "non-finite") {
		t.Fatalf("reason should flag the non-finite delta: %q", de.Reason)
	}
}

// TestInvalidModelDegradesDevice: a model that fails validation
// degrades every switch, each with the validation failure as its
// reason, and the run still completes on the FIFO fallback.
func TestInvalidModelDegradesDevice(t *testing.T) {
	sim, hosts := lineSim(t, Config{Sched: des.SchedConfig{Kind: des.FIFO}, Model: nanModel(4)})
	addTestFlow(sim, hosts)
	res, err := sim.Run(0.001)
	if err != nil {
		t.Fatalf("an invalid PTM must degrade, not fail: %v", err)
	}
	if switches := sim.G.Switches(); len(res.DegradedDevices) != len(switches) {
		t.Fatalf("degraded set %v, want every switch %v", res.DegradedDevices, switches)
	}
	for _, d := range res.DegradedDevices {
		if !strings.Contains(res.DegradedReasons[d], "non-finite") {
			t.Fatalf("reason should name the validation failure: %q", res.DegradedReasons[d])
		}
	}
	if len(res.Deliveries) == 0 {
		t.Fatal("degraded run must still deliver packets")
	}
	for _, d := range res.Deliveries {
		if math.IsNaN(d.RecvTime) || math.IsInf(d.RecvTime, 0) {
			t.Fatalf("degraded run produced non-finite delivery: %+v", d)
		}
	}
}

// TestMissingModelDegradesDevice: a wrapper that returns no model for
// some switches degrades exactly those.
func TestMissingModelDegradesDevice(t *testing.T) {
	covered := -1
	sim, hosts := lineSim(t, Config{
		Sched: des.SchedConfig{Kind: des.FIFO},
		WrapDevice: func(sw int, m DeviceModel) DeviceModel {
			if covered < 0 {
				covered = sw
			}
			if sw == covered {
				return m
			}
			return nil // every other switch has no model at all
		},
	})
	addTestFlow(sim, hosts)
	res, err := sim.Run(0.001)
	if err != nil {
		t.Fatalf("missing per-device models must degrade, not fail: %v", err)
	}
	if len(res.DegradedDevices) != 2 {
		t.Fatalf("degraded set %v, want the 2 uncovered switches", res.DegradedDevices)
	}
	for _, d := range res.DegradedDevices {
		if d == covered {
			t.Fatalf("covered switch %d wrongly degraded (%v)", covered, res.DegradedReasons)
		}
	}
}

func TestZeroRateLinkRejectedAtNewSim(t *testing.T) {
	g := topo.New()
	s0 := g.AddNode(topo.Switch, "s0")
	s1 := g.AddNode(topo.Switch, "s1")
	h0 := g.AddNode(topo.Host, "h0")
	h1 := g.AddNode(topo.Host, "h1")
	g.Connect(h0, s0, topo.DefaultLAN.RateBps, topo.DefaultLAN.Delay)
	g.Connect(s0, s1, 0, topo.DefaultLAN.Delay) // the broken link
	g.Connect(s1, h1, topo.DefaultLAN.RateBps, topo.DefaultLAN.Delay)
	rt := &topo.Routing{}
	_, err := NewSim(g, rt, Config{Model: tinyModel(4)})
	if err == nil {
		t.Fatal("zero-rate link must be rejected at NewSim")
	}
	if !strings.Contains(err.Error(), "rate must be positive") {
		t.Fatalf("error should explain the zero-rate link: %v", err)
	}
}

func TestCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim, hosts := lineSim(t, Config{Sched: des.SchedConfig{Kind: des.FIFO}})
	addTestFlow(sim, hosts)
	res, err := sim.RunContext(ctx, 0.001)
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("want guard.ErrCanceled, got %v", err)
	}
	if res == nil {
		t.Fatal("even a pre-start cancel returns a non-nil (empty) result")
	}
	if len(res.Deliveries) != 0 || res.Iterations != 0 {
		t.Fatalf("pre-start cancel must return an empty result, got %d deliveries, %d iterations",
			len(res.Deliveries), res.Iterations)
	}
}

func TestDeterministicDeliveryOrder(t *testing.T) {
	run := func() *Result {
		sim, hosts := lineSim(t, Config{Sched: des.SchedConfig{Kind: des.FIFO}, Echo: true, Shards: 4})
		// Two flows with identical timing force RecvTime ties.
		sim.AddFlow(FlowSpec{FlowID: 1, Src: hosts[0], Dst: hosts[2],
			Gen: traffic.NewReplay([]float64{1e-6, 1e-6, 1e-6}, []int{100, 100, 100}, true)})
		res, err := sim.Run(0.001)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Deliveries) != len(b.Deliveries) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a.Deliveries), len(b.Deliveries))
	}
	for i := range a.Deliveries {
		if a.Deliveries[i] != b.Deliveries[i] {
			t.Fatalf("delivery %d differs between identical runs:\n%+v\n%+v",
				i, a.Deliveries[i], b.Deliveries[i])
		}
	}
}

// TestPropagateFlagsNaNOnFinalHop pins the watchdog evasion fix: a NaN
// sojourn on a packet's FINAL hop never re-enters any arrival estimate
// (the loop adds it after the last comparison), so propagate must flag
// the non-finite departure time itself — otherwise damping keeps the
// hop poisoned forever and the NaN sails into the delivered trace while
// the run "succeeds" at the iteration bound.
func TestPropagateFlagsNaNOnFinalHop(t *testing.T) {
	mk := func(lastSojourn float64) *packet {
		return &packet{
			create:  0,
			hops:    []hop{{linkDelay: 1e-6}, {linkDelay: 1e-6}},
			arrive:  []float64{0, 2e-6},
			sojourn: []float64{1e-6, lastSojourn},
		}
	}
	if d := propagate([]*packet{mk(1e-6)}); math.IsNaN(d) || math.IsInf(d, 0) {
		t.Fatalf("finite packet produced non-finite delta %v", d)
	}
	if d := propagate([]*packet{mk(math.NaN())}); !math.IsNaN(d) {
		t.Fatalf("NaN final-hop sojourn produced delta %v, want NaN for the watchdog", d)
	}
	if d := propagate([]*packet{mk(math.Inf(1))}); !math.IsInf(d, 1) {
		t.Fatalf("Inf final-hop sojourn produced delta %v, want +Inf for the watchdog", d)
	}
}

package core

import (
	"errors"
	"fmt"
	"slices"
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

// workerCounts are the worker counts the sweep tests run at; an odd one
// drains the device queue unevenly.
var workerCounts = []int{1, 2, 3, 8}

// line8Sim is an eight-switch line with three flows, so devices carry
// different loads and the queue has a heaviest-first order to follow.
func line8Sim(t *testing.T, cfg Config) *Sim {
	t.Helper()
	g := topo.Line(8, topo.DefaultLAN)
	hosts := g.Hosts()
	defs := []topo.FlowDef{{FlowID: 1, Src: hosts[0], Dst: hosts[7]},
		{FlowID: 2, Src: hosts[7], Dst: hosts[0]}, {FlowID: 3, Src: hosts[3], Dst: hosts[5]}}
	rt, err := g.Route(defs)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Model == nil {
		cfg.Model = tinyModel(4)
	}
	sim, err := NewSim(g, rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range defs {
		sim.AddFlow(FlowSpec{FlowID: d.FlowID, Src: d.Src, Dst: d.Dst,
			Gen: traffic.NewReplay([]float64{1e-6, 2e-6, 1e-6}, []int{100 * (i + 1), 300, 200}, true)})
	}
	return sim
}

// sweepLog records which devices each iteration inferred, on which
// workers, and each inference's duration in the order reported.
type sweepLog struct {
	mu      sync.Mutex
	cur     map[int]int // device → inferences in the current iteration
	curDurs []time.Duration
	iters   []map[int]int
	durs    [][]time.Duration
	workers map[int]bool
}

func (l *sweepLog) ObserveIteration(IterationEvent) {
	l.mu.Lock()
	l.iters = append(l.iters, l.cur)
	l.durs = append(l.durs, l.curDurs)
	l.cur, l.curDurs = map[int]int{}, nil
	l.mu.Unlock()
}

func (l *sweepLog) ObserveInference(ev InferenceEvent) {
	l.mu.Lock()
	l.cur[ev.Device]++
	l.curDurs = append(l.curDurs, ev.Duration)
	l.workers[ev.Shard] = true
	l.mu.Unlock()
}

// TestSweepInfersEveryDeviceOnce: at every worker count each iteration
// infers every device exactly once, on a worker inside [0, Shards).
// The measure cases are Table 7's measurement: a Shards-1 run's
// inference durations, replayed sweep by sweep onto that many workers
// (ReplaySweep), keep every sweep's total and put work on every worker.
func TestSweepInfersEveryDeviceOnce(t *testing.T) {
	for _, measure := range []bool{false, true} {
		for _, shards := range workerCounts {
			t.Run(fmt.Sprintf("shards=%d/measure=%v", shards, measure), func(t *testing.T) {
				log := &sweepLog{cur: map[int]int{}, workers: map[int]bool{}}
				runShards := shards
				if measure {
					runShards = 1
				}
				sim := line8Sim(t, Config{Sched: des.SchedConfig{Kind: des.FIFO}, Echo: true,
					Shards: runShards, Observer: log})
				res, err := sim.Run(0.0002)
				if err != nil {
					t.Fatal(err)
				}
				if len(log.iters) != res.Iterations || res.Iterations == 0 {
					t.Fatalf("observed %d iterations, engine reports %d", len(log.iters), res.Iterations)
				}
				for it, seen := range log.iters {
					if len(seen) != len(res.DeviceVisits) {
						t.Errorf("iteration %d inferred %d devices, the run has %d", it, len(seen), len(res.DeviceVisits))
					}
					for d := range res.DeviceVisits {
						if seen[d] != 1 {
							t.Errorf("iteration %d inferred device %d %d times", it, d, seen[d])
						}
					}
				}
				for w := range log.workers {
					if w < 0 || w >= runShards {
						t.Errorf("inference reported on worker %d of %d", w, runShards)
					}
				}
				if measure {
					// More devices than workers: least-time-first reaches
					// every worker in every sweep.
					for it, durs := range log.durs {
						var total, replayed time.Duration
						for _, d := range durs {
							total += d
						}
						slots := ReplaySweep(durs, shards)
						for i, w := range slots {
							replayed += w
							if w <= 0 {
								t.Errorf("iteration %d: worker %d of %d got no work: %v", it, i, shards, slots)
							}
						}
						if replayed != total {
							t.Errorf("iteration %d: replay holds %v of the sweep's %v", it, replayed, total)
						}
					}
				}
			})
		}
	}
}

// failRun is the shared state of a run whose first device call panics.
// Every later call blocks until the engine has recorded that failure:
// the engine marks a failed device before it reports the device to the
// observer, and the victim's report releases the blocked calls. A
// worker holding a blocked device may thus finish it, but then must
// not pull another.
type failRun struct {
	calls   atomic.Int64
	victim  atomic.Int64
	release chan struct{}
	once    sync.Once

	mu       sync.Mutex
	byWorker map[int]int // worker → devices it reported
	stuck    bool        // a blocked call timed out: the failure was never reported
}

func (r *failRun) ObserveIteration(IterationEvent) {}

func (r *failRun) ObserveInference(ev InferenceEvent) {
	r.mu.Lock()
	r.byWorker[ev.Shard]++
	r.mu.Unlock()
	if int64(ev.Device) == r.victim.Load() {
		r.once.Do(func() { close(r.release) })
	}
}

type failingModel struct {
	run *failRun
	dev int
}

func (m *failingModel) PredictDevice(ports []ptm.PortStream, _ des.SchedKind) {
	r := m.run
	if r.calls.Add(1) == 1 {
		r.victim.Store(int64(m.dev))
		panic("first device call exploded")
	}
	select {
	case <-r.release:
	case <-time.After(10 * time.Second):
		r.mu.Lock()
		r.stuck = true
		r.mu.Unlock()
	}
	fillTransmission(ports)
}
func (m *failingModel) CloneModel() DeviceModel { return m }

// TestFailedDeviceStopsTheSweep: once a device's panic is recorded, no
// worker pulls another device in that sweep. Each worker reports at
// most the one device it held when the failure landed, and only the
// victim's call runs besides the calls that were already blocked.
func TestFailedDeviceStopsTheSweep(t *testing.T) {
	for _, shards := range workerCounts[1:] {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			run := &failRun{release: make(chan struct{}), byWorker: map[int]int{}}
			run.victim.Store(-1)
			sim := line8Sim(t, Config{Sched: des.SchedConfig{Kind: des.FIFO}, Shards: shards, Observer: run,
				WrapDevice: func(sw int, _ DeviceModel) DeviceModel { return &failingModel{run: run, dev: sw} }})
			_, err := sim.Run(0.001)
			var se *guard.ShardError
			if !errors.As(err, &se) {
				t.Fatalf("want *guard.ShardError, got %v", err)
			}
			if int64(se.Device) != run.victim.Load() {
				t.Fatalf("ShardError names device %d, the victim is %d", se.Device, run.victim.Load())
			}
			if run.stuck {
				t.Fatal("a blocked device call was never released")
			}
			for w, n := range run.byWorker {
				if n > 1 {
					t.Errorf("worker %d inferred %d devices in the failing sweep, want at most 1", w, n)
				}
			}
			if n := run.calls.Load(); n > int64(shards) {
				t.Errorf("%d device calls began in the failing sweep with %d workers", n, shards)
			}
		})
	}
}

// TestReplaySweep pins the replay on hand-made durations: each device,
// in queue order, goes to the worker with the least time so far, ties
// to the lower index.
func TestReplaySweep(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for i, x := range v {
			out[i] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	for _, c := range []struct {
		durs []time.Duration
		n    int
		want []time.Duration
	}{
		{ms(), 2, ms(0, 0)},
		{ms(5, 3, 2), 1, ms(10)},
		// 5→w0, 3→w1, 2→w1 (3 < 5), then 4 on the 5/5 tie → w0.
		{ms(5, 3, 2, 4), 2, ms(9, 5)},
		{ms(4, 4, 4, 4), 4, ms(4, 4, 4, 4)},
		// More workers than devices: the rest stay idle.
		{ms(7, 1), 4, ms(7, 1, 0, 0)},
		// Heaviest first keeps the critical path at the longest device.
		{ms(8, 3, 3, 2), 2, ms(8, 8)},
		{ms(1, 1, 1, 6), 3, ms(7, 1, 1)},
	} {
		if got := ReplaySweep(c.durs, c.n); !slices.Equal(got, c.want) {
			t.Errorf("ReplaySweep(%v, %d) = %v, want %v", c.durs, c.n, got, c.want)
		}
	}
}

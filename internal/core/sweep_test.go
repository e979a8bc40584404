package core

import (
	"errors"
	"fmt"
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

// sweepLog records which devices each iteration inferred, and on which
// workers.
type sweepLog struct {
	mu      sync.Mutex
	cur     map[int]int // device → inferences in the current iteration
	iters   []map[int]int
	workers map[int]bool
}

func (l *sweepLog) ObserveIteration(IterationEvent) {
	l.mu.Lock()
	l.iters = append(l.iters, l.cur)
	l.cur = map[int]int{}
	l.mu.Unlock()
}

func (l *sweepLog) ObserveInference(ev InferenceEvent) {
	l.mu.Lock()
	l.cur[ev.Device]++
	l.workers[ev.Shard] = true
	l.mu.Unlock()
}

// TestSweepInfersEveryDeviceOnce: at every worker count, and in the
// sequential MeasureShards schedule, each iteration infers every
// device exactly once, on a worker inside [0, Shards); the measured
// schedule puts work on every slot.
func TestSweepInfersEveryDeviceOnce(t *testing.T) {
	for _, measure := range []bool{false, true} {
		for _, shards := range workerCounts {
			t.Run(fmt.Sprintf("shards=%d/measure=%v", shards, measure), func(t *testing.T) {
				log := &sweepLog{cur: map[int]int{}, workers: map[int]bool{}}
				sim := line8Sim(t, Config{Sched: des.SchedConfig{Kind: des.FIFO}, Echo: true,
					Shards: shards, MeasureShards: measure, Observer: log})
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
					if w < 0 || w >= shards {
						t.Errorf("inference reported on worker %d of %d", w, shards)
					}
				}
				if measure {
					// More devices than slots: least-time-first reaches
					// every slot in the first sweep.
					if len(res.ShardWork) != shards {
						t.Fatalf("ShardWork has %d slots, want %d", len(res.ShardWork), shards)
					}
					for i, w := range res.ShardWork {
						if w <= 0 {
							t.Errorf("slot %d of %d got no work: %v", i, shards, res.ShardWork)
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
func (m *failingModel) Ports() int              { return 0 }
func (m *failingModel) Validate() error         { return nil }

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
				DeviceFor: func(sw int) DeviceModel { return &failingModel{run: run, dev: sw} }})
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

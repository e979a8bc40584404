package plane

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"deepqueuenet/internal/core"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/obs"
	"deepqueuenet/internal/ptm"
)

// fakeModel is a comparable DeviceModel test double. gate, when non-nil,
// blocks the first PredictDevice call until released — used to force
// submissions to queue behind a busy worker.
type fakeModel struct {
	mu    sync.Mutex
	calls int
	gate  chan struct{}
	panik bool
}

func (f *fakeModel) PredictDevice(ports []ptm.PortStream, _ des.SchedKind) {
	f.mu.Lock()
	f.calls++
	first := f.calls == 1
	f.mu.Unlock()
	if first && f.gate != nil {
		<-f.gate
	}
	if f.panik {
		panic("injected model fault")
	}
	for i := range ports {
		ps := &ports[i]
		ps.Out = ps.Out[:0]
		for j := range ps.Stream {
			ps.Out = append(ps.Out, float64(j))
		}
	}
}

func (f *fakeModel) CloneModel() core.DeviceModel { return f }

func onePort(n int) []ptm.PortStream {
	stream := make([]ptm.PacketIn, n)
	for i := range stream {
		stream[i] = ptm.PacketIn{Arrive: float64(i) * 1e-6, Size: 100, Weight: 1}
	}
	return []ptm.PortStream{{Stream: stream, RateBps: 1e9}}
}

// TestFlushOnSize pins the size trigger: with the worker wedged on its
// first call, MaxBatch further submissions queue up and flush as one
// full micro-batch with reason "size".
func TestFlushOnSize(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	fm := &fakeModel{gate: make(chan struct{})}
	p := New(Config{MaxBatch: 4, Metrics: m})
	defer p.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // wedges the worker inside its first flush
		defer func() {
			if we := guard.RecoveredWorker(0, recover()); we != nil {
				t.Error(we)
			}
			wg.Done()
		}()
		p.Predict(fm, onePort(3), des.FIFO, "first")
	}()
	for fm.callCount() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	for i := 0; i < 4; i++ { // queue exactly MaxBatch calls behind it
		wg.Add(1)
		go func(i int) {
			defer func() {
				if we := guard.RecoveredWorker(i, recover()); we != nil {
					t.Error(we)
				}
				wg.Done()
			}()
			p.Predict(fm, onePort(2+i), des.FIFO, "queued")
		}(i)
	}
	for p.Depth() < 5 {
		time.Sleep(50 * time.Microsecond)
	}
	close(fm.gate)
	wg.Wait()

	if got := m.Flushes["size"].Value(); got != 1 {
		t.Fatalf("size flushes = %d, want 1", got)
	}
	if got := m.Flushes["drain"].Value(); got != 1 {
		t.Fatalf("drain flushes = %d, want 1 (the wedged first call)", got)
	}
	if got := m.Coalesced.Value(); got != 4 {
		t.Fatalf("coalesced calls = %d, want 4", got)
	}
	if got := m.Calls.Value(); got != 5 {
		t.Fatalf("total calls = %d, want 5", got)
	}
}

func (f *fakeModel) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// TestFlushOnDrain pins natural batching: a lone call on an idle plane
// flushes at once, attributed to "drain", and the reason label has no
// other value than drain and size.
func TestFlushOnDrain(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	p := New(Config{MaxBatch: 8, Metrics: m})
	p.Predict(&fakeModel{}, onePort(3), des.FIFO, "lone")
	p.Close()
	if got := m.Flushes["drain"].Value(); got != 1 {
		t.Fatalf("drain flushes = %d, want 1", got)
	}
	if len(m.Flushes) != 2 || m.Flushes["size"] == nil {
		t.Fatalf("flush reasons = %v, want exactly drain and size", m.Flushes)
	}
}

// TestAttributionIsolation hammers one shared worker from many
// concurrent "jobs" with distinct streams and verifies every submitter
// gets back exactly the bits a private clone would have produced — no
// cross-request result bleed.
func TestAttributionIsolation(t *testing.T) {
	arch := ptm.Arch{TimeSteps: 8, Margin: 2, Embed: 4, BLSTM1: 4, BLSTM2: 4, Heads: 1, DK: 2, DV: 2, HeadOut: 4}
	pm, err := ptm.Synthetic(arch, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := core.PTMModel{PTM: pm}
	p := New(Config{MaxBatch: 8})
	defer p.Close()

	const jobs, callsPerJob = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer func() {
				if we := guard.RecoveredWorker(j, recover()); we != nil {
					t.Error(we)
				}
				wg.Done()
			}()
			ref := pm.Clone() // private per-stream reference model
			for k := 0; k < callsPerJob; k++ {
				n := 3 + (j+k)%5
				stream := make([]ptm.PacketIn, n)
				for i := range stream {
					stream[i] = ptm.PacketIn{
						Arrive: float64(i)*1e-6 + float64(j)*1e-8 + float64(k)*1e-9,
						Size:   64 + 17*j + i, InPort: j % 4, Weight: 1,
					}
				}
				want := ref.PredictStream(append([]ptm.PacketIn(nil), stream...), des.FIFO, 1e9, 1)
				ports := []ptm.PortStream{{Stream: stream, RateBps: 1e9}}
				p.Predict(key, ports, des.FIFO, fmt.Sprintf("job-%d", j))
				got := ports[0].Out
				if len(got) != len(want) {
					errs <- fmt.Errorf("job %d call %d: len %d want %d", j, k, len(got), len(want))
					return
				}
				for i := range got {
					if got[i] != want[i] {
						errs <- fmt.Errorf("job %d call %d idx %d: got %v want %v (bits differ)", j, k, i, got[i], want[i])
						return
					}
				}
			}
		}(j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := p.Workers(); got != 1 {
		t.Fatalf("workers = %d, want 1 shared worker for one model", got)
	}
}

// TestPanicPropagation: a model panic surfaces in the submitting
// goroutine (where the engine's shard guard lives), and the shared
// worker survives to serve the next call.
func TestPanicPropagation(t *testing.T) {
	p := New(Config{})
	defer p.Close()
	bad := &fakeModel{panik: true}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("expected model panic to propagate to the submitter")
			}
		}()
		p.Predict(bad, onePort(2), des.FIFO, "faulty")
	}()
	good := &fakeModel{}
	ports := onePort(3)
	p.Predict(good, ports, des.FIFO, "after")
	if len(ports[0].Out) != 3 {
		t.Fatalf("plane did not recover after a model panic: out len %d", len(ports[0].Out))
	}
}

// TestWorkerEviction pins the MaxWorkers LRU bound.
func TestWorkerEviction(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	p := New(Config{MaxWorkers: 2, Metrics: m})
	defer p.Close()
	for i := 0; i < 4; i++ {
		p.Predict(&fakeModel{}, onePort(2), des.FIFO, "k")
	}
	if got := p.Workers(); got > 2 {
		t.Fatalf("live workers = %d, want <= 2", got)
	}
	if got := m.WorkerEvictions.Value(); got < 2 {
		t.Fatalf("evictions = %d, want >= 2", got)
	}
	if got := m.WorkersStarted.Value(); got != 4 {
		t.Fatalf("workers started = %d, want 4", got)
	}
}

// TestClosedPlaneFallsBackInline: predictions after Close still complete
// (inline on a private clone) instead of wedging the caller.
func TestClosedPlaneFallsBackInline(t *testing.T) {
	p := New(Config{})
	p.Close()
	ports := onePort(3)
	p.Predict(&fakeModel{}, ports, des.FIFO, "late")
	if len(ports[0].Out) != 3 {
		t.Fatalf("closed-plane fallback did not fill Out: len %d", len(ports[0].Out))
	}
}

// goldenRun executes the serve-shaped scenario and returns the delivery
// trace.
func goldenRun(t *testing.T, model *ptm.PTM, shards int, wrap func(int, core.DeviceModel) core.DeviceModel) []des.Delivery {
	t.Helper()
	sc, err := experiments.Spec{Topo: "line4", Duration: 0.0002, Seed: 7}.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Shards: shards, WrapDevice: wrap}
	_, res, err := sc.RunDQNCfg(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Deliveries
}

// TestGoldenDigestsWithPlane pins the headline bit-identity claim: a
// full simulation routed through the shared plane produces exactly the
// same delivery trace as private per-shard inference, at Shards = 1 and
// Shards = 8.
func TestGoldenDigestsWithPlane(t *testing.T) {
	arch := ptm.Arch{TimeSteps: 8, Margin: 2, Embed: 4, BLSTM1: 4, BLSTM2: 4, Heads: 1, DK: 2, DV: 2, HeadOut: 4}
	model, err := ptm.Synthetic(arch, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenRun(t, model, 2, nil)
	if len(want) == 0 {
		t.Fatal("reference run delivered no packets")
	}
	for _, shards := range []int{1, 8} {
		p := New(Config{MaxBatch: 8})
		got := goldenRun(t, model, shards, func(_ int, m core.DeviceModel) core.DeviceModel {
			return p.Wrap(m, "golden")
		})
		p.Close()
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d deliveries via plane, want %d", shards, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shards=%d delivery %d differs via plane:\n  got  %+v\n  want %+v", shards, i, got[i], want[i])
			}
		}
	}
}

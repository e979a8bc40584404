package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/ptm"
)

// slowSignalModel is a DeviceModel whose inferences are slow enough for
// a cancellation to land mid-IRSA; it signals its first call so the
// cancelers know the run is inside an iteration.
type slowSignalModel struct {
	firstCall chan struct{}
	once      sync.Once
	calls     atomic.Int64
}

func (m *slowSignalModel) PredictDevice(ports []ptm.PortStream, _ des.SchedKind) {
	m.calls.Add(1)
	m.once.Do(func() { close(m.firstCall) })
	time.Sleep(200 * time.Microsecond)
	fillTransmission(ports)
}
func (m *slowSignalModel) CloneModel() DeviceModel { return m }

// TestRunContextConcurrentCancelRace cancels a running RunContext from
// many goroutines at once, mid-IRSA, under the race detector: the run
// must stop with guard.ErrCanceled and still hand back partial results,
// with no data race between the cancelers and the inference shards.
// line8 with echo legs bounds the run far above the iterations a cancel
// may take to land.
func TestRunContextConcurrentCancelRace(t *testing.T) {
	m := &slowSignalModel{firstCall: make(chan struct{})}
	sim := line8Sim(t, Config{
		Sched:      des.SchedConfig{Kind: des.FIFO},
		Echo:       true,
		Shards:     2,
		WrapDevice: func(int, DeviceModel) DeviceModel { return m },
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer func() {
				if we := guard.RecoveredWorker(i, recover()); we != nil {
					t.Error(we)
				}
				wg.Done()
			}()
			<-m.firstCall
			cancel() // all eight race to cancel the same run
		}(i)
	}
	res, err := sim.RunContext(ctx, 0.001)
	wg.Wait()
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("want guard.ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("underlying context error lost: %v", err)
	}
	if res == nil {
		t.Fatal("canceled run must return the partial result")
	}
	if res.Iterations > 3 {
		t.Fatalf("cancel mid-iteration ran %d iterations, want early stop", res.Iterations)
	}
	if m.calls.Load() == 0 {
		t.Fatal("model was never called; cancel landed before IRSA started")
	}
}

// passthroughModel forwards to an inner model, counting invocations —
// the minimal WrapDevice instrumentation wrapper.
type passthroughModel struct {
	inner DeviceModel
	calls *atomic.Int64
}

func (p *passthroughModel) PredictDevice(ports []ptm.PortStream, k des.SchedKind) {
	p.calls.Add(1)
	p.inner.PredictDevice(ports, k)
}
func (p *passthroughModel) CloneModel() DeviceModel {
	return &passthroughModel{inner: p.inner.CloneModel(), calls: p.calls}
}

// TestWrapDeviceHook: Config.WrapDevice wraps every resolved device
// model, and the engine runs the wrapper.
func TestWrapDeviceHook(t *testing.T) {
	var wrapped, calls atomic.Int64
	sim, hosts := lineSim(t, Config{
		Sched: des.SchedConfig{Kind: des.FIFO},
		WrapDevice: func(_ int, m DeviceModel) DeviceModel {
			wrapped.Add(1)
			return &passthroughModel{inner: m, calls: &calls}
		},
	})
	addTestFlow(sim, hosts)
	res, err := sim.Run(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Load() == 0 {
		t.Fatal("WrapDevice never invoked")
	}
	if calls.Load() == 0 {
		t.Fatal("wrapped model never used for inference")
	}
	if res.Degraded() {
		t.Fatalf("wrapped run must not degrade: %v", res.DegradedDevices)
	}
}

// TestWrapDeviceNilDegrades: a wrapper returning nil degrades that
// device to the FIFO fallback instead of crashing the run.
func TestWrapDeviceNilDegrades(t *testing.T) {
	sim, hosts := lineSim(t, Config{
		Sched:      des.SchedConfig{Kind: des.FIFO},
		WrapDevice: func(int, DeviceModel) DeviceModel { return nil },
	})
	addTestFlow(sim, hosts)
	res, err := sim.Run(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded() {
		t.Fatal("nil-wrapping run must be degraded")
	}
	for _, d := range res.DegradedDevices {
		if res.DegradedReasons[d] == "" {
			t.Fatalf("device %d degraded without a reason", d)
		}
	}
}

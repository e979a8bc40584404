package chaos

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepqueuenet/internal/core"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/ptm"
)

// echoModel returns constant sojourns — a minimal inner DeviceModel.
type echoModel struct{}

func (echoModel) PredictDevice(ports []ptm.PortStream, _ des.SchedKind) {
	for i := range ports {
		ps := &ports[i]
		ps.Out = ps.Out[:0]
		for range ps.Stream {
			ps.Out = append(ps.Out, 1e-6)
		}
	}
}
func (m echoModel) CloneModel() core.DeviceModel { return m }

// predictOne runs m on a one-packet, one-port device and returns the
// prediction.
func predictOne(m core.DeviceModel) float64 {
	ports := []ptm.PortStream{{Stream: []ptm.PacketIn{{}}, RateBps: 1e9}}
	m.PredictDevice(ports, des.FIFO)
	return ports[0].Out[0]
}

func TestZeroRatesAreIdentity(t *testing.T) {
	in := New(Config{Seed: 1})
	m := echoModel{}
	if got := in.WrapDevice(0, m); got != core.DeviceModel(m) {
		t.Fatalf("zero-rate WrapDevice must return the model unchanged, got %T", got)
	}
	if in.Total() != 0 {
		t.Fatalf("zero-rate injector injected %d faults", in.Total())
	}
}

func TestDecisionsDeterministicPerSeed(t *testing.T) {
	seq := func(seed uint64) []bool {
		in := New(Config{Seed: seed, NaNRate: 0.5})
		m := in.WrapDevice(0, echoModel{})
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, math.IsNaN(predictOne(m)))
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs for identical seeds", i)
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical decision sequences")
	}
}

func TestPanicInjectionIsRecoverable(t *testing.T) {
	in := New(Config{Seed: 1, PanicRate: 1.0})
	m := in.WrapDevice(0, echoModel{})
	panicked := false
	func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		predictOne(m)
	}()
	if !panicked {
		t.Fatal("PanicRate 1.0 did not panic")
	}
	if in.Count(FaultPanic) != 1 {
		t.Fatalf("panic count %d, want 1", in.Count(FaultPanic))
	}
}

func TestCloneSharesInjectorCounts(t *testing.T) {
	in := New(Config{Seed: 1, NaNRate: 1.0})
	m := in.WrapDevice(0, echoModel{})
	clone := m.CloneModel()
	predictOne(clone)
	predictOne(m)
	if in.Count(FaultNaN) != 2 {
		t.Fatalf("clone must share the injector: count %d, want 2", in.Count(FaultNaN))
	}
}

func TestCountsByName(t *testing.T) {
	in := New(Config{Seed: 1, LatencyRate: 1.0, Latency: time.Nanosecond})
	m := in.WrapDevice(0, echoModel{})
	predictOne(m)
	counts := in.Counts()
	if counts["latency"] != 1 {
		t.Fatalf("counts %v, want latency=1", counts)
	}
	for _, name := range []string{"panic", "nan", "latency", "cancel"} {
		if _, ok := counts[name]; !ok {
			t.Fatalf("counts missing %q: %v", name, counts)
		}
	}
}

// TestEachPortIsOneOpportunity: a device call rolls every fault once per
// egress port, NaN poisons the first prediction of each hit port, and
// the rolls allocate nothing.
func TestEachPortIsOneOpportunity(t *testing.T) {
	in := New(Config{Seed: 1, NaNRate: 1, LatencyRate: 1, Latency: time.Nanosecond})
	m := in.WrapDevice(0, echoModel{})
	ports := []ptm.PortStream{
		{Stream: make([]ptm.PacketIn, 3), RateBps: 1e9},
		{Stream: make([]ptm.PacketIn, 2), RateBps: 1e9},
		{RateBps: 1e9}, // an empty port has no prediction to poison
	}
	m.PredictDevice(ports, des.FIFO)
	if got := in.Count(FaultLatency); got != 3 {
		t.Fatalf("latency rolled %d times for 3 ports, want 3", got)
	}
	if got := in.Count(FaultNaN); got != 2 {
		t.Fatalf("NaN hit %d ports, want the 2 non-empty ones", got)
	}
	for i, ps := range ports[:2] {
		if !math.IsNaN(ps.Out[0]) || math.IsNaN(ps.Out[1]) {
			t.Fatalf("port %d: %v, want only the first prediction poisoned", i, ps.Out)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { m.PredictDevice(ports, des.FIFO) }); allocs != 0 {
		t.Fatalf("warm chaos PredictDevice allocated %.0f times, want 0", allocs)
	}
}

// countingModel counts the device calls and port streams that reach the
// model it wraps; clones share the counters.
type countingModel struct {
	core.DeviceModel
	calls, ports *atomic.Int64
}

func (c *countingModel) PredictDevice(ports []ptm.PortStream, kind des.SchedKind) {
	c.calls.Add(1)
	c.ports.Add(int64(len(ports)))
	c.DeviceModel.PredictDevice(ports, kind)
}

func (c *countingModel) CloneModel() core.DeviceModel {
	return &countingModel{DeviceModel: c.DeviceModel.CloneModel(), calls: c.calls, ports: c.ports}
}

// switchInferences counts the engine's model-driven switch inferences
// and the port streams they carried.
type switchInferences struct {
	mu           sync.Mutex
	calls, ports int
}

func (o *switchInferences) ObserveIteration(core.IterationEvent) {}

func (o *switchInferences) ObserveInference(ev core.InferenceEvent) {
	if ev.Host || ev.Degraded {
		return
	}
	o.mu.Lock()
	o.calls++
	o.ports += ev.Ports
	o.mu.Unlock()
}

// TestChaosModelDrivesOneDeviceCall: the engine drives a chaos-wrapped
// model through the batched path, one inner PredictDevice per switch
// inference, and every port stream is one latency roll.
func TestChaosModelDrivesOneDeviceCall(t *testing.T) {
	sc, err := experiments.Spec{Topo: "line4", Duration: 0.0002, Seed: 7}.Build()
	if err != nil {
		t.Fatal(err)
	}
	model, err := ptm.Synthetic(ptm.Arch{TimeSteps: 8, Margin: 2, Embed: 4, BLSTM1: 4, BLSTM2: 4, Heads: 1, DK: 2, DV: 2, HeadOut: 4}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := New(Config{Seed: 1, LatencyRate: 1, Latency: time.Nanosecond})
	var calls, ports atomic.Int64
	obs := &switchInferences{}
	_, _, err = sc.RunDQNCfg(model, core.Config{
		Shards:   2,
		Observer: obs,
		WrapDevice: func(d int, m core.DeviceModel) core.DeviceModel {
			return in.WrapDevice(d, &countingModel{DeviceModel: m, calls: &calls, ports: &ports})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.calls == 0 {
		t.Fatal("no switch inference ran")
	}
	if got := calls.Load(); got != int64(obs.calls) {
		t.Fatalf("inner PredictDevice ran %d times for %d switch inferences", got, obs.calls)
	}
	if got := ports.Load(); got != int64(obs.ports) {
		t.Fatalf("inner model saw %d port streams, the engine inferred %d", got, obs.ports)
	}
	if got := in.Count(FaultLatency); got != uint64(obs.ports) {
		t.Fatalf("latency rolled %d times for %d port streams", got, obs.ports)
	}
}

package core_test

import (
	"math"
	"sync"
	"testing"

	"deepqueuenet/internal/core"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/ptm"
)

// freshPorts hands its inner model fresh PortStreams on every call, so
// no port ever finds its last sweep to reuse: the engine run through it
// infers every window of every sweep.
type freshPorts struct{ inner core.DeviceModel }

func (f freshPorts) PredictDevice(ports []ptm.PortStream, kind des.SchedKind) {
	fresh := make([]ptm.PortStream, len(ports))
	for i, ps := range ports {
		fresh[i] = ptm.PortStream{Stream: ps.Stream, RateBps: ps.RateBps}
	}
	f.inner.PredictDevice(fresh, kind)
	for i := range ports {
		ports[i].Out = fresh[i].Out
	}
}

func (f freshPorts) CloneModel() core.DeviceModel { return freshPorts{f.inner.CloneModel()} }

// TestPortReuseMatchesFreshPorts: the golden wan shape (Abilene,
// BC-like traffic), whose IRSA sweeps repeat about a quarter of their
// windows bit for bit, delivers the same bits whether each port reuses
// its last sweep or every call starts from fresh PortStreams — at one
// shard and at two. It compares delivery traces directly, so it does
// not depend on the committed golden digests.
func TestPortReuseMatchesFreshPorts(t *testing.T) {
	sc, err := experiments.Spec{Topo: "abilene", Traffic: "bc", Load: 0.12, Duration: 0.002, Seed: 17}.Build()
	if err != nil {
		t.Fatal(err)
	}
	model, err := ptm.Synthetic(ptm.Arch{}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		_, reused, err := sc.RunDQNCfg(model, core.Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		_, fresh, err := sc.RunDQNCfg(model, core.Config{Shards: shards,
			WrapDevice: func(_ int, m core.DeviceModel) core.DeviceModel { return freshPorts{m} }})
		if err != nil {
			t.Fatal(err)
		}
		if len(reused.Deliveries) == 0 || len(reused.Deliveries) != len(fresh.Deliveries) {
			t.Fatalf("shards=%d: %d deliveries reusing ports, %d with fresh ones", shards, len(reused.Deliveries), len(fresh.Deliveries))
		}
		for i, a := range reused.Deliveries {
			b := fresh.Deliveries[i]
			if a.PktID != b.PktID || a.IsRTT != b.IsRTT || math.Float64bits(a.RecvTime) != math.Float64bits(b.RecvTime) {
				t.Fatalf("shards=%d: delivery %d differs: reused %+v, fresh %+v", shards, i, a, b)
			}
		}
	}
}

// replicaCounter records, through the WrapDevice seam, every replica
// the engine makes of a PTM-backed model, so a test can sum the
// windows they ran.
type replicaCounter struct {
	core.DeviceModel
	mu   *sync.Mutex
	reps *[]*ptm.PTM
}

func (c replicaCounter) CloneModel() core.DeviceModel {
	r := c.DeviceModel.CloneModel()
	c.mu.Lock()
	*c.reps = append(*c.reps, r.(core.PTMModel).PTM)
	c.mu.Unlock()
	return r
}

// TestWindowReuseIndependentOfWorkers: on the golden wan shape, where a
// device lands on different workers from sweep to sweep, a run reuses
// as many windows at 2 and 3 workers as at 1. Replicas of one model
// share its network, so a port's memo hits on whichever worker runs
// the port next.
func TestWindowReuseIndependentOfWorkers(t *testing.T) {
	sc, err := experiments.Spec{Topo: "abilene", Traffic: "bc", Load: 0.12, Duration: 0.002, Seed: 17}.Build()
	if err != nil {
		t.Fatal(err)
	}
	model, err := ptm.Synthetic(ptm.Arch{}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	windows := func(shards int, fresh bool) int {
		var mu sync.Mutex
		var reps []*ptm.PTM
		_, _, err := sc.RunDQNCfg(model, core.Config{Shards: shards,
			WrapDevice: func(_ int, m core.DeviceModel) core.DeviceModel {
				m = replicaCounter{DeviceModel: m, mu: &mu, reps: &reps}
				if fresh {
					return freshPorts{m}
				}
				return m
			}})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range reps {
			n += r.WindowsRun()
		}
		return n
	}
	all, one := windows(1, true), windows(1, false)
	if one >= all {
		t.Fatalf("1 worker ran %d windows, %d with fresh ports: nothing reused", one, all)
	}
	for _, shards := range []int{2, 3} {
		if got := windows(shards, false); got != one {
			t.Errorf("%d workers ran %d windows, 1 worker %d", shards, got, one)
		}
	}
}

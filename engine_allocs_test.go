package deepqueuenet

// Allocation ceiling for one warm end-to-end engine run: scenario
// packets, per-run plans and the result are allocated once per run, and
// everything below them (sessions, arenas, plan buffers) is reused. A
// reuse bug shows up here as hundreds of extra allocations per run long
// before it shows up as wall time. The zero-allocation pins on the
// inference path itself live beside it (ptm, nn, tensor/difftest).

import (
	"testing"

	"deepqueuenet/internal/core"
	"deepqueuenet/internal/obs"
	"deepqueuenet/internal/ptm"
)

// TestEngineRunAllocs runs the quickstart golden scenario (line4,
// Poisson 0.4, 0.5 ms, Shards=2, observer attached) on a warm model and
// scenario. The ceiling is the measured count plus 5 % (3788 per run,
// the larger of the counts with and without -race, since worker
// replicas share the model's network; 4065 while every shard
// deep-copied it): goroutine scheduling may move the count by a few
// allocations, a reuse bug moves it by hundreds. The subtest name says
// that the run carries no hook beyond the observer.
func TestEngineRunAllocs(t *testing.T) {
	gc := goldenCases()[0]
	model, err := ptm.Synthetic(goldenArch, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := gc.scenario(t)
	const measured = 3788
	t.Run("no-sink", func(t *testing.T) {
		cfg := core.Config{Shards: 2, Observer: obs.NewEngineObserver(obs.NewRegistry())}
		run := func() {
			if _, _, err := sc.RunDQNCfg(model, cfg); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(3, run)
		t.Logf("%.0f allocations per run", got)
		if ceiling := measured * 1.05; got > ceiling {
			t.Fatalf("%.0f allocations per warm run, ceiling %.0f (measured %d)", got, ceiling, measured)
		}
	})
}

package serve_test

import (
	"context"
	"testing"
	"time"

	"deepqueuenet/internal/plane"
	"deepqueuenet/internal/serve"
)

// TestExactSubmitAllocs bounds the allocations of one exact request
// through Server.Submit with the inference plane on: admission, the
// queue hand-off, the scenario build, the engine run through the plane's
// warm worker and the accounting. The ceiling is the measured count plus
// 5 % (2168 per request when this test was added, 2168–2170 under
// -race): scheduling between the worker pool and the plane may move it
// by a few allocations, a reuse bug moves it by hundreds.
func TestExactSubmitAllocs(t *testing.T) {
	const measured = 2168
	pl := plane.New(plane.Config{MaxBatch: 8})
	defer pl.Close()
	runner := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2, Plane: pl}
	srv := mustServe(t, serve.Config{Workers: 1, QueueDepth: 1, RetryMax: -1, Plane: pl}, runner)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Error(err)
		}
	}()
	submit := func() {
		req := serve.Request{Topo: "line4", Duration: 0.0002, Shards: 2, Seed: 1, Fidelity: "exact"}
		if _, err := srv.Submit(context.Background(), &req); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(10, submit)
	t.Logf("%.0f allocations per exact request", got)
	if ceiling := measured * 1.05; got > ceiling {
		t.Fatalf("%.0f allocations per exact request, ceiling %.0f (measured %d)", got, ceiling, measured)
	}
}

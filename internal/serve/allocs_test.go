package serve_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
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

// fastBody is serve_fast_closed's request shape with a fixed seed.
const fastBody = `{"topo":"fattree16","traffic":"map","load":0.4,"duration":0.001,"seed":7,"shards":1,"fidelity":"fast"}`

// TestFastSubmitAllocs bounds the allocations of one fast request through
// Server.Handler, counting the httptest request and recorder: the body
// read and decode, admission, the scenario build and analytic estimate
// on the cached FatTree16, the accounting and the response encode. The
// ceiling is the measured count plus 5 %: 45 per request when this test
// was added, 46–47 under -race (the race detector drops a quarter of
// sync.Pool puts, so the estimate's scratch is sometimes allocated
// afresh). The commit before the strict request reader, the
// flow-ordered estimate and the append encoder measured 75.
func TestFastSubmitAllocs(t *testing.T) {
	const parent, measured = 75, 47
	srv := mustServe(t, serve.Config{Workers: 1, QueueDepth: 1, RetryMax: -1}, &serve.ScenarioRunner{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Error(err)
		}
	}()
	h := srv.Handler()
	submit := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/simulate", strings.NewReader(fastBody)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	submit() // build and cache the topology
	got := testing.AllocsPerRun(100, submit)
	t.Logf("%.0f allocations per fast request", got)
	if ceiling := measured * 1.05; got > ceiling {
		t.Fatalf("%.0f allocations per fast request, ceiling %.0f (measured %d; %d before the strict reader and append encoder)",
			got, ceiling, measured, parent)
	}
}

// BenchmarkFastRequest times the request TestFastSubmitAllocs counts.
// With -cpuprofile, pprof -focus on the benchmark function splits it
// into stages (EXPERIMENTS.md, "Where a fast answer's time goes").
func BenchmarkFastRequest(b *testing.B) {
	srv, err := serve.New(serve.Config{Workers: 1, QueueDepth: 1, RetryMax: -1}, &serve.ScenarioRunner{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			b.Error(err)
		}
	}()
	h := srv.Handler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/simulate", strings.NewReader(fastBody)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

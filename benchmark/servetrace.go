package main

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deepqueuenet/internal/core"
	"deepqueuenet/internal/serve"
)

// serveTrace records the server-side spans of a traced serve run from
// the two seams the server offers: it is the serve.Runner handed to
// serve.New (wrapping the real runner), and its wrapDevice is the
// ScenarioRunner.WrapDevice. While no tracer is started both pass
// straight through.
type serveTrace struct {
	inner             serve.Runner
	timeSteps, margin int

	tr      atomic.Pointer[tracer]
	parents sync.Map // request seed (uint64) → reserved serve.request span ID (int64)
	running sync.Map // goroutine ID (int64) → *liveRun

	mu    sync.Mutex
	calls callTotals
}

// liveRun is the runner span a goroutine is currently inside.
type liveRun struct {
	spanID, req int64
	tr          *tracer
}

// start turns span recording on (tr != nil) or off.
func (s *serveTrace) start(tr *tracer) { s.tr.Store(tr) }

// Run implements serve.Runner: one span per runner execution, named by
// the ladder rung, under the client's request span.
func (s *serveTrace) Run(ctx context.Context, req *serve.Request, mode serve.RunMode) (*serve.Result, error) {
	tr := s.tr.Load()
	if tr == nil {
		return s.inner.Run(ctx, req, mode)
	}
	var parent int64
	if p, ok := s.parents.Load(req.Seed); ok {
		parent = p.(int64)
	}
	run := &liveRun{spanID: tr.reserve(), req: int64(req.Seed), tr: tr}
	// WrapDevice carries no request identity, but the engine resolves a
	// run's device models on the goroutine that called Run: the
	// goroutine ID ties the wrappers it creates to this run.
	gid := goroutineID()
	s.running.Store(gid, run)
	start := time.Now()
	res, err := s.inner.Run(ctx, req, mode)
	end := time.Now()
	s.running.Delete(gid)
	tr.put(run.spanID, parent, run.req, "serve.run_"+mode.Fidelity(), start, end)
	return res, err
}

// wrapDevice is the ScenarioRunner.WrapDevice seam. It sits above the
// plane handle, so a timed call spans the wait for the shared worker as
// well as the batch that served it.
func (s *serveTrace) wrapDevice(dev int, m core.DeviceModel) core.DeviceModel {
	if s.tr.Load() == nil {
		return m
	}
	v, ok := s.running.Load(goroutineID())
	if !ok {
		return m
	}
	run := v.(*liveRun)
	return wrapTimed(dev, m, s.timeSteps, s.margin, func(p predictRec) {
		run.tr.add(run.spanID, run.req, "plane.call", p.start, p.end)
		s.mu.Lock()
		s.calls.ns += p.end.Sub(p.start)
		s.calls.count++
		s.calls.pkts += p.pkts
		s.calls.windows += p.windows
		s.mu.Unlock()
	})
}

// takeCalls returns the call sums accumulated since the last take.
func (s *serveTrace) takeCalls() callTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.calls
	s.calls = callTotals{}
	return c
}

// goroutineID parses the current goroutine's ID from its stack header
// ("goroutine 123 [running]:"). The runtime offers no other way to read
// it; it is used only in traced runs, once per engine run and once per
// device resolved.
func goroutineID() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return -1
	}
	return id
}

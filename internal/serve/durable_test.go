package serve_test

// Durability suite: admitted jobs must survive process death. Both
// interruption paths — a process that dies mid-run, and a graceful
// drain (SIGTERM) — must leave a recoverable record, and a second
// server opened on that state directory must re-enqueue the job, re-run
// it from scratch, and finish with a digest bit-identical to a
// never-interrupted run. Terminal accounting (received = shed+rejected+
// completed+failed+canceled+deadline) must balance in every process.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepqueuenet/internal/core"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/serve"
)

// durableReq is the shared workload: deterministic, multi-iteration,
// CPU-cheap.
func durableReq(seed uint64, shards int) *serve.Request {
	return &serve.Request{Topo: "line4", Duration: 0.0002, Shards: shards, Seed: seed}
}

// uninterruptedDigest runs the request straight through a fresh runner:
// the ground truth a re-run job must reproduce bit for bit.
func uninterruptedDigest(t *testing.T, req serve.Request) string {
	t.Helper()
	r := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2}
	res, err := r.Run(context.Background(), &req, serve.RunExact)
	if err != nil {
		t.Fatal(err)
	}
	return res.Digest
}

// engineGate parks an engine mid-run: installed as
// ScenarioRunner.WrapDevice, it lets the first `after` device
// predictions through and holds every later one until release closes.
// entered closes when the first prediction parks.
type engineGate struct {
	after   int64
	calls   atomic.Int64
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newEngineGate(after int64) *engineGate {
	return &engineGate{after: after, entered: make(chan struct{}), release: make(chan struct{})}
}

// wrap has core.Config.WrapDevice's signature.
func (g *engineGate) wrap(_ int, m core.DeviceModel) core.DeviceModel {
	return &gatedModel{inner: m, g: g}
}

// gatedModel delegates every prediction unchanged, so a gated run's
// digest is the ungated one.
type gatedModel struct {
	inner core.DeviceModel
	g     *engineGate
}

func (m *gatedModel) PredictDevice(ports []ptm.PortStream, kind des.SchedKind) {
	if m.g.calls.Add(1) > m.g.after {
		m.g.once.Do(func() { close(m.g.entered) })
		<-m.g.release
	}
	m.inner.PredictDevice(ports, kind)
}

func (m *gatedModel) CloneModel() core.DeviceModel {
	return &gatedModel{inner: m.inner.CloneModel(), g: m.g}
}

// awaitDraining waits until Drain has flipped the server's drain flag,
// then gives Drain's cancel loop, which runs right after it, a beat.
func awaitDraining(t *testing.T, s *serve.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !s.Draining() {
		t.Fatal("drain never started")
	}
	time.Sleep(100 * time.Millisecond)
}

// assertBalanced checks the terminal-accounting invariant for one
// process's stats snapshot.
func assertBalanced(t *testing.T, st serve.Stats) {
	t.Helper()
	terminal := st.Shed + st.Rejected + st.Completed + st.Failed + st.Canceled + st.Deadline
	if st.Received != terminal {
		t.Fatalf("accounting imbalance: received %d != terminal %d (%+v)", st.Received, terminal, st)
	}
}

// awaitStatus polls the durable record until it reaches want.
func awaitStatus(t *testing.T, s *serve.Server, id, want string) *serve.JobRecord {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last *serve.JobRecord
	for time.Now().Before(deadline) {
		rec, err := s.Job(id)
		if err == nil {
			last = rec
			if rec.Status == want {
				return rec
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q (last record: %+v)", id, want, last)
	return nil
}

func drainWithin(t *testing.T, s *serve.Server, budget time.Duration) time.Duration {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain exceeded its %v budget: %v", budget, err)
	}
	return time.Since(start)
}

// TestDurableCrashRestartReruns is the crash leg: the engine is parked
// mid-run, and the state directory as it stands then — what a process
// killed at that instant leaves on disk — is copied for a second server.
// The record reads pending; the second server re-runs the job and
// completes it with the uninterrupted digest.
func TestDurableCrashRestartReruns(t *testing.T) {
	stateDir, deadDir := t.TempDir(), t.TempDir()
	req := durableReq(5, 2)
	want := uninterruptedDigest(t, *req)

	gate := newEngineGate(4)
	runner1 := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2, WrapDevice: gate.wrap}
	srv1 := mustServe(t, serve.Config{
		Workers: 1, QueueDepth: 1, RetryMax: -1, StateDir: stateDir,
	}, runner1)

	type outcome struct {
		res *serve.Result
		id  string
		err error
	}
	clientDone := make(chan outcome, 1)
	go func() {
		defer func() {
			if we := guard.RecoveredWorker(0, recover()); we != nil {
				clientDone <- outcome{err: we}
			}
		}()
		res, id, err := srv1.SubmitJob(context.Background(), req)
		clientDone <- outcome{res, id, err}
	}()
	<-gate.entered // engine is mid-run

	// The process dies here: keep its job records as they stand.
	jobs, err := os.ReadDir(filepath.Join(stateDir, "jobs"))
	if err != nil || len(jobs) != 1 {
		t.Fatalf("state dir holds %d records (err %v), want the one running job", len(jobs), err)
	}
	if err := os.MkdirAll(filepath.Join(deadDir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(stateDir, "jobs", jobs[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(deadDir, "jobs", jobs[0].Name()), data, 0o600); err != nil {
		t.Fatal(err)
	}

	// Restart: a clean server on the dead process's state directory
	// re-enqueues the job and re-runs it.
	runner2 := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2}
	srv2 := mustServe(t, serve.Config{
		Workers: 1, QueueDepth: 1, RetryMax: -1, StateDir: deadDir,
	}, runner2)
	id := strings.TrimSuffix(jobs[0].Name(), ".json")
	rec := awaitStatus(t, srv2, id, serve.JobCompleted)
	if rec.Restarts != 1 {
		t.Fatalf("record restarts = %d, want 1", rec.Restarts)
	}
	if rec.Result == nil || rec.Result.Digest != want {
		t.Fatalf("re-run job digest = %+v, want %s", rec.Result, want)
	}
	drainWithin(t, srv2, 10*time.Second)
	st := srv2.Snapshot()
	assertBalanced(t, st)
	if st.Completed != 1 || st.Received != 1 {
		t.Fatalf("restarted process stats %+v, want exactly the recovered job completed", st)
	}

	// The parked process, released, finishes its own copy of the job.
	close(gate.release)
	out := <-clientDone
	if out.err != nil || out.id != id || out.res.Digest != want {
		t.Fatalf("released original run: id %q err %v result %+v, want %s with %s", out.id, out.err, out.res, id, want)
	}
	drainWithin(t, srv1, 10*time.Second)
	assertBalanced(t, srv1.Snapshot())
}

// TestDurableDrainInterruptsAndReruns is the SIGTERM leg: a drain
// arriving mid-run must cancel the job inside the drain budget and mark
// its record interrupted — with the client that stayed connected
// observing one coherent (canceled) outcome — and a second server on
// the same state directory must re-run it to the never-interrupted
// digest, at one shard and at two.
func TestDurableDrainInterruptsAndReruns(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			testDrainInterruptsAndReruns(t, shards)
		})
	}
}

func testDrainInterruptsAndReruns(t *testing.T, shards int) {
	stateDir := t.TempDir()
	req := durableReq(6, shards)
	want := uninterruptedDigest(t, *req)

	// The gate parks the engine past its first sweep until the drain
	// has begun, so the drain deterministically lands mid-run.
	gate := newEngineGate(4)
	runner1 := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2, WrapDevice: gate.wrap}
	srv1 := mustServe(t, serve.Config{
		Workers: 1, QueueDepth: 1, RetryMax: -1, StateDir: stateDir,
	}, runner1)

	type outcome struct {
		id  string
		err error
	}
	clientDone := make(chan outcome, 1)
	go func() {
		defer func() {
			if we := guard.RecoveredWorker(0, recover()); we != nil {
				clientDone <- outcome{err: we}
			}
		}()
		_, id, err := srv1.SubmitJob(context.Background(), req)
		clientDone <- outcome{id, err}
	}()
	<-gate.entered // engine is mid-run

	drained := make(chan time.Duration, 1)
	go func() {
		defer func() {
			if we := guard.RecoveredWorker(1, recover()); we != nil {
				t.Error(we)
				drained <- 0
			}
		}()
		drained <- drainWithin(t, srv1, 10*time.Second)
	}()
	awaitDraining(t, srv1)
	close(gate.release)

	out := <-clientDone
	if !errors.Is(out.err, guard.ErrCanceled) {
		t.Fatalf("client outcome during drain: err = %v, want guard.ErrCanceled", out.err)
	}
	if took := <-drained; took > 10*time.Second {
		t.Fatalf("drain took %v", took)
	}
	rec := awaitStatus(t, srv1, out.id, serve.JobInterrupted)
	if rec.Restarts != 0 {
		t.Fatalf("pre-restart record has Restarts = %d", rec.Restarts)
	}
	assertBalanced(t, srv1.Snapshot())

	runner2 := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2}
	srv2 := mustServe(t, serve.Config{
		Workers: 1, QueueDepth: 1, RetryMax: -1, StateDir: stateDir,
	}, runner2)
	rec = awaitStatus(t, srv2, out.id, serve.JobCompleted)
	if rec.Restarts != 1 {
		t.Fatalf("record restarts = %d, want 1", rec.Restarts)
	}
	if rec.Result == nil || rec.Result.Digest != want {
		t.Fatalf("re-run job digest = %+v, want %s", rec.Result, want)
	}
	drainWithin(t, srv2, 10*time.Second)
	assertBalanced(t, srv2.Snapshot())
}

// TestDurableJobEndpoint covers the HTTP surface: /simulate returns the
// job ID header, GET /jobs/{id} serves the record, and hostile IDs 404
// without touching the filesystem.
func TestDurableJobEndpoint(t *testing.T) {
	stateDir := t.TempDir()
	runner := &serve.ScenarioRunner{DefaultModel: testModel(t), MaxShards: 2}
	srv := mustServe(t, serve.Config{
		Workers: 1, QueueDepth: 1, RetryMax: -1, StateDir: stateDir,
	}, runner)
	defer drainWithin(t, srv, 10*time.Second)
	h := srv.Handler()

	rec := postSim(h, simBody(9))
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate: status %d body %s", rec.Code, rec.Body.String())
	}
	id := rec.Header().Get("X-DQN-Job")
	if id == "" {
		t.Fatal("durable /simulate response missing X-DQN-Job header")
	}

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}
	if w := get("/jobs/" + id); w.Code != http.StatusOK {
		t.Fatalf("GET /jobs/%s: status %d body %s", id, w.Code, w.Body.String())
	}
	for _, hostile := range []string{
		"/jobs/job-1x", "/jobs/nope", "/jobs/job-99999999",
	} {
		if w := get(hostile); w.Code != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", hostile, w.Code)
		}
	}
	// Dot-dot paths never reach the handler: ServeMux canonicalizes them
	// into a redirect, so traversal cannot address the record store.
	if w := get("/jobs/../jobs/" + id); w.Code != http.StatusMovedPermanently {
		t.Fatalf("GET /jobs/../: status %d, want 301 canonicalization", w.Code)
	}
}

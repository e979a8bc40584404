package serve

import (
	"testing"
	"time"
)

// TestRetryAfterWorkerPoolRegime pins the plane-less estimate: backlog
// clearing through the HTTP worker pool.
func TestRetryAfterWorkerPoolRegime(t *testing.T) {
	s := &Server{cfg: Config{Workers: 2}, queue: make(chan *job, 8)}
	s.estimator.all.Store(int64(4 * time.Second))
	for i := 0; i < 3; i++ {
		s.queue <- &job{}
	}
	// (3 queued + 1 mine) × 4s / 2 workers = 8s.
	if got := s.RetryAfter(); got != 8*time.Second {
		t.Fatalf("RetryAfter = %v, want 8s", got)
	}
	// Idle server floors at 1s.
	s2 := &Server{cfg: Config{Workers: 2}, queue: make(chan *job, 8)}
	if got := s2.RetryAfter(); got != time.Second {
		t.Fatalf("idle RetryAfter = %v, want 1s", got)
	}
}

// TestRetryAfterPlaneRegime pins the plane-aware estimate: with a
// shared inference plane attached, Retry-After is the larger of the
// worker-pool estimate and the time for the plane's pending device
// calls to clear at the measured batch latency.
func TestRetryAfterPlaneRegime(t *testing.T) {
	s := &Server{cfg: Config{Workers: 2}, queue: make(chan *job, 8)}
	s.estimator.all.Store(int64(time.Second)) // pool estimate: 1×1s/2 = 0.5s → floor 1s

	// 40 pending calls at 8 calls/flush and 1s/flush: (40/8 + 1) × 1s = 6s.
	s.planeStats = func() (int, float64, float64) { return 40, 1.0, 8 }
	if got := s.RetryAfter(); got != 6*time.Second {
		t.Fatalf("plane-bound RetryAfter = %v, want 6s", got)
	}

	// An idle plane must not drag the estimate below the pool regime.
	s.planeStats = func() (int, float64, float64) { return 0, 0.001, 8 }
	for i := 0; i < 7; i++ {
		s.queue <- &job{}
	}
	s.estimator.all.Store(int64(4 * time.Second)) // pool: (7+1)×4s/2 = 16s
	if got := s.RetryAfter(); got != 16*time.Second {
		t.Fatalf("pool-bound RetryAfter = %v, want 16s", got)
	}

	// A plane with no flush history yet contributes nothing.
	s.planeStats = func() (int, float64, float64) { return 100, 0, 0 }
	if got := s.RetryAfter(); got != 16*time.Second {
		t.Fatalf("no-history RetryAfter = %v, want 16s", got)
	}

	// The 60s ceiling still applies in the plane regime.
	s.planeStats = func() (int, float64, float64) { return 10000, 2.0, 4 }
	if got := s.RetryAfter(); got != time.Minute {
		t.Fatalf("ceiling RetryAfter = %v, want 60s", got)
	}
}

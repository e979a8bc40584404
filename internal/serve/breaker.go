package serve

import (
	"sync"
	"time"

	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/obs"
)

// BreakerState is the circuit-breaker state machine position.
type BreakerState int

const (
	// BreakerClosed: the model path is healthy; requests run normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: repeated failures; requests answer from the analytic
	// tier until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: cooldown elapsed; one probe at a time runs the
	// real model while everything else stays degraded.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes one circuit breaker.
type BreakerConfig struct {
	// Threshold is the number of consecutive breaker-worthy failures
	// (shard panics, divergence, model validation) that opens the
	// breaker. <= 0 uses 5.
	Threshold int
	// Cooldown is how long the breaker stays open before allowing a
	// half-open probe. <= 0 uses 5s.
	Cooldown time.Duration
	// ProbeSuccesses is the number of consecutive successful half-open
	// probes required to close the breaker again. <= 0 uses 2.
	ProbeSuccesses int
}

// withDefaults fills zero fields.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 2
	}
	return c
}

// Admission is a breaker's decision for one request.
type Admission int

const (
	// AdmitNormal: run the real model.
	AdmitNormal Admission = iota
	// AdmitProbe: run the real model as the half-open probe; the
	// outcome decides whether the breaker closes or re-opens.
	AdmitProbe
	// AdmitDegraded: breaker open — answer from the analytic tier
	// instead of the suspect model.
	AdmitDegraded
)

// Breaker is a per-model-path circuit breaker. It contains repeated
// inference failures (guard.ShardError, guard.DivergenceError, model
// validation errors) by rerouting requests to the analytic tier
// instead of hammering a faulty model, then probes the model
// again after a cooldown. All methods are goroutine-safe.
type Breaker struct {
	mu   sync.Mutex
	cfg  BreakerConfig
	path string

	state    BreakerState
	fails    int // consecutive failures while closed
	probeOK  int // consecutive successful probes while half-open
	probing  bool
	openedAt time.Time

	opens   uint64 // total times this breaker has opened
	lastErr error

	// transitions counts state changes by destination state when set
	// (the serve layer's pre-registered metric counters). They are
	// atomic, so counting under the breaker's mutex never blocks.
	transitions [3]*obs.Counter
}

// setState moves the state machine, counting the transition.
func (b *Breaker) setState(to BreakerState) {
	if b.state == to {
		return
	}
	b.state = to
	if c := b.transitions[to]; c != nil {
		c.Inc()
	}
}

// NewBreaker builds a breaker for one guarded model path.
func NewBreaker(path string, cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), path: path}
}

// Allow decides how the next request against this path runs. A Probe
// admission reserves the single half-open probe slot; its outcome must
// be reported through Record with probe=true.
func (b *Breaker) Allow(now time.Time) Admission {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return AdmitNormal
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			return AdmitDegraded
		}
		b.setState(BreakerHalfOpen)
		b.probeOK = 0
		b.probing = true
		return AdmitProbe
	default: // BreakerHalfOpen
		if b.probing {
			return AdmitDegraded
		}
		b.probing = true
		return AdmitProbe
	}
}

// Record reports the outcome of a request that ran the real model.
// probe marks the half-open probe handed out by Allow. A nil err is a
// success; a non-nil err is a breaker-worthy failure (the caller
// classifies — cancellations and bad requests must not be recorded).
func (b *Breaker) Record(probe bool, err error, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
	if err != nil {
		b.lastErr = err
		if b.state == BreakerHalfOpen && probe {
			// Failed probe: back to open, restart the cooldown.
			b.setState(BreakerOpen)
			b.openedAt = now
			b.opens++
			return
		}
		if b.state == BreakerClosed {
			b.fails++
			if b.fails >= b.cfg.Threshold {
				b.setState(BreakerOpen)
				b.openedAt = now
				b.opens++
			}
		}
		return
	}
	switch b.state {
	case BreakerClosed:
		b.fails = 0
	case BreakerHalfOpen:
		if probe {
			b.probeOK++
			if b.probeOK >= b.cfg.ProbeSuccesses {
				b.setState(BreakerClosed)
				b.fails = 0
				b.lastErr = nil
			}
		}
	}
}

// ReleaseProbe returns the half-open probe slot without judging the
// model — for probes that ended for reasons unrelated to it (client
// cancellation, deadline), so a neutral outcome cannot wedge the
// breaker in a probe-reserved half-open state.
func (b *Breaker) ReleaseProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// State returns the current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Err returns the *guard.BreakerError describing why the breaker is
// open (nil when closed), for attachment to degraded responses.
func (b *Breaker) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerClosed {
		return nil
	}
	fails := b.fails
	if fails < b.cfg.Threshold {
		fails = b.cfg.Threshold
	}
	return &guard.BreakerError{Path: b.path, Failures: fails, LastErr: b.lastErr}
}

// BreakerStats is one breaker's observable state for /stats.
type BreakerStats struct {
	Path    string `json:"path"`
	State   string `json:"state"`
	Opens   uint64 `json:"opens"`
	LastErr string `json:"last_err,omitempty"`
}

// Stats snapshots the breaker.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BreakerStats{Path: b.path, State: b.state.String(), Opens: b.opens}
	if b.lastErr != nil {
		st.LastErr = b.lastErr.Error()
	}
	return st
}

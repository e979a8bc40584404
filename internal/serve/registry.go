package serve

import (
	"sync"

	"deepqueuenet/internal/obs"
	"deepqueuenet/internal/ptm"
)

// maxModelEntries bounds the warm model registry, mirroring the breaker
// table's bound: the two structures grow with the same request field
// (the model path), so they share one budget.
const maxModelEntries = maxWireKeys

// modelRegistry is the warm model registry: one entry per model path,
// holding the loaded base model. Entries are shared across all
// concurrent requests — a model is loaded once, no matter how many
// cold-start requests race for it — and the entry count is LRU-bounded
// at maxModelEntries.
type modelRegistry struct {
	mu      sync.Mutex
	clock   uint64
	entries map[string]*modelEntry
	loading map[string]*modelLoad
	// evictions, when non-nil, counts entries dropped by the LRU bound.
	evictions *obs.Counter
}

// modelLoad is one in-flight cold-start load: concurrent requesters for
// the same path park on done instead of loading the file N times
// (singleflight). A failed load is never cached — the next request
// retries, so a half-open breaker probe after the model file is fixed
// sees the fix.
type modelLoad struct {
	done chan struct{}
	e    *modelEntry
	err  error
}

// modelEntry holds one model path's loaded model, immutable after
// construction and shared read-only, so a request's model is a stable
// identity the inference plane can key its warm workers on.
type modelEntry struct {
	used uint64 // LRU stamp, maintained under modelRegistry.mu

	base *ptm.PTM
}

// entry returns the warm entry for path, invoking load exactly once per
// path across concurrent cold-start requests. evict, when non-nil,
// counts LRU evictions.
func (mr *modelRegistry) entry(path string, evict *obs.Counter, load func() (*ptm.PTM, error)) (*modelEntry, error) {
	mr.mu.Lock()
	mr.evictions = evict
	if mr.entries == nil {
		mr.entries = make(map[string]*modelEntry)
		mr.loading = make(map[string]*modelLoad)
	}
	if e := mr.entries[path]; e != nil {
		mr.clock++
		e.used = mr.clock
		mr.mu.Unlock()
		return e, nil
	}
	if fl := mr.loading[path]; fl != nil {
		mr.mu.Unlock()
		<-fl.done
		return fl.e, fl.err
	}
	fl := &modelLoad{done: make(chan struct{})}
	mr.loading[path] = fl
	mr.mu.Unlock()

	m, err := load()

	mr.mu.Lock()
	delete(mr.loading, path)
	if err == nil {
		fl.e = &modelEntry{base: m}
		mr.clock++
		fl.e.used = mr.clock
		mr.entries[path] = fl.e
		mr.evictLocked()
	}
	fl.err = err
	mr.mu.Unlock()
	close(fl.done)
	return fl.e, fl.err
}

// evictLocked drops least-recently-used entries beyond maxModelEntries.
// The default-model entry ("") is exempt: it is the hot path.
// Requests already holding an evicted entry keep using it safely — its
// model is immutable.
func (mr *modelRegistry) evictLocked() {
	for len(mr.entries) > maxModelEntries {
		var victimKey string
		var victim *modelEntry
		for k, e := range mr.entries {
			if k == "" {
				continue
			}
			if victim == nil || e.used < victim.used {
				victim, victimKey = e, k
			}
		}
		if victim == nil {
			return
		}
		delete(mr.entries, victimKey)
		if mr.evictions != nil {
			mr.evictions.Inc()
		}
	}
}

// len reports the live entry count (tests).
func (mr *modelRegistry) len() int {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	return len(mr.entries)
}

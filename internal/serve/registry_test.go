package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/obs"
	"deepqueuenet/internal/ptm"
)

func registryTestModel(t *testing.T) *ptm.PTM {
	t.Helper()
	arch := ptm.Arch{TimeSteps: 8, Margin: 2, Embed: 4, BLSTM1: 4, BLSTM2: 4, Heads: 1, DK: 2, DV: 2, HeadOut: 4}
	m, err := ptm.Synthetic(arch, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRegistryColdStartSingleflight hammers one path with 32 concurrent
// cold-start requesters and verifies the model is loaded exactly once
// and every caller gets the same entry. The load blocks until the other
// 31 requesters are parked on it, so every one of them takes the
// waiter's early return; the registry lock is then taken again, under a
// timeout, to show that return released it. Run under -race this also
// proves the registry's locking discipline.
func TestRegistryColdStartSingleflight(t *testing.T) {
	base := registryTestModel(t)
	var loads atomic.Int64
	mr := &modelRegistry{}
	release := make(chan struct{})

	const goroutines = 32
	entries := make([]*modelEntry, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer func() {
				if we := guard.RecoveredWorker(i, recover()); we != nil {
					t.Error(we)
				}
				wg.Done()
			}()
			e, err := mr.entry("models/a.json", nil, func() (*ptm.PTM, error) {
				loads.Add(1)
				<-release
				return base, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
		}(i)
	}
	// The loader and every waiter block on a channel inside entry; a
	// waiter still holding mr.mu would leave the rest on the mutex.
	waitParked(t, "(*modelRegistry).entry", goroutines)
	close(release)
	wg.Wait()
	withTimeout(t, "registry lock after the cold-start wait", func() { mr.len() })

	if n := loads.Load(); n != 1 {
		t.Fatalf("cold-start loads = %d, want exactly 1 (singleflight)", n)
	}
	for i := 1; i < goroutines; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("goroutine %d got a different entry", i)
		}
	}
	if entries[0].base != base {
		t.Fatal("the entry does not hold the loaded model")
	}
}

// waitParked polls the goroutine dump until n goroutines are blocked on
// a channel receive with frame on their stack, failing after 5 s.
func waitParked(t *testing.T, frame string, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[chan receive") && strings.Contains(g, frame) {
				got++
			}
		}
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines parked in %s, want %d", got, frame, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// withTimeout runs fn and fails the test if it has not returned within
// 5 s — the form every lock re-take check uses, so a leaked lock fails
// the test instead of hanging it.
func withTimeout(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer func() {
			if we := guard.RecoveredWorker(0, recover()); we != nil {
				t.Error(we)
			}
			close(done)
		}()
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked after 5 s (a lock left held?)", what)
	}
}

// TestRegistryLoadFailureNotCached: a failed load is retried by the
// next requester (half-open probes must see a fixed model file), and a
// subsequent success is cached.
func TestRegistryLoadFailureNotCached(t *testing.T) {
	mr := &modelRegistry{}
	boom := errors.New("disk on fire")
	var calls int
	_, err := mr.entry("p", nil, func() (*ptm.PTM, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	base := registryTestModel(t)
	e, err := mr.entry("p", nil, func() (*ptm.PTM, error) { calls++; return base, nil })
	if err != nil || e.base != base {
		t.Fatalf("retry after failure: err=%v", err)
	}
	if _, err := mr.entry("p", nil, func() (*ptm.PTM, error) { calls++; return nil, boom }); err != nil {
		t.Fatalf("cached entry should not reload: %v", err)
	}
	if calls != 2 {
		t.Fatalf("loads = %d, want 2 (fail, succeed, then cached)", calls)
	}
}

// TestRegistryLRUBound pins the entry cap at the breaker's 64-key bound
// and the eviction counter.
func TestRegistryLRUBound(t *testing.T) {
	base := registryTestModel(t)
	reg := obs.NewRegistry()
	evict := reg.Counter("test_evictions_total", "test")
	mr := &modelRegistry{}
	if _, err := mr.entry("", evict, func() (*ptm.PTM, error) { return base, nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxModelEntries+10; i++ {
		path := fmt.Sprintf("models/%d.json", i)
		if _, err := mr.entry(path, evict, func() (*ptm.PTM, error) { return base, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// The default entry ("") is exempt, so the bound is 64 + 1.
	if got := mr.len(); got > maxModelEntries+1 {
		t.Fatalf("registry holds %d entries, want <= %d", got, maxModelEntries+1)
	}
	if got := evict.Value(); got < 10 {
		t.Fatalf("evictions = %d, want >= 10", got)
	}
	// The freshest path must have survived; the oldest must not.
	mr.mu.Lock()
	_, newest := mr.entries[fmt.Sprintf("models/%d.json", maxModelEntries+9)]
	_, oldest := mr.entries["models/0.json"]
	_, def := mr.entries[""]
	mr.mu.Unlock()
	if !newest || oldest || !def {
		t.Fatalf("LRU order wrong: newest=%v oldest=%v default=%v", newest, oldest, def)
	}
}

// TestTopoCacheBound pins the runner's named-topology cache (one graph
// per name) at the registry's entry bound
// and at its size bound: a client walking distinct topology names cannot
// grow it, every drop is counted, and a cached name resolves to the same
// shared graph.
func TestTopoCacheBound(t *testing.T) {
	reg := obs.NewRegistry()
	r := &ScenarioRunner{CacheEvictions: reg.Counter("dqn_runner_cache_evictions_total", "test")}
	const names = 200
	for i := 0; i < names; i++ {
		req := &Request{Topo: fmt.Sprintf("line%d", i+2), Fidelity: "fast"}
		if _, err := r.Run(context.Background(), req, RunAnalytic); err != nil {
			t.Fatalf("%s: %v", req.Topo, err)
		}
		r.mu.Lock()
		n, pairs := len(r.topos), 0
		for _, nt := range r.topos {
			pairs += nt.g.NumNodes() * nt.g.NumNodes()
		}
		r.mu.Unlock()
		if n > maxModelEntries || pairs > maxCachedTopoPairs {
			t.Fatalf("after %d names: %d topologies (bound %d), %d node pairs (bound %d)",
				i+1, n, maxModelEntries, pairs, maxCachedTopoPairs)
		}
	}
	// Every name was inserted once, so whatever is not cached was evicted.
	if got, want := r.CacheEvictions.Value(), uint64(names-len(r.topos)); got != want || got < names-maxModelEntries {
		t.Fatalf("evictions = %d, want %d (>= %d)", got, want, names-maxModelEntries)
	}

	a, err := r.topology("fattree16")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.topology("fattree16")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("a cached topology name resolved to two different graphs")
	}
	// A graph too large for the size bound even alone is refused from its
	// name as a bad request, before its builder runs, and never cached.
	req := &Request{Topo: "line2000", Fidelity: "fast"} // 4000 nodes
	if _, err := r.Run(context.Background(), req, RunAnalytic); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("line2000: want ErrBadRequest, got %v", err)
	}
	r.mu.Lock()
	_, cached := r.topos["line2000"]
	r.mu.Unlock()
	if cached {
		t.Fatal("a topology above experiments.MaxTopoNodes was cached")
	}
}

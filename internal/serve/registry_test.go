package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"deepqueuenet/internal/checkpoint"
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
// cold-start requesters and verifies the model is loaded exactly once,
// every caller gets the same entry and the same lazily computed digest.
// Run under -race this also proves the registry's locking discipline.
func TestRegistryColdStartSingleflight(t *testing.T) {
	base := registryTestModel(t)
	var loads atomic.Int64
	mr := &modelRegistry{}

	const goroutines = 32
	entries := make([]*modelEntry, goroutines)
	digests := make([]string, goroutines)
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
				return base, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
			d, err := e.baseDigest()
			if err != nil {
				t.Error(err)
				return
			}
			digests[i] = d
		}(i)
	}
	wg.Wait()

	if n := loads.Load(); n != 1 {
		t.Fatalf("cold-start loads = %d, want exactly 1 (singleflight)", n)
	}
	for i := 1; i < goroutines; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("goroutine %d got a different entry", i)
		}
		if digests[i] != digests[0] {
			t.Fatalf("goroutine %d got a different digest", i)
		}
	}
	if entries[0].base != base {
		t.Fatal("the entry does not hold the loaded model")
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

// TestTopoCacheBound pins the runner's named-topology cache (graph +
// checkpoint digest, one entry per name) at the registry's entry bound
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
	if a.topoDigest() == "" || a.topoDigest() != checkpoint.TopoDigest(a.g) {
		t.Fatal("cached digest disagrees with checkpoint.TopoDigest")
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

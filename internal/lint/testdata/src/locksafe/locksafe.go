// Package locksafe is the golden fixture for the lock-discipline
// analyzer: leaks on return paths, blocking operations under a held
// mutex, dynamic callbacks under a lock, and helpers called under a
// lock that block one or more calls down.
package locksafe

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	vals map[string]int
	ch   chan int
	cb   func()
}

func (s *store) leak(k string) int {
	s.mu.Lock()
	if v, ok := s.vals[k]; ok {
		return v // want "not released on this return path"
	}
	s.mu.Unlock()
	return 0
}

func (s *store) good(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[k]
}

func (s *store) sleepy() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding s.mu"
	s.mu.Unlock()
}

func (s *store) sendUnder() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1 // want "channel send while holding"
}

func (s *store) recvUnder() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return <-s.ch // want "channel receive while holding"
}

func (s *store) ioUnder(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.MkdirAll(path, 0o755) // want "os.MkdirAll file IO while holding"
}

func (s *store) callback() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cb() // want "dynamic call through a function value"
}

func (s *store) selectUnder() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select without default while holding"
	case v := <-s.ch:
		s.vals["v"] = v
	}
}

func (s *store) nonBlockingSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch: // receive as a select comm clause is the select's own wait
		s.vals["v"] = v
	default:
	}
}

// branchy holds the lock on only some merged paths: maybe-held state
// must not produce a leak report.
func (s *store) branchy(c bool) {
	if c {
		s.mu.Lock()
	}
	if c {
		s.mu.Unlock()
	}
}

// fatal panics on the failure path: that path is terminated, not leaked.
func (s *store) fatal() {
	s.mu.Lock()
	if s.vals == nil {
		panic("nil store")
	}
	s.mu.Unlock()
}

// deferLit releases through a deferred literal: recognized, no report.
func (s *store) deferLit() {
	s.mu.Lock()
	defer func() { s.mu.Unlock() }()
	s.vals["a"] = 1
}

// spawnBody returns a closure with its own lock discipline.
func (s *store) spawnBody() func() {
	return func() {
		s.mu.Lock()
		time.Sleep(time.Nanosecond) // want "time.Sleep while holding"
		s.mu.Unlock()
	}
}

// snapshotThenCall is the PR 5 pattern the analyzer must accept:
// snapshot under the lock, invoke the callback after Unlock.
func (s *store) snapshotThenCall() {
	s.mu.Lock()
	cb := s.cb
	s.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// writeFile has atomicfile.WriteFile's shape: the file IO happens one
// call below whoever holds a lock across it.
func writeFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// put is the job store's record write with the atomic file write moved
// under the store's mutex.
func (s *store) put(path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeFile(path, data) // want "calls locksafe.writeFile, which does os.CreateTemp file IO while holding s.mu"
}

// persist is one more frame between the lock and the IO.
func persist(path string) error { return writeFile(path, nil) }

func (s *store) putVia(path string) {
	s.mu.Lock()
	_ = persist(path) // want "calls locksafe.persist, which calls locksafe.writeFile, which does os.CreateTemp"
	s.mu.Unlock()
}

// metrics has the plane's flush metrics' shape: atomic counters only.
type metrics struct {
	calls   atomic.Uint64
	flushes atomic.Uint64
	out     chan int
}

// observeFlush records one flush with two atomic adds: followed into,
// it does nothing that blocks.
func (m *metrics) observeFlush(batch int) {
	m.calls.Add(uint64(batch))
	m.flushes.Add(1)
}

// export hands a sample to a reader: a channel send inside a method.
func (m *metrics) export(v int) { m.out <- v }

type plane struct {
	mu      sync.Mutex
	pending int
	met     *metrics
}

// flush with its metrics observed under p.mu: the method call is
// followed, and atomic adds are not blocking operations.
func (p *plane) flush(batch int) {
	p.mu.Lock()
	p.pending -= batch
	p.met.observeFlush(batch)
	p.mu.Unlock()
}

func (p *plane) flushExport(batch int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.met.export(batch) // want "calls \(\*locksafe.metrics\).export, which does channel send while holding p.mu"
}

// depth recurses: the visited set ends the walk.
func depth(n int) int {
	if n == 0 {
		return 0
	}
	return depth(n-1) + 1
}

// ping and pong block only at the end of a cycle of calls.
func ping(n int, ch chan int) {
	if n > 0 {
		pong(n-1, ch)
	}
}

func pong(n int, ch chan int) {
	ping(n, ch)
	ch <- n
}

// later blocks only on other frames: in a goroutine it starts and in a
// literal it returns, neither of which runs on the caller's frame.
func later(ch chan int) func() {
	go func() { ch <- 1 }()
	return func() { <-ch }
}

// try never waits: a select with a default.
func try(ch chan int) bool {
	select {
	case ch <- 1:
		return true
	default:
		return false
	}
}

func (s *store) helpersUnder() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals["d"] = depth(3)
	_ = later(s.ch)
	_ = try(s.ch)
	ping(2, s.ch) // want "calls locksafe.ping, which calls locksafe.pong, which does channel send"
}

// Package locksafe is the golden fixture for the lock-discipline
// analyzer: leaks on return paths, blocking operations under a held
// mutex, and dynamic callbacks under a lock.
package locksafe

import (
	"os"
	"sync"
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

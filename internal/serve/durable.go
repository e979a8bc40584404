package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"deepqueuenet/internal/atomicfile"
)

// Job statuses. pending and interrupted are recoverable: a restarted
// server re-enqueues them and re-runs each from scratch. parked is a
// dead letter: the job failed in a way that charged its model's circuit
// breaker, so its record is kept on disk for inspection but it is not
// retried automatically. The remaining statuses are terminal.
const (
	JobPending     = "pending"
	JobInterrupted = "interrupted"
	JobParked      = "parked"
	JobCompleted   = "completed"
	JobFailed      = "failed"
	JobCanceled    = "canceled"
	JobDeadline    = "deadline"
)

// JobRecord is the durable state of one admitted job, persisted as JSON
// under StateDir and updated atomically at every status transition. A
// record whose process dies mid-run simply stays at its last written
// status — which is exactly what the recovery scan keys on.
type JobRecord struct {
	ID      string   `json:"id"`
	Request *Request `json:"request"`
	Status  string   `json:"status"`
	// Restarts counts how many server processes have picked this job up
	// beyond the one that admitted it.
	Restarts int     `json:"restarts,omitempty"`
	Result   *Result `json:"result,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// recoverable reports whether a restarted server should re-enqueue the
// record.
func (r *JobRecord) recoverable() bool {
	return r.Status == JobPending || r.Status == JobInterrupted
}

// jobStore persists job records under one state directory:
//
//	<dir>/jobs/<id>.json  — JobRecord, atomically replaced per transition
//
// Any other entry under <dir> (such as the ckpt/ snapshots of older
// servers) is ignored.
type jobStore struct {
	dir string

	mu  sync.Mutex
	seq uint64
}

// openJobStore creates the layout and seeds the ID sequence past every
// existing record, so a restarted server never reuses an ID.
func openJobStore(dir string) (*jobStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: create state dir: %w", err)
	}
	st := &jobStore{dir: dir}
	entries, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("serve: scan state dir: %w", err)
	}
	for _, e := range entries {
		var n uint64
		if _, err := fmt.Sscanf(e.Name(), "job-%d.json", &n); err == nil && n > st.seq {
			st.seq = n
		}
	}
	return st, nil
}

// newID mints the next job ID.
func (st *jobStore) newID() string {
	st.mu.Lock()
	st.seq++
	id := fmt.Sprintf("job-%08d", st.seq)
	st.mu.Unlock()
	return id
}

// validJobID guards HTTP-supplied IDs against path traversal: only the
// exact shape newID mints is ever looked up.
func validJobID(id string) bool {
	if !strings.HasPrefix(id, "job-") || len(id) > 64 {
		return false
	}
	for _, c := range id[4:] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return len(id) > 4
}

func (st *jobStore) recordPath(id string) string {
	return filepath.Join(st.dir, "jobs", id+".json")
}

// put atomically replaces the record file (atomicfile.WriteFile: a
// crash leaves the previous record or the new one, never a torn file).
func (st *jobStore) put(rec *JobRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: marshal job record: %w", err)
	}
	if err := atomicfile.WriteFile(st.recordPath(rec.ID), data, 0o600); err != nil {
		return fmt.Errorf("serve: persist job record: %w", err)
	}
	return nil
}

// get loads one record.
func (st *jobStore) get(id string) (*JobRecord, error) {
	data, err := os.ReadFile(st.recordPath(id))
	if err != nil {
		return nil, err
	}
	var rec JobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("serve: decode job record %s: %w", id, err)
	}
	return &rec, nil
}

// remove deletes a record (admission rollback for shed jobs).
func (st *jobStore) remove(id string) {
	os.Remove(st.recordPath(id))
}

// recoverable scans for records a restarted server must re-enqueue,
// in ID order so recovery is deterministic.
func (st *jobStore) recoverable() ([]*JobRecord, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	var recs []*JobRecord
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".json")
		if name == e.Name() || !validJobID(name) {
			continue
		}
		rec, err := st.get(name)
		if err != nil {
			continue // a torn record cannot happen (atomic rename); skip foreign files
		}
		if rec.recoverable() {
			recs = append(recs, rec)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, nil
}

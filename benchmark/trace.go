package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the span that caused
// this one (0 for a root); Req is shared by every span of one operation.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. All methods are
// goroutine-safe: shard goroutines, server workers and load-generator
// clients all record into one tracer.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// reserve hands out a span ID before the span's interval is known, so
// children recorded while the operation is still running can name their
// parent.
func (t *tracer) reserve() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// put records a span under an ID obtained from reserve.
func (t *tracer) put(id, parent, req int64, name string, start, end time.Time) {
	t.mu.Lock()
	t.record(id, parent, req, name, start, end)
	t.mu.Unlock()
}

// add records a span and returns its new ID.
func (t *tracer) add(parent, req int64, name string, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.record(t.next, parent, req, name, start, end)
	return t.next
}

// record appends a span; the caller holds mu.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// nameStat aggregates the spans of one name.
type nameStat struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of self times
}

// coveredNs returns how much of [lo, hi] the given intervals cover.
// Intervals are clipped to [lo, hi] and may overlap (parallel shard
// spans do): the union is counted once.
func coveredNs(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var covered int64
	end := lo
	for _, iv := range clipped {
		if iv[0] > end {
			end = iv[0]
		}
		if iv[1] > end {
			covered += iv[1] - end
			end = iv[1]
		}
	}
	return covered
}

// selfTimes computes, per span name, the count, the summed duration and
// the summed self time, where a span's self time is its duration minus
// the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string]nameStat {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]nameStat)
	for _, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		st := out[s.Name]
		st.Count++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - coveredNs(s.Start, s.End, children[s.ID]))
		out[s.Name] = st
	}
	return out
}

// rootTotals returns the summed duration and summed self time of the
// root spans (Parent == 0): the operations' wall time and the part of it
// that no named child span accounts for.
func rootTotals(spans []span, stats map[string]nameStat) (total, self time.Duration) {
	seen := make(map[string]bool)
	for _, s := range spans {
		if s.Parent == 0 && !seen[s.Name] {
			seen[s.Name] = true
			total += stats[s.Name].Total
			self += stats[s.Name].Self
		}
	}
	return total, self
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// writeSelfTable prints the per-span-name self-time table, largest self
// time first.
func writeSelfTable(w io.Writer, stats map[string]nameStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if stats[names[i]].Self != stats[names[j]].Self {
			return stats[names[i]].Self > stats[names[j]].Self
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "  %-18s %-12s %9s %12s %12s\n", "span", "layer", "count", "total_s", "self_s")
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(w, "  %-18s %-12s %9d %12.4f %12.4f\n", n, layerOf(n), st.Count,
			st.Total.Seconds(), st.Self.Seconds())
	}
}

// maxTraceFileSpans caps the spans written to a trace file: the fast
// serving workload records a few hundred thousand, and the self-time
// table is computed from all of them in memory either way.
const maxTraceFileSpans = 50000

// traceFile is the on-disk trace format.
type traceFile struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Spans     int    `json:"spans_recorded"`
	Truncated bool   `json:"truncated"`
	Data      []span `json:"spans"`
}

// writeTrace writes the spans to dir/trace-<workload>.json.
func writeTrace(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	tf := traceFile{Workload: workload, Seed: seed, Spans: len(spans), Data: spans}
	if len(spans) > maxTraceFileSpans {
		tf.Truncated = true
		tf.Data = spans[:maxTraceFileSpans]
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("encoding trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}

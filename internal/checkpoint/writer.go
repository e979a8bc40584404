package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"time"

	"deepqueuenet/internal/atomicfile"
	"deepqueuenet/internal/core"
	"deepqueuenet/internal/obs"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/topo"
)

// Load reads and decodes a snapshot file, refusing files over MaxSize
// before reading a byte of payload.
func Load(path string) (*Snapshot, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: stat %s: %w", path, err)
	}
	if fi.Size() > MaxSize {
		return nil, fmt.Errorf("%w: %s is %d bytes (cap %d)", ErrTooLarge, path, fi.Size(), MaxSize)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// TopoDigest fingerprints a topology bit-exactly: node kinds, names,
// and every port's peer, rate, and delay. Two graphs share a digest iff
// a snapshot taken on one can be resumed on the other.
func TopoDigest(g *topo.Graph) string {
	h := sha256.New()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w(uint64(len(g.Kinds)))
	for i, k := range g.Kinds {
		w(uint64(k))
		w(uint64(len(g.Names[i])))
		h.Write([]byte(g.Names[i]))
		w(uint64(len(g.Ports[i])))
		for _, p := range g.Ports[i] {
			w(uint64(p.Peer))
			w(uint64(p.PeerPort))
			w(math.Float64bits(p.RateBps))
			w(math.Float64bits(p.Delay))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ModelDigest fingerprints a trained model via its canonical serialized
// form, so a snapshot refuses to resume under different weights (which
// would silently change every inference).
func ModelDigest(m *ptm.PTM) (string, error) {
	blob, err := m.Marshal()
	if err != nil {
		return "", fmt.Errorf("checkpoint: marshal model for digest: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// Writer persists one snapshot file per epoch boundary, overwriting
// atomically so the newest durable state always lives at Path. Its
// encode buffer is reused across epochs: after the first snapshot the
// steady-state encode adds no allocations beyond the file I/O itself.
type Writer struct {
	// Path is the snapshot file location (its directory must exist).
	Path string
	// TopoDigest, ModelDigest, and Seed stamp each snapshot with the
	// run's identity for resume-time digest guarding.
	TopoDigest  string
	ModelDigest string
	Seed        uint64
	// NoSync skips the per-snapshot fsync. Benchmarks and tests on
	// tmpfs use it; durable serving keeps it false.
	NoSync bool
	// Metrics, when non-nil, records snapshot counts, sizes, and
	// latencies.
	Metrics *obs.CheckpointMetrics

	buf  []byte
	snap Snapshot
}

// Sink returns the core.EpochSink that persists each epoch. The
// EpochState handed to it aliases live engine buffers, so the sink
// encodes before returning — nothing is retained.
func (w *Writer) Sink() core.EpochSink {
	return func(st *core.EpochState) error {
		start := time.Now() //dqnlint:allow detguard checkpoint latency metric, not simulation state
		w.snap = Snapshot{
			TopoDigest:     w.TopoDigest,
			ModelDigest:    w.ModelDigest,
			TrafficDigest:  st.TrafficDigest,
			Seed:           w.Seed,
			Iter:           st.Iter,
			Delta:          st.Delta,
			WatchdogTrace:  st.WatchdogTrace,
			WatchdogGrowth: st.WatchdogGrowth,
			Sojourns:       st.Sojourns,
		}
		w.buf = appendEncode(w.buf[:0], &w.snap)
		if err := atomicfile.WriteFile(w.Path, w.buf, 0o600, w.NoSync); err != nil {
			if w.Metrics != nil {
				w.Metrics.SnapshotFailures.Inc()
			}
			return err
		}
		if w.Metrics != nil {
			w.Metrics.Snapshots.Inc()
			w.Metrics.SnapshotBytes.Observe(float64(len(w.buf)))
			w.Metrics.SnapshotSeconds.Observe(time.Since(start).Seconds()) //dqnlint:allow detguard checkpoint latency metric
		}
		return nil
	}
}

package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepqueuenet/internal/atomicfile"
	"deepqueuenet/internal/obs"
	"deepqueuenet/internal/ptm"
	"deepqueuenet/internal/topo"
)

// sample builds a representative snapshot with non-trivial shapes:
// ragged sojourn vectors, an empty one, special float values.
func sample() *Snapshot {
	return &Snapshot{
		TopoDigest:     strings.Repeat("ab", 32),
		ModelDigest:    strings.Repeat("cd", 32),
		TrafficDigest:  strings.Repeat("ef", 32),
		Seed:           7,
		Iter:           3,
		Delta:          1.25e-4,
		WatchdogTrace:  []float64{0.5, 0.25, 0.125, math.SmallestNonzeroFloat64},
		WatchdogGrowth: 1,
		Sojourns: [][]float64{
			{1e-6, 2e-6, 3e-6},
			{},
			{math.MaxFloat64, -0.0, 4.5e-5},
			{7e-7},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.TopoDigest != want.TopoDigest || got.ModelDigest != want.ModelDigest ||
		got.TrafficDigest != want.TrafficDigest || got.Seed != want.Seed ||
		got.Iter != want.Iter || got.Delta != want.Delta ||
		got.WatchdogGrowth != want.WatchdogGrowth {
		t.Fatalf("scalar fields differ: got %+v want %+v", got, want)
	}
	if len(got.WatchdogTrace) != len(want.WatchdogTrace) {
		t.Fatalf("trace length %d, want %d", len(got.WatchdogTrace), len(want.WatchdogTrace))
	}
	for i := range want.WatchdogTrace {
		if math.Float64bits(got.WatchdogTrace[i]) != math.Float64bits(want.WatchdogTrace[i]) {
			t.Fatalf("trace[%d] = %v, want %v", i, got.WatchdogTrace[i], want.WatchdogTrace[i])
		}
	}
	if len(got.Sojourns) != len(want.Sojourns) {
		t.Fatalf("sojourn count %d, want %d", len(got.Sojourns), len(want.Sojourns))
	}
	for i := range want.Sojourns {
		if len(got.Sojourns[i]) != len(want.Sojourns[i]) {
			t.Fatalf("packet %d hop count %d, want %d", i, len(got.Sojourns[i]), len(want.Sojourns[i]))
		}
		for j := range want.Sojourns[i] {
			if math.Float64bits(got.Sojourns[i][j]) != math.Float64bits(want.Sojourns[i][j]) {
				t.Fatalf("sojourn[%d][%d] = %v, want %v", i, j, got.Sojourns[i][j], want.Sojourns[i][j])
			}
		}
	}
}

func TestEncodeReuseIsStable(t *testing.T) {
	s := sample()
	fresh := Encode(s)
	var buf []byte
	for i := 0; i < 3; i++ {
		buf = appendEncode(buf[:0], s)
		if string(buf) != string(fresh) {
			t.Fatalf("reused-buffer encode #%d differs from fresh encode", i)
		}
	}
}

// corrupt flips one byte of a valid encoding at the given offset.
func corrupt(enc []byte, off int) []byte {
	out := append([]byte(nil), enc...)
	out[off] ^= 0xff
	return out
}

func TestDecodeRejectsHostileInputs(t *testing.T) {
	enc := Encode(sample())
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCorrupt},
		{"short", enc[:10], ErrCorrupt},
		{"bad magic", corrupt(enc, 0), ErrCorrupt},
		{"flipped payload byte", corrupt(enc, len(magic)+6), ErrCorrupt},
		{"flipped hash byte", corrupt(enc, len(enc)-1), ErrCorrupt},
		{"truncated tail", enc[:len(enc)-5], ErrCorrupt},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// rehash recomputes the trailing integrity hash so hostile payload
// mutations exercise the budget checks, not just the hash guard.
func rehash(payload []byte) []byte {
	enc := append([]byte(nil), payload...)
	sum := sha256.Sum256(enc)
	return append(enc, sum[:]...)
}

func TestDecodeRejectsBudgetViolations(t *testing.T) {
	enc := Encode(sample())
	payload := enc[:len(enc)-hashLen]

	// A hostile author who recomputes the hash must still be stopped by
	// the length budgets.
	t.Run("version", func(t *testing.T) {
		p := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint32(p[len(magic):], 99)
		if _, err := Decode(rehash(p)); !errors.Is(err, ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("giant packet count", func(t *testing.T) {
		// Truncate right after the watchdog trace and claim 4 billion
		// packets with no payload behind them.
		s := sample()
		s.Sojourns = nil
		base := Encode(s)
		p := append([]byte(nil), base[:len(base)-hashLen]...)
		binary.LittleEndian.PutUint32(p[len(p)-4:], math.MaxUint32)
		if _, err := Decode(rehash(p)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("giant trace length", func(t *testing.T) {
		s := sample()
		s.WatchdogTrace = nil
		s.Sojourns = nil
		base := Encode(s)
		p := append([]byte(nil), base[:len(base)-hashLen]...)
		// Trace length is the second-to-last u32 (trace len, packet count).
		binary.LittleEndian.PutUint32(p[len(p)-8:], math.MaxUint32)
		if _, err := Decode(rehash(p)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		p := append(append([]byte(nil), payload...), 1, 2, 3)
		if _, err := Decode(rehash(p)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

func TestValidate(t *testing.T) {
	s := sample()
	if err := s.Validate(s.TopoDigest, s.ModelDigest); err != nil {
		t.Fatalf("matching digests rejected: %v", err)
	}
	if err := s.Validate("", ""); err != nil {
		t.Fatalf("empty expectations rejected: %v", err)
	}
	if err := s.Validate("other", s.ModelDigest); !errors.Is(err, ErrMismatch) {
		t.Fatalf("topo mismatch: err = %v, want ErrMismatch", err)
	}
	if err := s.Validate(s.TopoDigest, "other"); !errors.Is(err, ErrMismatch) {
		t.Fatalf("model mismatch: err = %v, want ErrMismatch", err)
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	s := sample()
	if err := atomicfile.WriteFile(path, Encode(s), 0o600, true); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Iter != s.Iter || got.TrafficDigest != s.TrafficDigest {
		t.Fatalf("loaded snapshot differs: %+v", got)
	}
	// Overwrite with a later epoch; the file must hold exactly the new
	// snapshot and no temp files may linger.
	s.Iter = 9
	if err := atomicfile.WriteFile(path, Encode(s), 0o600, true); err != nil {
		t.Fatalf("second Save: %v", err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if got.Iter != 9 {
		t.Fatalf("Iter = %d after overwrite, want 9", got.Iter)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after atomic saves, want 1", len(entries))
	}
}

func TestLoadRejectsMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "absent.ckpt")); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestDigests(t *testing.T) {
	g1 := topo.Line(4, topo.DefaultLAN)
	g2 := topo.Line(4, topo.DefaultLAN)
	if TopoDigest(g1) != TopoDigest(g2) {
		t.Fatal("identical topologies hash differently")
	}
	g3 := topo.Line(5, topo.DefaultLAN)
	if TopoDigest(g1) == TopoDigest(g3) {
		t.Fatal("different topologies share a digest")
	}

	arch := ptm.Arch{TimeSteps: 8, Margin: 2, Embed: 4, BLSTM1: 4, BLSTM2: 4, Heads: 1, DK: 4, DV: 4, HeadOut: 4}
	m1, err := ptm.Synthetic(arch, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ptm.Synthetic(arch, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := ptm.Synthetic(arch, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := ModelDigest(m1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ModelDigest(m2)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := ModelDigest(m3)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("identical models hash differently")
	}
	if d1 == d3 {
		t.Fatal("different models share a digest")
	}
}

func TestWriterSink(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	w := &Writer{
		Path:        filepath.Join(dir, "job.ckpt"),
		TopoDigest:  "topo",
		ModelDigest: "model",
		Seed:        42,
		NoSync:      true,
		Metrics:     obs.NewCheckpointMetrics(reg),
	}
	sink := w.Sink()
	src := sample()
	for iter := 1; iter <= 3; iter++ {
		st := src.EpochState()
		st.Iter = iter
		if err := sink(st); err != nil {
			t.Fatalf("sink at iter %d: %v", iter, err)
		}
	}
	got, err := Load(w.Path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Iter != 3 || got.Seed != 42 || got.TopoDigest != "topo" || got.ModelDigest != "model" {
		t.Fatalf("final snapshot = %+v, want iter 3 seed 42", got)
	}
	if err := got.Validate("topo", "model"); err != nil {
		t.Fatal(err)
	}
}

func TestWriterSinkFailsCleanly(t *testing.T) {
	w := &Writer{Path: filepath.Join(t.TempDir(), "no", "such", "dir", "job.ckpt"), NoSync: true}
	if err := w.Sink()(sample().EpochState()); err == nil {
		t.Fatal("sink into missing directory succeeded")
	}
}

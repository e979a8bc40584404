package ptm

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepqueuenet/internal/dbscan"
)

// faultModel builds a small valid PTM for corruption tests.
func faultModel(t *testing.T) *PTM {
	t.Helper()
	m, err := New(Arch{TimeSteps: 8, Margin: 2, Embed: 4, BLSTM1: 4, BLSTM2: 4,
		Heads: 1, DK: 2, DV: 2, HeadOut: 4}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Feat = &MinMax{Min: make([]float64, NumFeatures), Max: make([]float64, NumFeatures)}
	for i := range m.Feat.Max {
		m.Feat.Max[i] = 1
	}
	m.TargetMax = 1
	return m
}

func TestLoadWrapsPathOnMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.ptm.json")
	_, err := Load(path)
	if err == nil {
		t.Fatal("missing file must error")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error must carry the file path: %v", err)
	}
}

func TestLoadRejectsCorruptedJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.ptm.json")
	data, err := faultModel(t).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"truncated": data[:len(data)/2],
		// A concatenated or torn write: a whole model, then the start of
		// another. encoding/json's Decoder stopped after the first value.
		"trailing bytes": append(append([]byte(nil), data...), " {"...),
	} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Load(path)
		if err == nil {
			t.Fatalf("%s model file must be rejected", name)
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: error must carry the file path: %v", name, err)
		}
	}
}

func TestMarshalRefusesNaNWeights(t *testing.T) {
	m := faultModel(t)
	m.Net.Params()[0].W.Data[0] = math.NaN()
	if _, err := m.Marshal(); err == nil {
		t.Fatal("NaN weights must not serialize")
	}
}

func TestLoadRejectsPoisonedWeightFile(t *testing.T) {
	// A weight literal rewritten on disk to an out-of-range value — the
	// on-disk form of a poisoned model — must be rejected with a
	// path-bearing error.
	good := faultModel(t)
	path := filepath.Join(t.TempDir(), "poisoned.ptm.json")
	if err := good.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := strings.Replace(string(raw), `"weights":[[`, `"weights":[[1e999,`, 1)
	if poisoned == string(raw) {
		t.Fatal("failed to poison weights literal")
	}
	if err := os.WriteFile(path, []byte(poisoned), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if err == nil {
		t.Fatal("poisoned weight file must be rejected")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error must carry the file path: %v", err)
	}
}

func TestUnmarshalRejectsUnknownFields(t *testing.T) {
	data, err := faultModel(t).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(data), "{", `{"surprise_field":42,`, 1)
	if _, err := Unmarshal([]byte(bad)); err == nil {
		t.Fatal("unknown top-level field must be rejected")
	}
}

func TestUnmarshalRejectsFutureSchema(t *testing.T) {
	data, err := faultModel(t).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(data), `"schema":1`, `"schema":99`, 1)
	if bad == string(data) {
		t.Fatal("marshaled model missing schema field")
	}
	_, err = Unmarshal([]byte(bad))
	if err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("future schema version must be rejected: %v", err)
	}
}

func TestRoundTripCarriesSchemaVersion(t *testing.T) {
	m := faultModel(t)
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"schema":1`) {
		t.Fatal("marshal must stamp the schema version")
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPorts != m.NumPorts || back.TimeSteps != m.TimeSteps {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestLegacyFileWithoutSchemaLoads(t *testing.T) {
	// Pre-versioning files carry no "schema" field and must keep loading.
	data, err := faultModel(t).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(data), `"schema":1,`, "", 1)
	if legacy == string(data) {
		t.Fatal("failed to strip schema field")
	}
	if _, err := Unmarshal([]byte(legacy)); err != nil {
		t.Fatalf("legacy schema-less file must load: %v", err)
	}
}

func TestShippedModelsStillLoad(t *testing.T) {
	// Regression guard: the pre-versioning models shipped in models/
	// must pass the strict decoding and validation, and decode to the
	// same model as the encoding/json reference, byte for byte.
	dir := filepath.Join("..", "..", "models")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("models dir unavailable: %v", err)
	}
	loaded := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".ptm.json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		m, err := Load(path)
		if err != nil {
			t.Fatalf("shipped model %s: %v", e.Name(), err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceUnmarshal(raw)
		if err != nil {
			t.Fatalf("shipped model %s: reference: %v", e.Name(), err)
		}
		got, _ := m.Marshal()
		want, _ := ref.Marshal()
		if !bytes.Equal(got, want) {
			t.Fatalf("shipped model %s: Marshal bytes differ from the reference decode", e.Name())
		}
		loaded++
	}
	if loaded == 0 {
		t.Skip("no shipped models found")
	}
}

func TestValidateCatchesStructuralFaults(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*PTM)
		want    string
	}{
		{"nil net", func(p *PTM) { p.Net = nil }, "no network"},
		{"zero window", func(p *PTM) { p.TimeSteps = 0 }, "window"},
		{"margin too large", func(p *PTM) { p.Margin = p.TimeSteps }, "margin"},
		{"bad ports", func(p *PTM) { p.NumPorts = 0 }, "port count"},
		{"nan target", func(p *PTM) { p.TargetMax = math.NaN() }, "target range"},
		{"inverted target", func(p *PTM) { p.TargetMin = 2; p.TargetMax = 1 }, "target range"},
		{"scaler width", func(p *PTM) { p.Feat.Min = p.Feat.Min[:3] }, "scaler width"},
		{"nan scaler", func(p *PTM) { p.Feat.Max[0] = math.NaN() }, "scaler stats"},
		{"inverted scaler", func(p *PTM) { p.Feat.Min[1] = 5; p.Feat.Max[1] = 1 }, "inverted scaler"},
		{"nan weight", func(p *PTM) { p.Net.Params()[0].W.Data[0] = math.NaN() }, "non-finite weight"},
		{"inf weight", func(p *PTM) { p.Net.Params()[1].W.Data[0] = math.Inf(1) }, "non-finite weight"},
		{"nan sec bin", func(p *PTM) {
			p.SECBins = append(p.SECBins, dbscan.Bin{Lo: math.NaN()})
		}, "SEC bin"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := faultModel(t)
			c.corrupt(m)
			err := m.Validate()
			if err == nil {
				t.Fatalf("%s: Validate must fail", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s: error %q missing %q", c.name, err, c.want)
			}
		})
	}
	if err := faultModel(t).Validate(); err != nil {
		t.Fatalf("pristine model must validate: %v", err)
	}
}

func TestNilModelValidate(t *testing.T) {
	var p *PTM
	if err := p.Validate(); err == nil {
		t.Fatal("nil model must fail validation")
	}
}

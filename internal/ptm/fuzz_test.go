package ptm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepqueuenet/internal/dbscan"
	"deepqueuenet/internal/nn"
)

// referenceUnmarshal is the encoding/json decode Unmarshal replaced: the
// document is decoded with the net kept raw, and the net is then decoded
// again. It is kept as the oracle the strict reader is compared against.
func referenceUnmarshal(data []byte) (*PTM, error) {
	var sp struct {
		Version   int             `json:"schema,omitempty"`
		Net       json.RawMessage `json:"net"`
		Feat      *MinMax         `json:"feat"`
		TargetMin float64         `json:"target_min"`
		TargetMax float64         `json:"target_max"`
		TimeSteps int             `json:"time_steps"`
		Margin    int             `json:"margin"`
		NumPorts  int             `json:"num_ports"`
		SECBins   []dbscan.Bin    `json:"sec_bins,omitempty"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, err
	}
	if sp.Version > SchemaVersion {
		return nil, fmt.Errorf("schema version %d", sp.Version)
	}
	if sp.TimeSteps <= 0 {
		return nil, errors.New("non-positive window size")
	}
	var sm nn.SavedModel
	dec = json.NewDecoder(bytes.NewReader(sp.Net))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sm); err != nil {
		return nil, err
	}
	net, err := sm.Model()
	if err != nil {
		return nil, err
	}
	p := &PTM{Net: net, Feat: sp.Feat, TargetMin: sp.TargetMin,
		TargetMax: sp.TargetMax, TimeSteps: sp.TimeSteps, Margin: sp.Margin,
		NumPorts: sp.NumPorts, SECBins: sp.SECBins}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// fuzzBase is the small valid model the fuzz seeds are built from.
func fuzzBase(tb testing.TB) []byte {
	tb.Helper()
	p, err := New(Arch{TimeSteps: 4, Embed: 6, BLSTM1: 4, BLSTM2: 4, Heads: 1, DK: 2, DV: 2, HeadOut: 4}, 2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	p.TargetMax = 1
	data, err := p.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// stricterCase is one input encoding/json accepts and the strict reader
// rejects on purpose.
type stricterCase struct {
	name string
	data []byte
}

// stricterCases returns one input per difference DESIGN.md lists.
func stricterCases(tb testing.TB) []stricterCase {
	base := string(fuzzBase(tb))
	edit := func(from, to string) []byte {
		if !strings.Contains(base, from) {
			tb.Fatalf("base model lacks %q", from)
		}
		return []byte(strings.Replace(base, from, to, 1))
	}
	return []stricterCase{
		{"trailing bytes", []byte(base + " {")},
		{"case-folded key", edit(`"margin"`, `"MARGIN"`)},
		{"duplicate key", edit(`{"schema":1,`, `{"schema":1,"schema":1,`)},
		{"escape in key", edit(`"margin"`, `"\u006dargin"`)},
		{"escape in kind", edit(`"kind":"dense"`, `"kind":"\u0064ense"`)},
		{"null for a number", edit(`"margin":1`, `"margin":null`)},
		{"null for the net", []byte(`{"net":null,"time_steps":4,"num_ports":1}`)},
	}
}

// TestStricterThanReference pins each deliberate difference: encoding/json
// loads the input, the strict reader refuses it.
func TestStricterThanReference(t *testing.T) {
	for _, c := range stricterCases(t) {
		if _, err := referenceUnmarshal(c.data); err != nil {
			t.Errorf("%s: the reference rejects it too (%v); not a difference", c.name, err)
		}
		if _, err := Unmarshal(c.data); err == nil {
			t.Errorf("%s: the strict reader accepted it", c.name)
		}
	}
}

// FuzzPTMLoad fuzzes the on-disk model decoder: arbitrary bytes must
// either be rejected with an error or produce a structurally valid
// model that survives a marshal/unmarshal round trip. A panic or an
// invalid accepted model is a finding — Unmarshal is the trust boundary
// for every model file loaded off disk. It is also the strict reader's
// differential oracle: whatever Unmarshal accepts, the encoding/json
// reference accepts too, with identical Marshal bytes.
func FuzzPTMLoad(f *testing.F) {
	// Seed corpus: a real marshaled model, then structured variations
	// that steer the fuzzer toward the JSON schema's interesting edges.
	f.Add(fuzzBase(f))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"schema":99,"net":{},"time_steps":4}`))
	f.Add([]byte(`{"schema":1,"net":null,"time_steps":-1}`))
	f.Add([]byte(`{"net":{"specs":[],"weights":[]},"time_steps":4,"num_ports":2,"target_min":0,"target_max":1}`))
	f.Add([]byte(`{"net":{"specs":[{"kind":"dense","in":1,"out":1}],"weights":[[1e999]]},"time_steps":4}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	// Every shipped model, then one seed per strictness difference.
	files, err := filepath.Glob(filepath.Join("..", "..", "models", "*.ptm.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no shipped models found: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, c := range stricterCases(f) {
		f.Add(c.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Accepted models must pass their own validator...
		if verr := m.Validate(); verr != nil {
			t.Fatalf("Unmarshal accepted a model that fails Validate: %v", verr)
		}
		out, err := m.Marshal()
		if err != nil {
			t.Fatalf("accepted model does not re-marshal: %v", err)
		}
		// ...decode exactly as the encoding/json reference does...
		ref, err := referenceUnmarshal(data)
		if err != nil {
			t.Fatalf("strict reader accepted what the encoding/json reference rejects: %v", err)
		}
		refOut, err := ref.Marshal()
		if err != nil {
			t.Fatalf("reference model does not re-marshal: %v", err)
		}
		if !bytes.Equal(out, refOut) {
			t.Fatalf("strict and reference decodes differ:\n%s\nvs\n%s", out, refOut)
		}
		// ...and round-trip losslessly through the writer.
		m2, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-marshaled model does not decode: %v", err)
		}
		out2, err := m2.Marshal()
		if err != nil {
			t.Fatalf("round-tripped model does not re-marshal: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("marshal is not a fixed point:\n%s\nvs\n%s", out, out2)
		}
	})
}

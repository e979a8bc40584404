package nn

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

// buildToy returns a small PTM-shaped seq2seq model (T×2 -> T×1).
func buildToy(seed uint64) *Sequential {
	r := rng.New(seed)
	return NewSequential(
		NewDense(2, 8, r),
		NewTanh(),
		NewBLSTM(8, 6, r),
		NewMultiHeadSelfAttention(12, 8, 2, 4, 4, r),
		NewDense(8, 1, r),
	)
}

// toyDataset: per-timestep target is a local function of the sequence —
// the current value of feature 0 plus half the previous value of
// feature 1 (y_0 uses feature 1 of position 0).
func toyDataset(n, T int, seed uint64) *Dataset {
	r := rng.New(seed)
	ds := &Dataset{}
	for i := 0; i < n; i++ {
		x := tensor.New(T, 2)
		for t := 0; t < T; t++ {
			x.Set(t, 0, r.Uniform(0, 1))
			x.Set(t, 1, r.Uniform(0, 1))
		}
		y := tensor.New(T, 1)
		for t := 0; t < T; t++ {
			prev := t - 1
			if prev < 0 {
				prev = 0
			}
			y.Set(t, 0, x.At(t, 0)+0.5*x.At(prev, 1))
		}
		ds.Append(x, y, 0, T)
	}
	return ds
}

func TestTrainingReducesLoss(t *testing.T) {
	model := buildToy(1)
	ds := toyDataset(400, 8, 2)
	before := Evaluate(model, ds)
	Train(model, ds, TrainConfig{Epochs: 10, BatchSize: 32, LR: 0.005, Workers: 2, Seed: 3})
	after := Evaluate(model, ds)
	if after >= before {
		t.Fatalf("loss did not decrease: %v -> %v", before, after)
	}
	if after > before*0.3 {
		t.Fatalf("loss reduced too little: %v -> %v", before, after)
	}
}

func TestTrainDeterministicGivenSeedAndWorkers(t *testing.T) {
	// With a single worker, runs must be bit-identical.
	ds := toyDataset(100, 6, 5)
	m1, m2 := buildToy(7), buildToy(7)
	Train(m1, ds, TrainConfig{Epochs: 2, BatchSize: 16, LR: 0.01, Workers: 1, Seed: 9})
	Train(m2, ds, TrainConfig{Epochs: 2, BatchSize: 16, LR: 0.01, Workers: 1, Seed: 9})
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		for j := range p1[i].W.Data {
			if p1[i].W.Data[j] != p2[i].W.Data[j] {
				t.Fatalf("nondeterministic training at param %d[%d]", i, j)
			}
		}
	}
}

// TestTrainBitIdenticalAcrossWorkers: the gradient is reduced over a
// fixed set of batch shards in shard order, so 1, 2 and 3 workers —
// 3 does not divide the shard count — train bit-identical parameters
// over several epochs with a ragged last batch.
func TestTrainBitIdenticalAcrossWorkers(t *testing.T) {
	ds := toyDataset(50, 6, 23)
	train := func(workers int) []*Param {
		m := buildToy(29)
		Train(m, ds, TrainConfig{Epochs: 3, BatchSize: 12, LR: 0.01, Workers: workers, Seed: 31})
		return m.Params()
	}
	want := train(1)
	for _, workers := range []int{2, 3} {
		got := train(workers)
		for i := range want {
			for j, w := range want[i].W.Data {
				if math.Float64bits(got[i].W.Data[j]) != math.Float64bits(w) {
					t.Fatalf("workers=%d: param %d[%d] = %v, workers=1 gives %v", workers, i, j, got[i].W.Data[j], w)
				}
			}
		}
	}
}

func TestWorkerCountDoesNotChangeGradientMath(t *testing.T) {
	// One full-batch step with 1 vs 3 workers must produce (nearly)
	// identical parameters: gradient averaging is associative.
	ds := toyDataset(30, 5, 11)
	m1, m3 := buildToy(13), buildToy(13)
	cfg := TrainConfig{Epochs: 1, BatchSize: 30, LR: 0.01, Seed: 17}
	cfg.Workers = 1
	Train(m1, ds, cfg)
	cfg.Workers = 3
	Train(m3, ds, cfg)
	p1, p3 := m1.Params(), m3.Params()
	for i := range p1 {
		for j := range p1[i].W.Data {
			if math.Abs(p1[i].W.Data[j]-p3[i].W.Data[j]) > 1e-9 {
				t.Fatalf("worker-count dependent result at param %d[%d]: %v vs %v",
					i, j, p1[i].W.Data[j], p3[i].W.Data[j])
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	model := buildToy(21)
	data, err := model.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(6, 2)
	r := rng.New(23)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	want := model.Forward(x).At(0, 0)
	got := loaded.Forward(x).At(0, 0)
	if want != got {
		t.Fatalf("loaded model predicts %v, original %v", got, want)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not json")); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Unmarshal([]byte(`{"specs":[{"kind":"wat"}],"weights":[]}`)); err == nil {
		t.Fatal("expected error for unknown layer kind")
	}
	// An unknown activation used to reach a constructor's panic. The
	// rest are the kinds and the spec key of the seed's seq2one readouts,
	// which no model uses any more: each error names what it refused.
	for _, c := range []struct{ spec, name string }{
		{`{"kind":"act:wat"}`, `"act:wat"`},
		{`{"kind":"takelast"}`, `"takelast"`},
		{`{"kind":"takeat"}`, `"takeat"`},
		{`{"kind":"meanpool"}`, `"meanpool"`},
		{`{"kind":"layernorm","in":4}`, `"layernorm"`},
		{`{"kind":"lstm","in":4,"hidden":4}`, `"lstm"`},
		{`{"kind":"act:relu"}`, `"act:relu"`},
		{`{"kind":"act:sigmoid"}`, `"act:sigmoid"`},
		{`{"kind":"dense","in":4,"out":4,"index":2}`, `"index"`},
	} {
		_, err := Unmarshal([]byte(`{"specs":[` + c.spec + `],"weights":[]}`))
		if err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("Unmarshal(%s) = %v, want an error naming %s", c.spec, err, c.name)
		}
	}
}

// referenceUnmarshal is the encoding/json decode Unmarshal replaced,
// kept as the oracle the strict reader is compared against.
func referenceUnmarshal(data []byte) (*Sequential, error) {
	var sm SavedModel
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sm); err != nil {
		return nil, err
	}
	return sm.Model()
}

// TestUnmarshalMatchesReference decodes the net of every committed model
// file, PTMs and the RouteNet baseline alike, with Unmarshal and with the
// encoding/json reference and requires identical Marshal bytes.
func TestUnmarshalMatchesReference(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "models", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed models found: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Net json.RawMessage `json:"net"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		got, err := Unmarshal(doc.Net)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		want, err := referenceUnmarshal(doc.Net)
		if err != nil {
			t.Fatalf("%s: reference: %v", f, err)
		}
		gb, _ := got.Marshal()
		wb, _ := want.Marshal()
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s: Marshal bytes differ from the reference decode", f)
		}
	}
}

// TestUnmarshalRejectsOversizedSpecs pins the FuzzPTMLoad finding: a
// hostile model file must not drive Build into allocating weight
// matrices before validation.
func TestUnmarshalRejectsOversizedSpecs(t *testing.T) {
	cases := []string{
		`{"specs":[{"kind":"dense","in":1000000000,"out":1000000000}],"weights":[]}`,
		`{"specs":[{"kind":"blstm","in":8,"hidden":-4}],"weights":[]}`,
		`{"specs":[{"kind":"mha","in":100000,"out":100000,"heads":100000,"dk":100000,"dv":100000}],"weights":[]}`,
		`{"specs":[` + strings.Repeat(`{"kind":"dense","in":4096,"out":4096},`, 8) +
			`{"kind":"dense","in":4096,"out":4096}],"weights":[]}`,
	}
	for _, c := range cases {
		done := make(chan error, 1)
		//dqnlint:allow goguard test goroutine: a panic crashes the test binary, which is exactly the loud failure this budget test wants
		go func() {
			_, err := Unmarshal([]byte(c))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("Unmarshal accepted oversized spec %.60s...", c)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Unmarshal hung on oversized spec %.60s...", c)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	model := buildToy(31)
	clone := model.Clone()
	// Mutate the clone's weights; the original must be unaffected.
	clone.Params()[0].W.Data[0] += 100
	if model.Params()[0].W.Data[0] == clone.Params()[0].W.Data[0] {
		t.Fatal("clone shares weight storage")
	}
	x := tensor.New(4, 2)
	for i := range x.Data {
		x.Data[i] = 1
	}
	y1 := model.Forward(x).At(0, 0)
	y2 := clone.Forward(x).At(0, 0)
	if y1 == y2 {
		t.Fatal("diverged clone predicts identically")
	}
}

func TestSyncFrom(t *testing.T) {
	a, b := buildToy(41), buildToy(42)
	b.SyncFrom(a)
	x := tensor.New(5, 2)
	r := rng.New(43)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	if a.Forward(x).At(0, 0) != b.Forward(x).At(0, 0) {
		t.Fatal("SyncFrom did not equalize predictions")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w - 3)^2 directly through the optimizer.
	p := &Param{Name: "w", W: tensor.New(1, 1), G: tensor.New(1, 1)}
	opt := NewAdam([]*Param{p}, 0.05)
	for i := 0; i < 2000; i++ {
		p.G.Data[0] = 2 * (p.W.Data[0] - 3)
		opt.Step()
	}
	if math.Abs(p.W.Data[0]-3) > 1e-3 {
		t.Fatalf("Adam converged to %v, want 3", p.W.Data[0])
	}
}

func TestDatasetSplit(t *testing.T) {
	ds := toyDataset(100, 4, 61)
	train, val := ds.Split(0.8, 62)
	if train.Len() != 80 || val.Len() != 20 {
		t.Fatalf("split sizes %d/%d", train.Len(), val.Len())
	}
}

func TestBuildPaperScaleArchitecture(t *testing.T) {
	// Table 1 of the paper: 2-layer BLSTM (200, 100), 3 heads (64, 32),
	// time steps 21. Verify the seq2seq stack builds and predicts one
	// value per input row.
	specs := []LayerSpec{
		{Kind: "dense", In: 14, Out: 32},
		{Kind: "act:tanh"},
		{Kind: "blstm", In: 32, Hidden: 200},
		{Kind: "blstm", In: 400, Hidden: 100},
		{Kind: "mha", In: 200, Out: 64, Heads: 3, DK: 64, DV: 32},
		{Kind: "act:tanh"},
		{Kind: "dense", In: 64, Out: 1},
	}
	m, err := Build(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(21, 14)
	y := m.Forward(x)
	if y.Rows != 21 || y.Cols != 1 {
		t.Fatalf("output shape %dx%d, want 21x1", y.Rows, y.Cols)
	}
	if m.NumParams() < 100000 {
		t.Fatalf("paper-scale model suspiciously small: %d params", m.NumParams())
	}
}

func TestTrainEmptyDataset(t *testing.T) {
	model := buildToy(71)
	res := Train(model, &Dataset{}, TrainConfig{Epochs: 1})
	if res.Final != 0 || len(res.Steps) != 0 {
		t.Fatalf("empty dataset training: %+v", res)
	}
}

func TestMain(m *testing.M) { os.Exit(m.Run()) }

package ptm

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/rng"
)

func TestMinMaxScaler(t *testing.T) {
	rows := [][]float64{{0, 10}, {5, 20}, {10, 30}}
	sc, err := FitMinMax(rows)
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{5, 10}
	sc.Transform(r)
	if r[0] != 0.5 || r[1] != 0 {
		t.Fatalf("transform %v", r)
	}
	if v := sc.Unscale1(0, sc.Scale1(0, 7.3)); math.Abs(v-7.3) > 1e-12 {
		t.Fatalf("round trip %v", v)
	}
}

func TestMinMaxDegenerate(t *testing.T) {
	sc, err := FitMinMax([][]float64{{5}, {5}})
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{5}
	sc.Transform(r)
	if r[0] != 0 {
		t.Fatalf("degenerate transform %v", r)
	}
}

func TestFeaturizeShape(t *testing.T) {
	stream := []PacketIn{
		{Arrive: 0, Size: 100, InPort: 0, Class: 1, Weight: 2},
		{Arrive: 0.001, Size: 200, InPort: 3, Class: 0, Weight: 1},
	}
	rows, aux := Featurize(stream, des.WFQ, 4, 1e9)
	if len(rows) != 2 || len(rows[0]) != NumFeatures {
		t.Fatalf("shape %dx%d", len(rows), len(rows[0]))
	}
	// First IAT is zero; raw in slot 0, log scale in slot 1.
	if rows[0][0] != 0 || math.Abs(rows[1][0]-0.001) > 1e-12 {
		t.Fatalf("raw iat %v %v", rows[0][0], rows[1][0])
	}
	if math.Abs(rows[1][1]-math.Log1p(0.001*1e6)) > 1e-12 {
		t.Fatalf("log iat %v", rows[1][1])
	}
	// Transmission times.
	if math.Abs(aux.Tx[0]-8e-7) > 1e-15 || math.Abs(rows[0][3]-8e-7) > 1e-15 {
		t.Fatalf("tx %v / %v", aux.Tx[0], rows[0][3])
	}
	// WFQ one-hot at index 13 (offset 9 + 4).
	if rows[0][13] != 1 {
		t.Fatalf("sched one-hot %v", rows[0][9:14])
	}
	// In-port normalized by numPorts-1.
	if rows[1][14] != 1 {
		t.Fatalf("in-port %v", rows[1][14])
	}
}

func TestFeaturizeEMA(t *testing.T) {
	stream := []PacketIn{
		{Arrive: 0, Size: 1000},
		{Arrive: 1, Size: 0},
	}
	rows, _ := Featurize(stream, des.FIFO, 2, 1e9)
	if rows[0][4] != 1000 {
		t.Fatalf("initial EMA %v", rows[0][4])
	}
	if math.Abs(rows[1][4]-950) > 1e-9 {
		t.Fatalf("EMA after zero-size packet %v, want 950", rows[1][4])
	}
}

func TestFeaturizeBacklog(t *testing.T) {
	// Two 1000-byte packets 1 µs apart at 1 Gb/s: tx = 8 µs, so the
	// second sees 7 µs of unfinished work; a third far later sees none.
	stream := []PacketIn{
		{Arrive: 0, Size: 1000},
		{Arrive: 1e-6, Size: 1000},
		{Arrive: 1, Size: 1000},
	}
	_, aux := Featurize(stream, des.FIFO, 2, 1e9)
	if aux.Backlog[0] != 0 {
		t.Fatalf("first backlog %v", aux.Backlog[0])
	}
	if math.Abs(aux.Backlog[1]-7e-6) > 1e-15 {
		t.Fatalf("second backlog %v, want 7e-6", aux.Backlog[1])
	}
	if aux.Backlog[2] != 0 {
		t.Fatalf("third backlog %v", aux.Backlog[2])
	}
}

func TestChunksCoverEveryPositionOnce(t *testing.T) {
	for _, tc := range []struct{ n, c, m int }{
		{5, 16, 4}, {16, 16, 4}, {17, 16, 4}, {100, 16, 4},
		{1000, 32, 8}, {33, 32, 8}, {63, 32, 8},
	} {
		chunks := Chunks(tc.n, tc.c, tc.m)
		covered := make([]int, tc.n)
		for _, ck := range chunks {
			if ck.Start < 0 || ck.Lo < 0 || ck.Hi > tc.c || ck.Lo >= ck.Hi {
				t.Fatalf("n=%d c=%d m=%d: bad chunk %+v", tc.n, tc.c, tc.m, ck)
			}
			for p := ck.Start + ck.Lo; p < ck.Start+ck.Hi; p++ {
				if p >= 0 && p < tc.n {
					covered[p]++
				}
			}
		}
		for p, cnt := range covered {
			if cnt != 1 {
				t.Fatalf("n=%d c=%d m=%d: position %d covered %d times", tc.n, tc.c, tc.m, p, cnt)
			}
		}
	}
}

func TestChunkMaterialize(t *testing.T) {
	rows := make([][]float64, 5)
	for i := range rows {
		rows[i] = make([]float64, NumFeatures)
		rows[i][2] = float64(i + 1)
	}
	// Short stream: single chunk of length 8 pads by repeating row 4.
	chunks := Chunks(5, 8, 2)
	if len(chunks) != 1 || chunks[0].Hi != 5 {
		t.Fatalf("short-stream chunks %+v", chunks)
	}
	x := chunks[0].Materialize(rows, 8, nil)
	if x.Rows != 8 {
		t.Fatalf("rows %d", x.Rows)
	}
	if x.At(4, 2) != 5 || x.At(7, 2) != 5 {
		t.Fatalf("padding: %v %v", x.At(4, 2), x.At(7, 2))
	}
	if x.At(0, 2) != 1 {
		t.Fatalf("first row %v", x.At(0, 2))
	}
}

func TestGenerateStreamProducesTraffic(t *testing.T) {
	spec := TrainSpec{Ports: 4, Duration: 0.002, Seed: 1}
	ds := GenerateStream(spec, rng.New(2))
	total := 0
	for port := range ds.Ins {
		total += len(ds.Ins[port])
		if len(ds.Ins[port]) != len(ds.Sojourns[port]) {
			t.Fatal("ins/sojourns length mismatch")
		}
		// Streams must be time-ordered and sojourns at least one
		// transmission time.
		for i := range ds.Ins[port] {
			if i > 0 && ds.Ins[port][i].Arrive < ds.Ins[port][i-1].Arrive {
				t.Fatal("stream not sorted by arrival")
			}
			minSo := float64(ds.Ins[port][i].Size*8) / ds.RateBps
			if ds.Sojourns[port][i] < minSo-1e-15 {
				t.Fatalf("sojourn %v below transmission time %v", ds.Sojourns[port][i], minSo)
			}
		}
	}
	if total < 100 {
		t.Fatalf("only %d packets generated", total)
	}
}

// trainTiny trains a small PTM on 2-port FIFO traffic; shared by tests.
func trainTiny(t *testing.T, sched des.SchedConfig, workers int) (*PTM, TrainReport, TrainSpec) {
	t.Helper()
	spec := TrainSpec{
		Ports:  2,
		Arch:   Arch{TimeSteps: 12, Embed: 10, BLSTM1: 12, BLSTM2: 8, Heads: 2, DK: 6, DV: 6, HeadOut: 12},
		Scheds: []des.SchedConfig{sched},
		LoadLo: 0.3, LoadHi: 0.7,
		RateBps:            1e9,
		Streams:            6,
		Duration:           0.004,
		MaxChunksPerStream: 60,
		Seed:               3,
	}
	spec.Train.Epochs = 6
	spec.Train.BatchSize = 64
	spec.Train.LR = 0.003
	spec.Train.Workers = workers
	p, rep, err := TrainDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p, rep, spec
}

func TestTrainDeviceFIFO(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	p, rep, spec := trainTiny(t, des.SchedConfig{Kind: des.FIFO}, 4)
	if rep.Windows < 200 {
		t.Fatalf("only %d windows", rep.Windows)
	}
	if rep.ValW1 > 0.5 {
		t.Fatalf("validation w1 %v too high", rep.ValW1)
	}
	// Exogenous evaluation: unseen streams from a different seed.
	var exo []DeviceStream
	r := rng.New(99)
	for i := 0; i < 2; i++ {
		exo = append(exo, GenerateStream(spec, r.Split()))
	}
	w1 := Evaluate(p, exo, 4)
	if math.IsNaN(w1) || w1 > 0.7 {
		t.Fatalf("exogenous w1 %v", w1)
	}
	t.Logf("FIFO PTM: %d windows, val w1 %.4f, exo w1 %.4f", rep.Windows, rep.ValW1, w1)

	// The whole DUtil pipeline, not only nn.Train, gives the same model
	// file whatever the worker count.
	want, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		q, _, _ := trainTiny(t, des.SchedConfig{Kind: des.FIFO}, workers)
		got, err := q.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Workers %d trained a different model file than Workers 4 (%d vs %d bytes)", workers, len(got), len(want))
		}
	}
}

func TestSECReducesBias(t *testing.T) {
	// Construct predictions with a systematic +0.3 bias in one region:
	// SEC must remove most of it.
	p := &PTM{TimeSteps: 4}
	r := rng.New(5)
	var preds, truths []float64
	for i := 0; i < 500; i++ {
		truth := r.Uniform(1, 2)
		preds = append(preds, truth+0.3)
		truths = append(truths, truth)
	}
	p.FitSEC(preds, truths)
	if len(p.SECBins) == 0 {
		t.Fatal("no SEC bins fitted")
	}
	residAfter := 0.0
	for i := range preds {
		residAfter += math.Abs(p.applySEC(preds[i]) - truths[i])
	}
	residAfter /= float64(len(preds))
	if residAfter > 0.1 {
		t.Fatalf("SEC left mean abs residual %v", residAfter)
	}
}

func TestSECEmptyIsNoop(t *testing.T) {
	p := &PTM{TimeSteps: 4}
	if v := p.applySEC(1.5); v != 1.5 {
		t.Fatalf("no-bin SEC altered prediction: %v", v)
	}
	p.FitSEC([]float64{1}, []float64{}) // mismatched: ignored
	if p.SECBins != nil {
		t.Fatal("mismatched FitSEC should be a no-op")
	}
}

func TestPTMSaveLoadRoundTrip(t *testing.T) {
	p, err := New(Arch{TimeSteps: 6, Embed: 8, BLSTM1: 6, BLSTM2: 4, Heads: 1, DK: 4, DV: 4, HeadOut: 8}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	p.Feat = &MinMax{Min: make([]float64, NumFeatures), Max: make([]float64, NumFeatures)}
	for i := range p.Feat.Max {
		p.Feat.Max[i] = float64(i + 1)
	}
	p.TargetMin, p.TargetMax = 1e-6, 1e-3
	path := filepath.Join(t.TempDir(), "ptm.json")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	q, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	stream := []PacketIn{{Arrive: 0, Size: 500}, {Arrive: 1e-5, Size: 700}}
	a := p.PredictStream(stream, des.FIFO, 1e9, 1)
	b := q.PredictStream(stream, des.FIFO, 1e9, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loaded PTM differs: %v vs %v", a[i], b[i])
		}
	}
}

func TestPredictStreamClamp(t *testing.T) {
	p, err := New(Arch{TimeSteps: 4, Embed: 6, BLSTM1: 4, BLSTM2: 4, Heads: 1, DK: 2, DV: 2, HeadOut: 4}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	p.Feat = &MinMax{Min: make([]float64, NumFeatures), Max: make([]float64, NumFeatures)}
	for i := range p.Feat.Max {
		p.Feat.Max[i] = 1
	}
	// Force wildly negative residual predictions: output must clamp to
	// the transmission time. The second packet finds the port busy, so
	// the network is asked for it.
	p.TargetMin, p.TargetMax = -100, -99
	stream := []PacketIn{{Arrive: 0, Size: 1000}, {Arrive: 0, Size: 1000}}
	out := p.PredictStream(stream, des.FIFO, 1e9, 1)
	tx := float64(1000*8) / 1e9
	for i, v := range out {
		if v < tx {
			t.Fatalf("clamp failed on packet %d: %v < %v", i, v, tx)
		}
	}
}

func TestTargetTransformRoundTrip(t *testing.T) {
	tx, backlog := 8e-7, 3e-6
	for _, s := range []float64{8e-7, 1e-6, 5e-5} {
		v := TargetTransform(s, backlog, tx)
		if got := TargetInverse(v, backlog, tx); math.Abs(got-s)/s > 1e-12 {
			t.Fatalf("round trip %v -> %v", s, got)
		}
	}
	// FIFO: sojourn = backlog + tx maps to a zero residual.
	if TargetTransform(backlog+tx, backlog, tx) != 0 {
		t.Fatal("FIFO residual should be 0")
	}
	// Inverse never goes below the transmission time.
	if TargetInverse(-2, backlog, tx) != tx {
		t.Fatal("inverse below tx should clamp")
	}
}

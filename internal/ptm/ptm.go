package ptm

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"

	"deepqueuenet/internal/atomicfile"
	"deepqueuenet/internal/dbscan"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/nn"
	"deepqueuenet/internal/strictjson"
)

// Arch configures the PTM network (Fig. 5 / Table 1). The zero value is
// replaced by CPU-friendly defaults; PaperArch mirrors Table 1.
type Arch struct {
	TimeSteps int // sequence chunk length (paper: 21)
	Margin    int // bidirectional context margin per side (default TimeSteps/4)
	Embed     int // dense embedding width
	BLSTM1    int // first BLSTM hidden size (paper: 200)
	BLSTM2    int // second BLSTM hidden size (paper: 100)
	Heads     int // attention heads (paper: 3)
	DK, DV    int // per-head key/value dims (paper: 64, 32)
	HeadOut   int // attention output width
}

// DefaultArch is sized for CPU training while keeping the paper's
// architecture shape.
var DefaultArch = Arch{TimeSteps: 32, Margin: 8, Embed: 12, BLSTM1: 16, BLSTM2: 10, Heads: 2, DK: 8, DV: 8, HeadOut: 16}

// PaperArch mirrors the Table 1 hyper-parameters (chunk length 21).
var PaperArch = Arch{TimeSteps: 21, Margin: 5, Embed: 32, BLSTM1: 200, BLSTM2: 100, Heads: 3, DK: 64, DV: 32, HeadOut: 64}

func (a Arch) withDefaults() Arch {
	d := DefaultArch
	if a.TimeSteps <= 0 {
		a.TimeSteps = d.TimeSteps
	}
	if a.Margin <= 0 {
		a.Margin = a.TimeSteps / 4
	}
	if 2*a.Margin >= a.TimeSteps {
		a.Margin = (a.TimeSteps - 1) / 2
	}
	if a.Embed <= 0 {
		a.Embed = d.Embed
	}
	if a.BLSTM1 <= 0 {
		a.BLSTM1 = d.BLSTM1
	}
	if a.BLSTM2 <= 0 {
		a.BLSTM2 = d.BLSTM2
	}
	if a.Heads <= 0 {
		a.Heads = d.Heads
	}
	if a.DK <= 0 {
		a.DK = d.DK
	}
	if a.DV <= 0 {
		a.DV = d.DV
	}
	if a.HeadOut <= 0 {
		a.HeadOut = d.HeadOut
	}
	return a
}

// specs builds the layer stack of Fig. 5: feature embedding, a 2-layer
// BLSTM encoder, multi-head self-attention, and a time-distributed
// regression head (seq2seq: one sojourn per timestep).
func (a Arch) specs() []nn.LayerSpec {
	return []nn.LayerSpec{
		{Kind: "dense", In: NumFeatures, Out: a.Embed},
		{Kind: "act:tanh"},
		{Kind: "blstm", In: a.Embed, Hidden: a.BLSTM1},
		{Kind: "blstm", In: 2 * a.BLSTM1, Hidden: a.BLSTM2},
		{Kind: "mha", In: 2 * a.BLSTM2, Out: a.HeadOut, Heads: a.Heads, DK: a.DK, DV: a.DV},
		{Kind: "act:tanh"},
		{Kind: "dense", In: a.HeadOut, Out: 1},
	}
}

// PTM is a trained packet-level traffic-management model: the DNN, the
// feature and target scalers, and the SEC residual bins.
type PTM struct {
	Net       *nn.Sequential
	Feat      *MinMax
	TargetMin float64
	TargetMax float64
	TimeSteps int
	Margin    int
	NumPorts  int // training device degree K
	SECBins   []dbscan.Bin

	// sess is the lazily-created single-threaded inference scratch
	// (flat buffers + tensor arena). It makes the sequential prediction
	// paths allocation-free in steady state and — like the layer caches
	// it replaces — non-goroutine-safe; parallel callers use Replica.
	sess *session

	// qnet is the opt-in int8/float32 inference backend, built by
	// WithQuantized. It is immutable once built, so Clone and Replica
	// share it. nil means the exact float64 path (the default).
	qnet *nn.QuantSequential
}

// New builds an untrained PTM with the given architecture and device
// degree.
func New(arch Arch, numPorts int, seed uint64) (*PTM, error) {
	arch = arch.withDefaults()
	net, err := nn.Build(arch.specs(), seed)
	if err != nil {
		return nil, err
	}
	return &PTM{Net: net, TimeSteps: arch.TimeSteps, Margin: arch.Margin, NumPorts: numPorts}, nil
}

// scaleTarget maps a residual to the unit training range.
func (p *PTM) scaleTarget(v float64) float64 {
	span := p.TargetMax - p.TargetMin
	if span <= 0 {
		return 0
	}
	return (v - p.TargetMin) / span
}

// unscaleTarget inverts scaleTarget.
func (p *PTM) unscaleTarget(v float64) float64 {
	span := p.TargetMax - p.TargetMin
	if span <= 0 {
		return p.TargetMin
	}
	return v*span + p.TargetMin
}

// TargetTransform maps a sojourn time to the regression target: the
// *relative* scheduler reordering residual,
//
//	(sojourn − (backlog + tx)) / (backlog + tx).
//
// On a work-conserving port the aggregate backlog evolves identically
// under every discipline, so the residual isolates exactly the part the
// DNN must learn: FIFO maps to 0, strict-priority jumps go negative,
// starved classes go positive. Normalizing by the FIFO-equivalent
// sojourn keeps the target dimensionless and bounded, so one min-max
// scale serves light and heavy queueing regimes alike — without it, the
// starvation tails of low-priority training streams would stretch the
// target range and crush the resolution of the common case.
func TargetTransform(sojourn, backlog, tx float64) float64 {
	base := backlog + tx
	if base <= 0 {
		return 0
	}
	return (sojourn - base) / base
}

// TargetInverse inverts TargetTransform, clamping at the transmission
// time (a sojourn can never beat the wire).
func TargetInverse(v, backlog, tx float64) float64 {
	s := (backlog + tx) * (1 + v)
	if s < tx {
		s = tx
	}
	return s
}

// PredictStream predicts the sojourn time of every packet of one
// per-egress-port ingress stream (sorted by arrival time), given the
// egress port line rate. One forward pass covers a whole chunk of
// packets; predictions are SEC-corrected and clamped below by the packet
// transmission time. workers > 1 spreads the chunks over that many
// goroutines, each with its own window scratch against the shared
// read-only network; results are bit-identical at any worker count.
func (p *PTM) PredictStream(stream []PacketIn, kind des.SchedKind, rateBps float64, workers int) []float64 {
	if len(stream) == 0 {
		return nil
	}
	out := make([]float64, len(stream))
	s := p.getSession()
	p.window(s, stream, kind, rateBps)
	// A new name, not workers reassigned: the goroutines below capture
	// it, and a reassigned parameter is captured by reference — a heap
	// cell on every call, the sequential ones included.
	nw := min(workers, len(s.chunks))
	if nw <= 1 {
		p.inferChunks(s, s, nil, out, 0, 1)
		return out
	}
	if p.qnet == nil {
		s.arena.Reset()
		p.prefixTo(s, 0, len(stream)) // the workers read the whole prefix
	}
	var wg sync.WaitGroup
	panics := make([]*guard.WorkerError, nw)
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if we := guard.RecoveredWorker(w, recover()); we != nil {
					panics[w] = we
				}
			}()
			// Chunks tile the stream, so workers write disjoint positions.
			p.inferChunks(newSession(p.TimeSteps, p.qnet != nil), s, nil, out, w, nw)
		}(w)
	}
	wg.Wait()
	guard.RethrowWorkers(panics)
	return out
}

// applySEC subtracts the DBSCAN-binned mean residual of the prediction's
// neighbourhood (§4.3). Predictions and bins live in the reordering-
// residual target space.
func (p *PTM) applySEC(pred float64) float64 {
	b := dbscan.Lookup(p.SECBins, pred)
	if b == nil {
		return pred
	}
	return pred - b.MeanValue
}

// FitSEC computes the SEC bins from held-out predictions and truths:
// residuals (pred − truth) are clustered by prediction with DBSCAN; each
// bin stores its mean residual.
func (p *PTM) FitSEC(preds, truths []float64) {
	if len(preds) != len(truths) || len(preds) == 0 {
		return
	}
	resid := make([]float64, len(preds))
	lo, hi := preds[0], preds[0]
	for i := range preds {
		resid[i] = preds[i] - truths[i]
		if preds[i] < lo {
			lo = preds[i]
		}
		if preds[i] > hi {
			hi = preds[i]
		}
	}
	span := hi - lo
	if span <= 0 {
		return
	}
	// eps at 2% of the prediction range groups "similar sojourn time
	// predictions" (observation 2 of §4.3).
	minPts := len(preds) / 50
	if minPts < 5 {
		minPts = 5
	}
	p.SECBins = dbscan.Bins(preds, resid, span*0.02, minPts)
}

// SchemaVersion is the current on-disk model schema. Files written
// before versioning carry no "schema" field and decode as version 0;
// both 0 and SchemaVersion are accepted, anything newer is rejected.
const SchemaVersion = 1

// savedPTM is the JSON form of a PTM.
type savedPTM struct {
	Version   int           `json:"schema,omitempty"`
	Net       nn.SavedModel `json:"net"`
	Feat      *MinMax       `json:"feat"`
	TargetMin float64       `json:"target_min"`
	TargetMax float64       `json:"target_max"`
	TimeSteps int           `json:"time_steps"`
	Margin    int           `json:"margin"`
	NumPorts  int           `json:"num_ports"`
	SECBins   []dbscan.Bin  `json:"sec_bins,omitempty"`
}

// Marshal serializes the PTM to JSON.
func (p *PTM) Marshal() ([]byte, error) {
	return json.Marshal(savedPTM{
		Version: SchemaVersion,
		Net:     p.Net.Saved(), Feat: p.Feat,
		TargetMin: p.TargetMin, TargetMax: p.TargetMax,
		TimeSteps: p.TimeSteps, Margin: p.Margin,
		NumPorts: p.NumPorts, SECBins: p.SECBins,
	})
}

// The keys of each object of the file form, exactly as Marshal writes
// them (dbscan.Bin has no JSON tags, so its keys are its field names).
var (
	savedPTMKeys = []string{"schema", "net", "feat", "target_min", "target_max",
		"time_steps", "margin", "num_ports", "sec_bins"}
	minMaxKeys = []string{"min", "max"}
	binKeys    = []string{"Lo", "Hi", "MeanValue", "Count"}
)

// readSavedPTM decodes a whole model file in one pass of the strict
// model-file reader; the net object goes to nn.ReadSavedModel on the way.
func readSavedPTM(data []byte) (*savedPTM, error) {
	r := strictjson.NewReader(data)
	var sp savedPTM
	hasNet := false
	err := r.Object(savedPTMKeys, func(key string) (err error) {
		switch key {
		case "schema":
			sp.Version, err = r.Int()
		case "net":
			sp.Net, err = nn.ReadSavedModel(r)
			hasNet = true
		case "feat":
			sp.Feat, err = readMinMax(r)
		case "target_min":
			sp.TargetMin, err = r.Float()
		case "target_max":
			sp.TargetMax, err = r.Float()
		case "time_steps":
			sp.TimeSteps, err = r.Int()
		case "margin":
			sp.Margin, err = r.Int()
		case "num_ports":
			sp.NumPorts, err = r.Int()
		case "sec_bins":
			err = r.Array(func() error {
				b, err := readBin(r)
				sp.SECBins = append(sp.SECBins, b)
				return err
			})
		}
		return err
	})
	if err == nil {
		err = r.End()
	}
	if err == nil && !hasNet {
		err = errors.New("missing field \"net\"")
	}
	return &sp, err
}

// readMinMax reads a feature scaler object, or null for none.
func readMinMax(r *strictjson.Reader) (*MinMax, error) {
	if r.Null() {
		return nil, nil
	}
	m := &MinMax{}
	err := r.Object(minMaxKeys, func(key string) (err error) {
		if key == "min" {
			m.Min, err = r.Floats(nil)
		} else {
			m.Max, err = r.Floats(nil)
		}
		return err
	})
	return m, err
}

// readBin reads one SEC bin object.
func readBin(r *strictjson.Reader) (dbscan.Bin, error) {
	var b dbscan.Bin
	err := r.Object(binKeys, func(key string) (err error) {
		switch key {
		case "Lo":
			b.Lo, err = r.Float()
		case "Hi":
			b.Hi, err = r.Float()
		case "MeanValue":
			b.MeanValue, err = r.Float()
		case "Count":
			b.Count, err = r.Int()
		}
		return err
	})
	return b, err
}

// Unmarshal reconstructs a PTM from Marshal output. The file is read in
// one strict pass (internal/strictjson): unknown fields, trailing data
// and malformed numbers are rejected. Unsupported schema versions are
// rejected, the network's spec dimensions are budget-checked before any
// weight matrix is allocated, and the decoded model is structurally
// validated before being returned.
func Unmarshal(data []byte) (*PTM, error) {
	sp, err := readSavedPTM(data)
	if err != nil {
		return nil, fmt.Errorf("ptm: decoding model: %w", err)
	}
	if sp.Version > SchemaVersion {
		return nil, fmt.Errorf("ptm: model schema version %d is newer than supported version %d",
			sp.Version, SchemaVersion)
	}
	if sp.TimeSteps <= 0 {
		return nil, errors.New("ptm: invalid saved model: non-positive window size")
	}
	net, err := sp.Net.Model()
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

// Validate checks the structural soundness of a model: a usable window
// configuration, a feature scaler matching the engineered feature width,
// finite weights, scaler statistics, target range, and SEC bins. A model
// that fails Validate would produce NaN or out-of-range sojourns at
// inference time; the engine degrades such devices instead of running
// them.
func (p *PTM) Validate() error {
	if p == nil {
		return errors.New("ptm: nil model")
	}
	if p.Net == nil {
		return errors.New("ptm: model has no network")
	}
	if p.TimeSteps <= 0 {
		return fmt.Errorf("ptm: non-positive window size %d", p.TimeSteps)
	}
	if p.Margin < 0 || 2*p.Margin >= p.TimeSteps {
		return fmt.Errorf("ptm: margin %d incompatible with window size %d (need 0 <= 2*margin < window)",
			p.Margin, p.TimeSteps)
	}
	if p.NumPorts < 1 {
		return fmt.Errorf("ptm: invalid training port count %d", p.NumPorts)
	}
	if !isFinite(p.TargetMin) || !isFinite(p.TargetMax) {
		return fmt.Errorf("ptm: non-finite target range [%v, %v]", p.TargetMin, p.TargetMax)
	}
	if p.TargetMax < p.TargetMin {
		return fmt.Errorf("ptm: inverted target range [%v, %v]", p.TargetMin, p.TargetMax)
	}
	if p.Feat != nil {
		if len(p.Feat.Min) != NumFeatures || len(p.Feat.Max) != NumFeatures {
			return fmt.Errorf("ptm: feature scaler width %d/%d, want %d",
				len(p.Feat.Min), len(p.Feat.Max), NumFeatures)
		}
		for j := range p.Feat.Min {
			if !isFinite(p.Feat.Min[j]) || !isFinite(p.Feat.Max[j]) {
				return fmt.Errorf("ptm: non-finite scaler stats for feature %d", j)
			}
			if p.Feat.Max[j] < p.Feat.Min[j] {
				return fmt.Errorf("ptm: inverted scaler range for feature %d", j)
			}
		}
	}
	if specs := p.Net.Specs(); len(specs) > 0 && specs[0].Kind == "dense" && specs[0].In != NumFeatures {
		return fmt.Errorf("ptm: network input width %d, want %d features", specs[0].In, NumFeatures)
	}
	for pi, par := range p.Net.Params() {
		for _, w := range par.W.Data {
			if !isFinite(w) {
				return fmt.Errorf("ptm: non-finite weight in parameter tensor %d", pi)
			}
		}
	}
	for i, b := range p.SECBins {
		if !isFinite(b.Lo) || !isFinite(b.Hi) || !isFinite(b.MeanValue) {
			return fmt.Errorf("ptm: non-finite SEC bin %d", i)
		}
	}
	return nil
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Save writes the PTM to a file atomically: temp file in the
// destination directory, fsync, then rename. A crash mid-save leaves
// the previous model (or nothing) — never a torn file.
func (p *PTM) Save(path string) error {
	data, err := p.Marshal()
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(path, data, 0o644)
}

// Load reads a PTM from a file. Read, decode, and validation failures
// are wrapped with the offending path.
func Load(path string) (*PTM, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ptm: load %s: %w", path, err)
	}
	p, err := Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("ptm: load %s: %w", path, err)
	}
	return p, nil
}

// WithQuantized switches this model to the int8-weight / float32-
// activation inference backend: weights are absmax-quantized per input
// row at call time and every subsequent prediction runs through the
// quantized network with fast float32 transcendentals. Opt-in because
// results are no longer bit-identical to the exact float64 path —
// accuracy is bounded by the committed golden-scenario gates instead.
// Call after loading/training, never concurrently with predictions;
// clones made afterwards share the immutable quantized network.
func (p *PTM) WithQuantized() error {
	qnet, err := nn.Quantize(p.Net)
	if err != nil {
		return err
	}
	p.qnet = qnet
	p.sess = nil // sessions are backend-specific scratch
	return nil
}

// Quantized reports whether the quantized inference backend is active.
func (p *PTM) Quantized() bool { return p.qnet != nil }

// Clone returns an independent copy sharing no mutable state: its
// weights may change without touching p's. The quantized network, when
// present, is immutable and therefore shared.
func (p *PTM) Clone() *PTM {
	c := *p
	c.Net = p.Net.Clone()
	c.sess = nil // sessions are per-owner scratch, never shared
	return &c
}

// Replica returns a copy of p for parallel inference: it shares p's
// network, scalers and SEC bins, which prediction only reads, and owns
// its own session, like WithoutSEC. Because the network is shared, a
// PortStream's memo is reused whichever replica predicts it next.
// Replicas follow the weights of p, so nothing may train p while they
// predict; use Clone for a copy whose weights change on their own.
func (p *PTM) Replica() *PTM {
	c := *p
	c.sess = nil
	return &c
}

// WithoutSEC returns a copy of p with the SEC residual bins stripped
// (the §4.3 ablation). The copy shares the network weights but no
// mutable inference scratch.
func (p *PTM) WithoutSEC() *PTM {
	c := *p
	c.SECBins = nil
	c.sess = nil
	return &c
}

package nn

import (
	"encoding/json"
	"fmt"

	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/strictjson"
	"deepqueuenet/internal/tensor"
)

// LayerSpec is a serializable description of a layer's architecture.
type LayerSpec struct {
	Kind   string `json:"kind"`
	In     int    `json:"in,omitempty"`
	Out    int    `json:"out,omitempty"`
	Hidden int    `json:"hidden,omitempty"`
	Heads  int    `json:"heads,omitempty"`
	DK     int    `json:"dk,omitempty"`
	DV     int    `json:"dv,omitempty"`
}

// Sequential chains layers into a model. Forward output of layer i feeds
// layer i+1.
type Sequential struct {
	Layers []Layer
}

// NewSequential returns a model over the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs the full forward pass.
func (s *Sequential) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs the full backward pass given the output gradient.
func (s *Sequential) Backward(dy *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// Params returns all trainable parameters in deterministic order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears all parameter gradients.
func (s *Sequential) ZeroGrads() {
	for _, p := range s.Params() {
		p.G.Zero()
	}
}

// Clone returns an independent deep copy of the model.
func (s *Sequential) Clone() *Sequential {
	ls := make([]Layer, len(s.Layers))
	for i, l := range s.Layers {
		ls[i] = l.Clone()
	}
	return &Sequential{Layers: ls}
}

// SyncFrom copies parameter weights from src into s (shapes must match).
func (s *Sequential) SyncFrom(src *Sequential) {
	dst := s.Params()
	ps := src.Params()
	if len(dst) != len(ps) {
		panic("nn: SyncFrom param count mismatch")
	}
	for i := range dst {
		dst[i].W.CopyFrom(ps[i].W)
	}
}

// NumParams returns the total number of scalar parameters.
func (s *Sequential) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += len(p.W.Data)
	}
	return n
}

// Specs returns the architecture description of the model.
func (s *Sequential) Specs() []LayerSpec {
	specs := make([]LayerSpec, len(s.Layers))
	for i, l := range s.Layers {
		specs[i] = l.Spec()
	}
	return specs
}

// Build constructs a model from layer specs with weights initialized from
// the given seed. The kinds are "dense", "act:tanh", "blstm" and "mha".
func Build(specs []LayerSpec, seed uint64) (*Sequential, error) {
	r := rng.New(seed)
	layers := make([]Layer, 0, len(specs))
	for _, sp := range specs {
		switch sp.Kind {
		case "dense":
			layers = append(layers, NewDense(sp.In, sp.Out, r))
		case "act:tanh":
			layers = append(layers, NewTanh())
		case "blstm":
			layers = append(layers, NewBLSTM(sp.In, sp.Hidden, r))
		case "mha":
			layers = append(layers, NewMultiHeadSelfAttention(sp.In, sp.Out, sp.Heads, sp.DK, sp.DV, r))
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %q", sp.Kind)
		}
	}
	return NewSequential(layers...), nil
}

// SavedModel is the file form of a model: its layer specs and, in
// Params order, each parameter's weights.
type SavedModel struct {
	Specs   []LayerSpec `json:"specs"`
	Weights [][]float64 `json:"weights"`
}

// Saved returns the file form of the model, with copies of its weights.
func (s *Sequential) Saved() SavedModel {
	sm := SavedModel{Specs: s.Specs()}
	for _, p := range s.Params() {
		sm.Weights = append(sm.Weights, append([]float64(nil), p.W.Data...))
	}
	return sm
}

// Marshal serializes the model architecture and weights to JSON.
func (s *Sequential) Marshal() ([]byte, error) { return json.Marshal(s.Saved()) }

// maxLoadParams caps the scalar parameter count a loaded model may
// request: 1<<26 floats (512 MiB) is an order of magnitude beyond the
// paper-scale architecture, while keeping a corrupted or hostile model
// file from driving Build into an unbounded allocation.
const maxLoadParams = 1 << 26

// checkSpecBudget rejects specs whose dimensions are negative or whose
// total parameter count exceeds maxLoadParams — before Build allocates
// anything (found by FuzzPTMLoad: a mutated spec could request
// petabyte-scale weight matrices and hang the loader).
func checkSpecBudget(specs []LayerSpec) error {
	var total int64
	for i, sp := range specs {
		dims := []int{sp.In, sp.Out, sp.Hidden, sp.Heads, sp.DK, sp.DV}
		for _, d := range dims {
			if d < 0 {
				return fmt.Errorf("nn: layer %d (%s): negative dimension in saved spec", i, sp.Kind)
			}
			if d > maxLoadParams {
				return fmt.Errorf("nn: layer %d (%s): dimension %d exceeds the load budget", i, sp.Kind, d)
			}
		}
		in, out, h := int64(sp.In), int64(sp.Out), int64(sp.Hidden)
		heads, dk, dv := int64(sp.Heads), int64(sp.DK), int64(sp.DV)
		var cost int64
		switch sp.Kind {
		case "dense":
			cost = in*out + out
		case "blstm":
			cost = 8 * h * (in + h + 1)
		case "mha":
			cost = heads*in*(2*dk+dv) + heads*dv*out + out
		}
		total += cost
		if cost > maxLoadParams || total > maxLoadParams {
			return fmt.Errorf("nn: saved model requests over %d parameters (limit %d); refusing to allocate", total, maxLoadParams)
		}
	}
	return nil
}

var (
	savedModelKeys = []string{"specs", "weights"}
	layerSpecKeys  = []string{"kind", "in", "out", "hidden", "heads", "dk", "dv"}
)

// ReadSavedModel reads the object Marshal writes from r, with the strict
// model-file reader: unknown, repeated or case-folded keys and malformed
// numbers are errors.
func ReadSavedModel(r *strictjson.Reader) (SavedModel, error) {
	var sm SavedModel
	err := r.Object(savedModelKeys, func(key string) error {
		if key == "specs" {
			return r.Array(func() error {
				sp, err := readLayerSpec(r)
				sm.Specs = append(sm.Specs, sp)
				return err
			})
		}
		return r.Array(func() error {
			w, err := r.Floats(nil)
			sm.Weights = append(sm.Weights, w)
			return err
		})
	})
	return sm, err
}

// readLayerSpec reads one LayerSpec object.
func readLayerSpec(r *strictjson.Reader) (LayerSpec, error) {
	var sp LayerSpec
	err := r.Object(layerSpecKeys, func(key string) (err error) {
		switch key {
		case "kind":
			sp.Kind, err = r.String()
		case "in":
			sp.In, err = r.Int()
		case "out":
			sp.Out, err = r.Int()
		case "hidden":
			sp.Hidden, err = r.Int()
		case "heads":
			sp.Heads, err = r.Int()
		case "dk":
			sp.DK, err = r.Int()
		case "dv":
			sp.DV, err = r.Int()
		}
		return err
	})
	return sp, err
}

// Model builds the model sm describes and loads its weights. The spec
// dimensions are budget-checked before Build allocates anything.
func (sm *SavedModel) Model() (*Sequential, error) {
	if err := checkSpecBudget(sm.Specs); err != nil {
		return nil, err
	}
	m, err := Build(sm.Specs, 1)
	if err != nil {
		return nil, err
	}
	ps := m.Params()
	if len(ps) != len(sm.Weights) {
		return nil, fmt.Errorf("nn: weight count mismatch (%d vs %d)", len(ps), len(sm.Weights))
	}
	for i, p := range ps {
		if len(p.W.Data) != len(sm.Weights[i]) {
			return nil, fmt.Errorf("nn: weight %d size mismatch", i)
		}
		copy(p.W.Data, sm.Weights[i])
	}
	return m, nil
}

// Unmarshal reconstructs a model from Marshal output: one strict pass of
// ReadSavedModel, nothing but whitespace after the object, then Model.
func Unmarshal(data []byte) (*Sequential, error) {
	r := strictjson.NewReader(data)
	sm, err := ReadSavedModel(r)
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	return sm.Model()
}

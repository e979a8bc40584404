package nn

import "deepqueuenet/internal/tensor"

// Packs is a per-inference-session cache of weight matrices repacked
// into the blocked-GEMM panel layout (tensor.Packed). Packing costs one
// copy of each weight matrix; a session pays it on its first window and
// reuses the panels for every window after.
//
// A Packs is keyed by parameter identity, so it caches derived layout
// only — if the underlying weights are mutated (training), the packs go
// stale. That cannot happen through the supported flow: training always
// runs on a PTM before its inference session (and packs) exist, and
// Clone/WithoutSEC drop the session. A Packs is not goroutine-safe; it
// is owned by one session, like the tensor.Arena next to it.
type Packs struct {
	m map[any]*tensor.Packed
}

// NewPacks returns an empty pack cache.
func NewPacks() *Packs {
	return &Packs{m: make(map[any]*tensor.Packed)}
}

// of returns the packed form of p.W, building it on first use.
func (pk *Packs) of(p *Param) *tensor.Packed {
	if got := pk.m[p]; got != nil {
		return got
	}
	pp := tensor.Pack(p.W)
	pk.m[p] = pp
	return pp
}

// kvOf returns the fused [wk | wv] pack of an attention layer: one
// In×(H·DK + H·DV) panel buffer so the key and value projections, which
// unlike the queries are needed for every row of a window, run as a
// single wide GEMM. Column-concatenating the weights changes nothing
// numerically — every output element keeps its own dot product.
func (pk *Packs) kvOf(m *MultiHeadSelfAttention) *tensor.Packed {
	if got := pk.m[m]; got != nil {
		return got
	}
	pp := tensor.Pack(tensor.ConcatCols(m.wk.W, m.wv.W))
	pk.m[m] = pp
	return pp
}

// blstmOf returns the fused [fwd.wx | bwd.wx] pack of a BLSTM: both
// directions' input projections in one GEMM, for a window or for a
// whole stream's prefix. Like kvOf it changes no bit.
func (pk *Packs) blstmOf(b *BLSTM) *tensor.Packed {
	if got := pk.m[b]; got != nil {
		return got
	}
	pp := tensor.Pack(tensor.ConcatCols(b.fwd.wx.W, b.bwd.wx.W))
	pk.m[b] = pp
	return pp
}

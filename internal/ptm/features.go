// Package ptm implements the paper's packet-level traffic-management
// model: pre-PTM feature engineering and data augmentation (§4.1), the
// BLSTM + multi-head-attention sojourn-time predictor (§4.2, Fig. 5),
// DUtil training-trace generation on a single-device DES (§5.2), and
// post-PTM statistical error correction (§4.3).
package ptm

import (
	"math"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/tensor"
)

// PacketIn is one packet of a device's per-egress-port ingress time
// series, as the PTM sees it at inference time: the paper's packet vector
// (Eq. 1) augmented with arrival time, ingress port, and scheduling
// attributes (Eqs. 8–9).
type PacketIn struct {
	Arrive float64
	Size   int
	Proto  uint8
	InPort int
	Class  int     // priority class (SP) / weight class (WFQ/WRR/DRR)
	Weight float64 // class weight
}

// NumFeatures is the width of the engineered feature vector.
const NumFeatures = 15

// emaAlpha is the paper's workload smoothing factor (§4.1).
const emaAlpha = 0.95

// Aux carries the per-packet deterministic quantities the target
// transform is defined against: the transmission time and the
// work-conserving backlog at arrival.
type Aux struct {
	Tx []float64 // transmission time of each packet (seconds)
	// Backlog is the unfinished work (seconds) queued at the egress
	// port just before each arrival — the Lindley recursion
	// W_i = max(0, W_{i-1} + Tx_{i-1} − IAT_i). On a work-conserving
	// port this aggregate is discipline-independent; per-packet sojourn
	// differs from W+Tx only by the scheduler's reordering, which is
	// exactly what the DNN learns.
	Backlog []float64
}

// schedOneHot returns the 5-wide discipline encoding. The paper one-hot
// encodes SP/WRR/DRR/WFQ; FIFO (the baseline configuration) gets its own
// slot so the same model serves all five disciplines.
func schedOneHot(kind des.SchedKind) [5]float64 {
	var oh [5]float64
	switch kind {
	case des.FIFO:
		oh[0] = 1
	case des.SP:
		oh[1] = 1
	case des.WRR:
		oh[2] = 1
	case des.DRR:
		oh[3] = 1
	case des.WFQ:
		oh[4] = 1
	}
	return oh
}

// Featurize converts one per-egress-port ingress stream (sorted by
// arrival time) into raw, unscaled feature rows plus the auxiliary
// per-packet quantities. rateBps is the egress port line rate; numPorts
// normalizes the in-port index so one model serves devices of any port
// count up to its training degree.
func Featurize(stream []PacketIn, kind des.SchedKind, numPorts int, rateBps float64) ([][]float64, Aux) {
	flat := make([]float64, len(stream)*NumFeatures)
	aux := Aux{Tx: make([]float64, len(stream)), Backlog: make([]float64, len(stream))}
	featurizeFlat(flat, aux.Tx, aux.Backlog, stream, kind, numPorts, rateBps)
	rows := make([][]float64, len(stream))
	for i := range rows {
		rows[i] = flat[i*NumFeatures : (i+1)*NumFeatures : (i+1)*NumFeatures]
	}
	return rows, aux
}

// featurizeFlat is the allocation-free featurization core: it fills a
// caller-owned row-major len(stream)×NumFeatures buffer plus the tx and
// backlog aux slices (each len(stream) long). Featurize and the
// inference session both delegate here, so scaled-path and flat-path
// features are the same float64s.
func featurizeFlat(flat, txs, backlogs []float64, stream []PacketIn, kind des.SchedKind, numPorts int, rateBps float64) {
	oh := schedOneHot(kind)
	ema := 0.0
	prevT := 0.0
	work := 0.0 // unfinished work (seconds) before the current arrival
	prevTx := 0.0
	for i, p := range stream {
		iat := 0.0
		if i > 0 {
			iat = p.Arrive - prevT
		}
		prevT = p.Arrive
		tx := float64(p.Size*8) / rateBps
		if i > 0 {
			work += prevTx - iat
			if work < 0 {
				work = 0
			}
		}
		prevTx = tx
		txs[i] = tx
		backlogs[i] = work

		if i == 0 {
			ema = float64(p.Size)
		} else {
			ema = emaAlpha*ema + (1-emaAlpha)*float64(p.Size)
		}
		inPort := 0.0
		if numPorts > 1 {
			inPort = float64(p.InPort) / float64(numPorts-1)
		}
		row := flat[i*NumFeatures : (i+1)*NumFeatures]
		row[0] = iat                    // raw inter-arrival (seconds)
		row[1] = math.Log1p(iat * 1e6)  // log-scale IAT (µs reference)
		row[2] = float64(p.Size)        // packet length (bytes)
		row[3] = tx                     // transmission time (seconds)
		row[4] = ema                    // workload EMA (bytes, α = 0.95)
		row[5] = work                   // backlog at arrival (seconds)
		row[6] = math.Log1p(work * 1e6) // log-scale backlog
		row[7] = float64(p.Class)       // priority / weight class
		row[8] = p.Weight               // class weight
		row[9] = oh[0]
		row[10] = oh[1]
		row[11] = oh[2]
		row[12] = oh[3]
		row[13] = oh[4]
		row[14] = inPort
	}
}

// Chunk identifies one sequence chunk: the model consumes rows
// [Start, Start+C) and its predictions are consumed for stream positions
// [Start+Lo, Start+Hi) — the interior where bidirectional context is
// complete. Seq2seq chunking is what makes inference scale: one forward
// pass predicts every interior packet of the chunk (§3.1.2, "predicts
// packet latencies in batches").
type Chunk struct {
	Start  int
	Lo, Hi int // prediction positions relative to Start
}

// Chunks tiles a stream of n packets with chunks of length c and
// bidirectional margin m, covering every position exactly once.
func Chunks(n, c, m int) []Chunk {
	return chunksAppend(nil, n, c, m)
}

// chunksAppend appends the tiling to out (reusing its backing array),
// so steady-state inference re-windows a stream without allocating.
func chunksAppend(out []Chunk, n, c, m int) []Chunk {
	if n <= 0 {
		return out
	}
	if c <= 2*m {
		panic("ptm: chunk length must exceed twice the margin")
	}
	if n <= c {
		return append(out, Chunk{Start: 0, Lo: 0, Hi: n})
	}
	step := c - 2*m
	// First chunk has no left neighbour: it owns its left edge.
	out = append(out, Chunk{Start: 0, Lo: 0, Hi: c - m})
	start := step
	for {
		if start+c >= n {
			// Final chunk owns its right edge; anchor it at the end.
			st := n - c
			prevHi := out[len(out)-1].Start + out[len(out)-1].Hi
			return append(out, Chunk{Start: st, Lo: prevHi - st, Hi: c})
		}
		out = append(out, Chunk{Start: start, Lo: m, Hi: c - m})
		start += step
	}
}

// Materialize builds the chunk's timeSteps×NumFeatures input matrix from
// raw feature rows, scaling with sc. Rows past the stream end repeat the
// final row (only possible when the stream is shorter than one chunk).
func (ck Chunk) Materialize(rows [][]float64, c int, sc *MinMax) *tensor.Matrix {
	w := tensor.New(c, NumFeatures)
	for t := 0; t < c; t++ {
		src := ck.Start + t
		if src >= len(rows) {
			src = len(rows) - 1
		}
		copy(w.Row(t), rows[src])
		if sc != nil {
			sc.Transform(w.Row(t))
		}
	}
	return w
}

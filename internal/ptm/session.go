package ptm

import (
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/nn"
	"deepqueuenet/internal/tensor"
)

// session is the reusable scratch state of PTM inference: flat
// feature/aux buffers, the chunk list, the stream prefix, and the
// tensor arena and weight packs behind the network's cache-free
// inference path. All of it is grow-only, so once a session has seen
// its largest stream, every further prediction runs with zero heap
// allocations (pinned by TestPredictDeviceZeroAllocs).
//
// A session is not goroutine-safe; it is owned by one *PTM and used by
// its single-threaded prediction paths. Shard-parallel callers give
// each shard its own model clone (CloneModel), hence its own session;
// PredictStream's chunk-parallel workers each get a private one for
// their windows and read the stream's prefix from the shared one.
type session struct {
	arena   *tensor.Arena
	packs   *nn.Packs // weight matrices repacked for the blocked GEMM kernels
	feats   []float64 // n × NumFeatures, row-major, scaled
	tx      []float64
	backlog []float64
	chunks  []Chunk
	pre     []float64     // n × Net.PrefixCols: the stream prefix
	featM   tensor.Matrix // header over feats
	preM    tensor.Matrix // header over pre
	preDone int           // prefix rows computed so far

	// Quantized-backend scratch (allocated only when the model runs
	// with WithQuantized): the float32 window and its arena.
	fx     *tensor.MatrixF32
	farena *tensor.ArenaF32
}

func newSession(timeSteps int, quant bool) *session {
	s := &session{arena: tensor.NewArena(), packs: nn.NewPacks()}
	if quant {
		s.fx = tensor.NewF32(timeSteps, NumFeatures)
		s.farena = tensor.NewArenaF32()
	}
	return s
}

// growFloats returns buf resized to n, reusing its backing array when
// large enough.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		//dqnlint:allow hotalloc grow-only: reallocates only when a stream outgrows every prior one; steady state reuses the backing array (pinned by TestPredictDeviceZeroAllocs)
		return make([]float64, n)
	}
	return buf[:n]
}

// window featurizes and scales stream into the session's flat buffers,
// tiles it with chunks, and — on the exact backend — sizes the stream
// prefix every window reads: the per-packet part of the network
// (nn.Sequential.InferPrefix), computed once per packet rather than
// once per window that covers it. prefixTo fills it as the window sweep
// first reaches each row, so the rows a window reads were written just
// before it, not a whole stream earlier (measured against building it
// up front: EXPERIMENTS.md, "Per-window work once per stream").
func (p *PTM) window(s *session, stream []PacketIn, kind des.SchedKind, rateBps float64) {
	n := len(stream)
	s.feats = growFloats(s.feats, n*NumFeatures)
	s.tx = growFloats(s.tx, n)
	s.backlog = growFloats(s.backlog, n)
	featurizeFlat(s.feats, s.tx, s.backlog, stream, kind, p.NumPorts, rateBps)
	if p.Feat != nil {
		for i := 0; i < n; i++ {
			p.Feat.Transform(s.feats[i*NumFeatures : (i+1)*NumFeatures])
		}
	}
	s.featM = tensor.Matrix{Rows: n, Cols: NumFeatures, Data: s.feats}
	//dqnlint:allow hotalloc grow-only: appends into the session's reused chunk slice; it grows only until the largest stream has been seen
	s.chunks = chunksAppend(s.chunks[:0], n, p.TimeSteps, p.Margin)
	if p.qnet != nil {
		return
	}
	pc := p.Net.PrefixCols(NumFeatures)
	s.pre = growFloats(s.pre, n*pc)
	s.preM = tensor.Matrix{Rows: n, Cols: pc, Data: s.pre}
	s.preDone = 0
}

// prefixTo extends the stream prefix to rows [0, upto), with scratch
// from s.arena.
func (p *PTM) prefixTo(s *session, upto int) {
	if s.preDone >= upto {
		return
	}
	p.Net.InferPrefix(s.arena.Rows(&s.preM, s.preDone, upto), s.arena.Rows(&s.featM, s.preDone, upto), s.arena, s.packs)
	s.preDone = upto
}

// predictInto is the allocation-free core of every prediction path:
// featurize, window, and infer the chunks one by one into dst, which
// must be len(stream) long.
func (p *PTM) predictInto(s *session, dst []float64, stream []PacketIn, kind des.SchedKind, rateBps float64) {
	p.window(s, stream, kind, rateBps)
	p.inferChunks(s, s, dst, 0, 1)
}

// inferChunks runs chunks w, w+stride, … of the stream windowed in src
// through s's window scratch (s == src on the single-threaded paths; a
// chunk-parallel worker reads the shared src and owns s) and consumes
// their predictions into dst. The network is asked only for the rows a
// chunk is consumed for — its interior [Lo, Hi), cut at the stream end
// — which is what makes an interior window cost half a window's
// attention and head.
func (p *PTM) inferChunks(s, src *session, dst []float64, w, stride int) {
	n := len(dst)
	for i := w; i < len(src.chunks); i += stride {
		ck := src.chunks[i]
		lo, hi := ck.Lo, min(ck.Hi, n-ck.Start)
		if p.qnet != nil {
			// Opt-in quantized backend: same windows, same consume
			// logic, its own per-window int8/float32 network.
			for t := 0; t < p.TimeSteps; t++ {
				row := min(ck.Start+t, n-1) * NumFeatures
				for j, v := range src.feats[row : row+NumFeatures] {
					s.fx.Data[t*NumFeatures+j] = float32(v)
				}
			}
			s.farena.Reset()
			y := p.qnet.Infer(s.fx, lo, hi, s.farena)
			for t := 0; t < y.Rows; t++ {
				p.consumePred(dst, y.At(t, 0), ck.Start+lo+t, src.tx, src.backlog)
			}
			continue
		}
		s.arena.Reset()
		if s == src {
			p.prefixTo(s, min(n, ck.Start+p.TimeSteps))
		}
		y := p.Net.InferWindow(&src.preM, ck.Start, p.TimeSteps, lo, hi, s.arena, s.packs)
		for t := 0; t < y.Rows; t++ {
			p.consumePred(dst, y.At(t, 0), ck.Start+lo+t, src.tx, src.backlog)
		}
	}
}

// consumePred maps one raw network output to a sojourn time: clamp to
// the modest extrapolation range (unseen-load generalization, Fig. 9,
// without runaway tails), SEC-correct in residual space, unscale, and
// invert the target transform against the packet's deterministic
// backlog and transmission time.
func (p *PTM) consumePred(dst []float64, v float64, pos int, tx, backlog []float64) {
	if v < -0.1 {
		v = -0.1
	}
	if v > 1.1 {
		v = 1.1
	}
	resid := p.applySEC(p.unscaleTarget(v)) // residual space
	dst[pos] = TargetInverse(resid, backlog[pos], tx[pos])
}

// getSession returns the model's lazily-created inference session.
func (p *PTM) getSession() *session {
	if p.sess == nil {
		//dqnlint:allow hotalloc one-time lazy init: the session (arena + window matrix) is built on the first prediction and reused for the model's lifetime
		p.sess = newSession(p.TimeSteps, p.qnet != nil)
	}
	return p.sess
}

// PortStream is one egress port's inference batch inside PredictDevice:
// the sorted ingress stream, the port line rate, and the output slice
// the sojourn predictions are written to (reused when large enough).
type PortStream struct {
	Stream  []PacketIn
	RateBps float64
	Out     []float64
}

// PredictDevice predicts sojourn times for every egress port of one
// device in a single batched call: all ports' windows run through one
// session (one arena, one window matrix, shared flat buffers) instead
// of a PredictStream round-trip per port. Each port's predictions land
// in ports[i].Out. Not goroutine-safe.
func (p *PTM) PredictDevice(ports []PortStream, kind des.SchedKind) {
	s := p.getSession()
	for i := range ports {
		ps := &ports[i]
		if len(ps.Stream) == 0 {
			ps.Out = ps.Out[:0]
			continue
		}
		ps.Out = growFloats(ps.Out, len(ps.Stream))
		p.predictInto(s, ps.Out, ps.Stream, kind, ps.RateBps)
	}
}

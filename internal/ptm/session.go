package ptm

import (
	"math"

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
// its single-threaded prediction paths. Parallel callers give each
// worker its own replica (Replica), hence its own session;
// PredictStream's chunk-parallel workers each get a private one for
// their windows and read the stream's prefix from the shared one.
//
// A session serves every port of every device its model predicts, so
// it keeps nothing from one call to the next but buffer capacity. What
// a port's last call computed lives in that port's PortStream (its
// memo), which PredictDevice reads to skip unchanged windows.
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
	preDone int           // end of the last prefix rows filled; rows a skipped window alone reads stay unfilled

	// windowsRun counts the windows this session has actually inferred
	// (a window a port memo supplies, or one skipped because all its
	// consumed packets find the port idle, is not counted); WindowsRun
	// reads it, so tests see that reuse and skipping happen.
	windowsRun int

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
	s.chunks = chunksAppend(s.chunks[:0], n, p.TimeSteps, p.Margin)
	if p.qnet != nil {
		return
	}
	pc := p.Net.PrefixCols(NumFeatures)
	s.pre = growFloats(s.pre, n*pc)
	s.preM = tensor.Matrix{Rows: n, Cols: pc, Data: s.pre}
	s.preDone = 0
}

// prefixTo fills the stream prefix rows [max(s.preDone, from), upto),
// with scratch from s.arena. Windows arrive in stream order, so rows
// below s.preDone that a window reads were filled for an earlier,
// overlapping window; rows that only skipped windows read are never
// computed.
func (p *PTM) prefixTo(s *session, from, upto int) {
	from = max(from, s.preDone)
	if from >= upto {
		return
	}
	p.Net.InferPrefix(s.arena.Rows(&s.preM, from, upto), s.arena.Rows(&s.featM, from, upto), s.arena, s.packs)
	s.preDone = upto
}

// predictInto is the allocation-free core of every prediction path:
// featurize, window, and infer the chunks one by one into dst, which
// must be len(stream) long. A non-nil m is the port's memo of its last
// call: windows whose input rows it holds bit for bit are not run.
func (p *PTM) predictInto(s *session, m *portMemo, dst []float64, stream []PacketIn, kind des.SchedKind, rateBps float64) {
	p.window(s, stream, kind, rateBps)
	if m == nil || p.qnet != nil {
		p.inferChunks(s, s, nil, dst, 0, 1)
		return
	}
	m.begin(p, s.feats, kind, rateBps)
	p.inferChunks(s, s, m, dst, 0, 1)
	m.valid = true
}

// inferChunks runs chunks w, w+stride, … of the stream windowed in src
// through s's window scratch (s == src on the single-threaded paths; a
// chunk-parallel worker reads the shared src and owns s) and consumes
// their predictions into dst. Only a packet that finds the port busy
// needs the network (consumePred gives every other one its
// transmission time), so on the exact backend a chunk asks the network
// only for its busy span: the rows from the first to the last busy
// position of its consumed range [Lo, Hi), cut at the stream end. The
// attention queries, softmax and head then cost those rows alone; the
// BLSTMs and the keys still see the whole window. A chunk with no busy
// position is not run on either backend, and the quantized backend
// asks for the whole consumed range. A non-nil m (single-threaded
// exact path only, after m.begin) supplies the raw outputs of a window
// whose input rows are unchanged since the port's last call when it
// holds one for every position that is busy in this call, and records
// the raw outputs of every window that runs: NaN at each consumed
// position a window did not compute, so an output is never supplied
// for a packet it was not computed for.
func (p *PTM) inferChunks(s, src *session, m *portMemo, dst []float64, w, stride int) {
	n := len(dst)
	for i := w; i < len(src.chunks); i += stride {
		ck := src.chunks[i]
		lo, hi := ck.Start+ck.Lo, ck.Start+min(ck.Hi, n-ck.Start) // consumed positions
		blo, bhi := busySpan(src.backlog, lo, hi)
		if blo == bhi {
			copy(dst[lo:hi], src.tx[lo:hi])
			if m != nil {
				m.unrecorded(lo, hi)
			}
			continue
		}
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
			y := p.qnet.Infer(s.fx, lo-ck.Start, hi-ck.Start, s.farena)
			s.windowsRun++
			for t := 0; t < y.Rows; t++ {
				p.consumePred(dst, y.At(t, 0), lo+t, src.tx, src.backlog)
			}
			continue
		}
		end := min(n, ck.Start+p.TimeSteps)
		if m != nil && m.unchanged(src.feats, ck.Start, end) && m.holds(src.backlog, blo, bhi) {
			for pos := lo; pos < hi; pos++ {
				p.consumePred(dst, m.raw[pos], pos, src.tx, src.backlog)
			}
			continue
		}
		s.arena.Reset()
		if s == src {
			p.prefixTo(s, ck.Start, end)
		}
		y := p.Net.InferWindow(&src.preM, ck.Start, p.TimeSteps, blo-ck.Start, bhi-ck.Start, s.arena, s.packs)
		s.windowsRun++
		copy(dst[lo:blo], src.tx[lo:blo])
		copy(dst[bhi:hi], src.tx[bhi:hi])
		if m != nil {
			m.unrecorded(lo, hi)
		}
		for t := 0; t < y.Rows; t++ {
			v := y.At(t, 0)
			if m != nil {
				m.raw[blo+t] = v
			}
			p.consumePred(dst, v, blo+t, src.tx, src.backlog)
		}
	}
}

// busySpan returns [first, last+1) of the positions in [lo, hi) whose
// arrival finds its egress port busy, or an empty span (lo, lo) when
// there is none. featurizeFlat clamps the backlog at 0, so a busy
// arrival is one whose backlog is positive.
func busySpan(backlog []float64, lo, hi int) (int, int) {
	first := lo
	for first < hi && backlog[first] <= 0 {
		first++
	}
	if first == hi {
		return lo, lo
	}
	last := hi - 1
	for backlog[last] <= 0 {
		last--
	}
	return first, last + 1
}

// consumePred maps one raw network output to a sojourn time: clamp to
// the modest extrapolation range (unseen-load generalization, Fig. 9,
// without runaway tails), SEC-correct in residual space, unscale, and
// invert the target transform against the packet's deterministic
// backlog and transmission time. A packet that finds the port idle
// leaves after exactly its transmission time, whatever v says: every
// discipline the DES models is work-conserving and non-preemptive, so
// an idle port starts the packet at once and its target is exactly 0.
// That is why inferChunks asks the network only for a window's busy
// span: no output it leaves out could reach dst.
func (p *PTM) consumePred(dst []float64, v float64, pos int, tx, backlog []float64) {
	if backlog[pos] <= 0 {
		dst[pos] = tx[pos]
		return
	}
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
		p.sess = newSession(p.TimeSteps, p.qnet != nil)
	}
	return p.sess
}

// WindowsRun returns how many DNN windows p's prediction paths have
// run on its own session. A window a PortStream's memo supplied is not
// counted, nor is one not run because every packet it is consumed for
// finds the port idle. A window counts once whatever part of its
// consumed rows it asked the network for (its busy span), so the count
// does not move when the rows asked for shrink; the time per window
// does. It reads the session unguarded, so call it only while p is not
// predicting.
func (p *PTM) WindowsRun() int {
	if p.sess == nil {
		return 0
	}
	return p.sess.windowsRun
}

// PortStream is one egress port's inference batch inside PredictDevice:
// the sorted ingress stream, the port line rate, and the output slice
// the sojourn predictions are written to (reused when large enough).
//
// A PortStream also remembers its last PredictDevice call on the exact
// backend: the scaled feature rows every window read and the raw
// network output of every position a window computed. A window whose
// input rows, stream length, model network, window shape, discipline
// and line rate are bit-identical to that call's takes its recorded
// outputs instead of running, provided it recorded one for every
// position that is busy in this call; they then go through this call's
// clamp, SEC and target inverse, so the sojourns are the bits a fresh
// PortStream gets. A window computes outputs only for its busy span,
// and a window whose consumed packets all find the port idle computes
// none: every consumed position it did not compute is recorded as NaN,
// so the memo never supplies an output for a packet it was not
// computed for (a backlog-blind scaler can keep the rows while the
// busy positions move). Pass
// the same PortStream for the same port on every call (an IRSA sweep
// per call) to get that reuse, or a fresh one to get none. The memo
// assumes the network's weights do not change between two calls on one
// PortStream: nothing but nn.Train mutates them, and nothing trains a
// model while it predicts. Copies of a PortStream share one memo.
type PortStream struct {
	Stream  []PacketIn
	RateBps float64
	Out     []float64

	memo *portMemo // nil until the first exact call
}

// portMemo is one port's record of its last exact PredictDevice call.
// Its buffers are grow-only and written in place, so a port whose
// stream length stays the same allocates nothing after its first call.
// They are per port and never swapped with the session's: sessions are
// shared by every port of every device a model clone serves, so a swap
// would trade buffers of different sizes and reallocate every sweep.
type portMemo struct {
	valid bool // key, feats and raw describe one whole call
	key   memoKey
	buf   []float64 // backs feats and raw
	feats []float64 // n × NumFeatures scaled feature rows the windows read
	raw   []float64 // n raw network outputs by consumed position, NaN where none was computed

	// Per-call comparison state: rows [0, scan) are compared (and
	// copied in where they differed); dirty is the last that differed.
	scan, dirty int
}

// memoKey is the shape of a call: every input of the windows' outputs
// other than their feature rows.
type memoKey struct {
	net           *nn.Sequential
	n             int // stream length; it fixes the chunk tiling
	steps, margin int
	kind          des.SchedKind
	rate          uint64 // math.Float64bits of the line rate
}

// begin readies m for a call over the scaled rows feats. When the call
// has the shape of the recorded one, its rows are compared window by
// window as the sweep reaches them (unchanged); otherwise they are
// copied in whole and every window runs. m stays invalid until the
// call completes, so a call that panics half way leaves nothing
// half-recorded to reuse.
func (m *portMemo) begin(p *PTM, feats []float64, kind des.SchedKind, rateBps float64) {
	n := len(feats) / NumFeatures
	key := memoKey{net: p.Net, n: n, steps: p.TimeSteps, margin: p.Margin, kind: kind, rate: math.Float64bits(rateBps)}
	same := m.valid && m.key == key
	m.valid, m.key = false, key
	m.buf = growFloats(m.buf, len(feats)+n)
	m.feats, m.raw = m.buf[:len(feats)], m.buf[len(feats):]
	m.scan, m.dirty = 0, -1
	if !same {
		copy(m.feats, feats)
		m.scan, m.dirty = n, n
	}
}

// unchanged reports whether rows [start, end) of feats are bitwise the
// rows the memo recorded. It compares each row once, copying the ones
// that differ into the memo; windows must be asked in stream order.
func (m *portMemo) unchanged(feats []float64, start, end int) bool {
	for r := m.scan; r < end; r++ {
		row := feats[r*NumFeatures : (r+1)*NumFeatures]
		old := m.feats[r*NumFeatures : (r+1)*NumFeatures]
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(old[j]) {
				copy(old, row)
				m.dirty = r
				break
			}
		}
	}
	m.scan = max(m.scan, end)
	return m.dirty < start
}

// unrecorded marks consumed positions [lo, hi) as holding no output:
// the window that consumes them did not compute one there.
func (m *portMemo) unrecorded(lo, hi int) {
	for pos := lo; pos < hi; pos++ {
		m.raw[pos] = math.NaN()
	}
}

// holds reports whether the memo records an output for every busy
// position in [lo, hi), given this call's backlogs.
func (m *portMemo) holds(backlog []float64, lo, hi int) bool {
	for pos := lo; pos < hi; pos++ {
		if backlog[pos] > 0 && math.IsNaN(m.raw[pos]) {
			return false
		}
	}
	return true
}

// PredictDevice predicts sojourn times for every egress port of one
// device in a single batched call: all ports' windows run through one
// session (one arena, one window matrix, shared flat buffers) instead
// of a PredictStream round-trip per port. Each port's predictions land
// in ports[i].Out. A packet that finds its port idle gets exactly its
// transmission time, and a window whose consumed packets all do is not
// run, on either backend. On the exact backend a port also skips every
// window whose inputs are unchanged since its previous call (see
// PortStream). Not goroutine-safe.
func (p *PTM) PredictDevice(ports []PortStream, kind des.SchedKind) {
	s := p.getSession()
	for i := range ports {
		ps := &ports[i]
		if len(ps.Stream) == 0 {
			ps.Out = ps.Out[:0]
			continue
		}
		ps.Out = growFloats(ps.Out, len(ps.Stream))
		if ps.memo == nil && p.qnet == nil {
			ps.memo = &portMemo{}
		}
		p.predictInto(s, ps.memo, ps.Out, ps.Stream, kind, ps.RateBps)
	}
}

package des

// Scheduler is the traffic-management discipline of one egress port.
// Enqueue returns false when buffer management drops the packet.
// Dequeue returns the next packet to transmit, or nil when idle.
// Implementations are single-threaded (driven by the Simulator loop).
type Scheduler interface {
	Enqueue(p *Packet) bool
	Dequeue() *Packet
	Len() int
	Bytes() int
	PerClassLen() []int
	Kind() SchedKind
}

// SchedKind enumerates the supported disciplines, in the one-hot encoding
// order the paper uses for the PTM scheduler feature (§4.1): SP, WRR, DRR,
// WFQ; FIFO is the single-queue baseline configuration.
type SchedKind int

// Scheduler kinds.
const (
	FIFO SchedKind = iota
	SP
	WRR
	DRR
	WFQ
)

// String returns the discipline name.
func (k SchedKind) String() string {
	switch k {
	case FIFO:
		return "FIFO"
	case SP:
		return "SP"
	case WRR:
		return "WRR"
	case DRR:
		return "DRR"
	case WFQ:
		return "WFQ"
	}
	return "?"
}

// pktQueue is a simple FIFO deque of packets.
type pktQueue struct {
	items []*Packet
	head  int
	bytes int
}

func (q *pktQueue) len() int { return len(q.items) - q.head }

func (q *pktQueue) push(p *Packet) {
	q.items = append(q.items, p)
	q.bytes += p.Size
}

func (q *pktQueue) peek() *Packet {
	if q.len() == 0 {
		return nil
	}
	return q.items[q.head]
}

func (q *pktQueue) pop() *Packet {
	if q.len() == 0 {
		return nil
	}
	p := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	q.bytes -= p.Size
	if q.head > 64 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return p
}

// fifoSched is a single drop-tail queue.
type fifoSched struct {
	q   pktQueue
	cap int // max queued packets; <=0 means unbounded
}

// NewFIFO returns a FIFO scheduler with the given per-queue packet
// capacity (<= 0 for unbounded).
func NewFIFO(capacity int) Scheduler { return &fifoSched{cap: capacity} }

func (f *fifoSched) Enqueue(p *Packet) bool {
	if f.cap > 0 && f.q.len() >= f.cap {
		return false
	}
	f.q.push(p)
	return true
}

func (f *fifoSched) Dequeue() *Packet   { return f.q.pop() }
func (f *fifoSched) Len() int           { return f.q.len() }
func (f *fifoSched) Bytes() int         { return f.q.bytes }
func (f *fifoSched) PerClassLen() []int { return []int{f.q.len()} }
func (f *fifoSched) Kind() SchedKind    { return FIFO }

// classedBase holds the per-class queues shared by SP/WRR/DRR/WFQ.
type classedBase struct {
	queues []pktQueue
	cap    int // per-class packet capacity; <=0 unbounded
}

func newClassedBase(classes, capacity int) classedBase {
	return classedBase{queues: make([]pktQueue, classes), cap: capacity}
}

func (c *classedBase) class(p *Packet) int {
	k := p.Class
	if k < 0 {
		k = 0
	}
	if k >= len(c.queues) {
		k = len(c.queues) - 1
	}
	return k
}

func (c *classedBase) enqueue(p *Packet) (int, bool) {
	k := c.class(p)
	if c.cap > 0 && c.queues[k].len() >= c.cap {
		return k, false
	}
	c.queues[k].push(p)
	return k, true
}

func (c *classedBase) Len() int {
	n := 0
	for i := range c.queues {
		n += c.queues[i].len()
	}
	return n
}

func (c *classedBase) Bytes() int {
	n := 0
	for i := range c.queues {
		n += c.queues[i].bytes
	}
	return n
}

func (c *classedBase) PerClassLen() []int {
	out := make([]int, len(c.queues))
	for i := range c.queues {
		out[i] = c.queues[i].len()
	}
	return out
}

// spSched is strict priority: class 0 is the highest priority and starves
// lower classes (§B.1.2's g_k for SP).
type spSched struct{ classedBase }

// NewSP returns a strict-priority scheduler over the given class count.
func NewSP(classes, capacity int) Scheduler {
	return &spSched{newClassedBase(classes, capacity)}
}

func (s *spSched) Enqueue(p *Packet) bool { _, ok := s.enqueue(p); return ok }

func (s *spSched) Dequeue() *Packet {
	for i := range s.queues {
		if p := s.queues[i].pop(); p != nil {
			return p
		}
	}
	return nil
}

func (s *spSched) Kind() SchedKind { return SP }

// wrrSched is weighted round robin: each round, queue k may send up to
// weight[k] packets; empty queues are skipped (work conservation).
type wrrSched struct {
	classedBase
	weights []int
	cur     int   // queue index being served this round
	credit  []int // packets remaining for each queue this round
}

// NewWRR returns a weighted-round-robin scheduler. Weights must be
// positive integers, one per class.
func NewWRR(weights []int, capacity int) Scheduler {
	w := &wrrSched{classedBase: newClassedBase(len(weights), capacity),
		weights: append([]int(nil), weights...),
		credit:  make([]int, len(weights))}
	for i, v := range weights {
		if v <= 0 {
			panic("des: WRR weight must be positive")
		}
		w.credit[i] = v
	}
	return w
}

func (w *wrrSched) Enqueue(p *Packet) bool { _, ok := w.enqueue(p); return ok }

func (w *wrrSched) Dequeue() *Packet {
	if w.Len() == 0 {
		return nil
	}
	n := len(w.queues)
	for scanned := 0; scanned < 2*n; scanned++ {
		q := &w.queues[w.cur]
		if q.len() > 0 && w.credit[w.cur] > 0 {
			w.credit[w.cur]--
			return q.pop()
		}
		// Exhausted or empty: refresh credit and advance.
		w.credit[w.cur] = w.weights[w.cur]
		w.cur = (w.cur + 1) % n
	}
	// All queues scanned twice with refreshed credit — serve any head.
	for i := range w.queues {
		if p := w.queues[i].pop(); p != nil {
			return p
		}
	}
	return nil
}

func (w *wrrSched) Kind() SchedKind { return WRR }

// drrSched is deficit round robin (Shreedhar & Varghese). The quantum of
// class k is weight[k]·quantumUnit bytes.
type drrSched struct {
	classedBase
	quanta  []int
	deficit []int
	cur     int
	fresh   bool // whether cur has already received its quantum this visit
}

// NewDRR returns a deficit-round-robin scheduler. quantumUnit is the byte
// quantum granted per unit weight per round (commonly the MTU).
func NewDRR(weights []float64, quantumUnit int, capacity int) Scheduler {
	d := &drrSched{classedBase: newClassedBase(len(weights), capacity),
		quanta:  make([]int, len(weights)),
		deficit: make([]int, len(weights))}
	for i, w := range weights {
		if w <= 0 {
			panic("des: DRR weight must be positive")
		}
		d.quanta[i] = int(w * float64(quantumUnit))
		if d.quanta[i] <= 0 {
			d.quanta[i] = 1
		}
	}
	return d
}

func (d *drrSched) Enqueue(p *Packet) bool { _, ok := d.enqueue(p); return ok }

func (d *drrSched) Dequeue() *Packet {
	if d.Len() == 0 {
		return nil
	}
	n := len(d.queues)
	for {
		q := &d.queues[d.cur]
		if q.len() == 0 {
			d.deficit[d.cur] = 0 // idle queues lose their deficit
			d.cur = (d.cur + 1) % n
			d.fresh = false
			continue
		}
		if !d.fresh {
			d.deficit[d.cur] += d.quanta[d.cur]
			d.fresh = true
		}
		head := q.peek()
		if head.Size <= d.deficit[d.cur] {
			d.deficit[d.cur] -= head.Size
			return q.pop()
		}
		d.cur = (d.cur + 1) % n
		d.fresh = false
	}
}

func (d *drrSched) Kind() SchedKind { return DRR }

// wfqSched is packetized weighted fair queueing implemented with
// start-time fair queueing virtual finish tags: on enqueue, a packet in
// class k gets tag max(V, lastFinish_k) + size/weight_k; Dequeue serves
// the smallest head tag and advances V to it.
type wfqSched struct {
	classedBase
	weights    []float64
	tags       []tagQueue
	lastFinish []float64
	vtime      float64
}

type tagQueue struct {
	items []float64
	head  int
}

func (t *tagQueue) push(v float64) { t.items = append(t.items, v) }
func (t *tagQueue) peek() float64  { return t.items[t.head] }
func (t *tagQueue) pop() float64 {
	v := t.items[t.head]
	t.head++
	if t.head > 64 && t.head*2 >= len(t.items) {
		t.items = append(t.items[:0], t.items[t.head:]...)
		t.head = 0
	}
	return v
}

// NewWFQ returns a weighted-fair-queueing scheduler with the given
// positive per-class weights.
func NewWFQ(weights []float64, capacity int) Scheduler {
	w := &wfqSched{classedBase: newClassedBase(len(weights), capacity),
		weights:    append([]float64(nil), weights...),
		tags:       make([]tagQueue, len(weights)),
		lastFinish: make([]float64, len(weights))}
	for _, v := range weights {
		if v <= 0 {
			panic("des: WFQ weight must be positive")
		}
	}
	return w
}

func (w *wfqSched) Enqueue(p *Packet) bool {
	k, ok := w.enqueue(p)
	if !ok {
		return false
	}
	start := w.vtime
	if w.lastFinish[k] > start {
		start = w.lastFinish[k]
	}
	finish := start + float64(p.Size)/w.weights[k]
	w.lastFinish[k] = finish
	w.tags[k].push(finish)
	return true
}

func (w *wfqSched) Dequeue() *Packet {
	best := -1
	bestTag := 0.0
	for i := range w.queues {
		if w.queues[i].len() == 0 {
			continue
		}
		tag := w.tags[i].peek()
		if best < 0 || tag < bestTag {
			best, bestTag = i, tag
		}
	}
	if best < 0 {
		return nil
	}
	w.vtime = bestTag
	w.tags[best].pop()
	return w.queues[best].pop()
}

func (w *wfqSched) Kind() SchedKind { return WFQ }

// SchedConfig describes how to construct a scheduler; it is the
// device-configuration surface SInit consumes.
type SchedConfig struct {
	Kind        SchedKind
	Classes     int       // number of classes (SP)
	Weights     []float64 // per-class weights (WRR/DRR/WFQ)
	QuantumUnit int       // DRR quantum per unit weight (bytes)
	Capacity    int       // per-queue packet capacity (<=0 unbounded)
}

// Build constructs the scheduler described by the config.
func (c SchedConfig) Build() Scheduler {
	switch c.Kind {
	case FIFO:
		return NewFIFO(c.Capacity)
	case SP:
		n := c.Classes
		if n <= 0 {
			n = len(c.Weights)
		}
		if n <= 0 {
			n = 1
		}
		return NewSP(n, c.Capacity)
	case WRR:
		w := make([]int, len(c.Weights))
		for i, v := range c.Weights {
			w[i] = int(v + 0.5)
			if w[i] <= 0 {
				w[i] = 1
			}
		}
		if len(w) == 0 {
			w = []int{1}
		}
		return NewWRR(w, c.Capacity)
	case DRR:
		qu := c.QuantumUnit
		if qu <= 0 {
			qu = 1500
		}
		ws := c.Weights
		if len(ws) == 0 {
			ws = []float64{1}
		}
		return NewDRR(ws, qu, c.Capacity)
	case WFQ:
		ws := c.Weights
		if len(ws) == 0 {
			ws = []float64{1}
		}
		return NewWFQ(ws, c.Capacity)
	}
	panic("des: unknown scheduler kind")
}

// NumClasses returns the class count of the configuration.
func (c SchedConfig) NumClasses() int {
	switch c.Kind {
	case FIFO:
		return 1
	case SP:
		if c.Classes > 0 {
			return c.Classes
		}
		if len(c.Weights) > 0 {
			return len(c.Weights)
		}
		return 1
	default:
		if len(c.Weights) > 0 {
			return len(c.Weights)
		}
		return 1
	}
}

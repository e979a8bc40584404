package core

import (
	"cmp"
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/ptm"
)

// convergeEps stops IRSA early once no arrival estimate moves by more
// than this many seconds. Undamped runs over exact device models get
// there; PTM runs plateau around 1–2 µs and end at the iteration bound
// instead (Result.Converged, FinalDelta).
const convergeEps = 1e-9

// entry locates one device traversal: packet index and hop index.
type entry struct {
	pkt int32
	hop int32
}

// portPlan is the precomputed inference work of one egress port: its
// traversal entries (re-sorted in place by the current arrival
// estimates each iteration), the fixed line rate, and a reusable
// ingress-stream buffer.
type portPlan struct {
	port   int
	es     []entry
	rate   float64
	stream []ptm.PacketIn
}

// devicePlan is one device's precomputed inference work. Packet routes
// are fixed for a run, so the egress-port grouping never changes across
// IRSA iterations; building it once removes the per-iteration map
// rebuild, and the plan-owned buffers give the sweep its steady-state
// zero-allocation property (TestInferDeviceZeroAllocs). A device runs
// on one worker per sweep, but not always the same one: the join that
// ends a sweep orders one worker's writes to the plan before the next
// worker's reads.
type devicePlan struct {
	isHost bool
	ports  []portPlan
	batch  []ptm.PortStream // parallel to ports; reused across iterations
}

// buildPlans indexes every device's traversals by egress port, in
// sorted port order.
func buildPlans(devices []int, byDevice map[int][]entry, pkts []*packet) map[int]*devicePlan {
	plans := make(map[int]*devicePlan, len(devices))
	for _, d := range devices {
		es := byDevice[d]
		if len(es) == 0 {
			continue
		}
		pl := &devicePlan{}
		if pkts[es[0].pkt].hops[es[0].hop].isHost {
			// Hosts serialize one egress stream exactly; keep a private
			// copy so the in-place sort never disturbs byDevice's order.
			pl.isHost = true
			pl.ports = []portPlan{{es: append([]entry(nil), es...)}}
			plans[d] = pl
			continue
		}
		// Group traversals by egress port: this grouping is the PFM's
		// ingress-to-egress mixing (Eq. 7), and Delay() applies per
		// egress stream.
		byPort := make(map[int][]entry)
		for _, e := range es {
			out := pkts[e.pkt].hops[e.hop].outPort
			byPort[out] = append(byPort[out], e)
		}
		ports := make([]int, 0, len(byPort))
		for p := range byPort {
			ports = append(ports, p)
		}
		sort.Ints(ports)
		pl.ports = make([]portPlan, 0, len(ports))
		for _, port := range ports {
			pes := byPort[port]
			pl.ports = append(pl.ports, portPlan{
				port: port,
				es:   pes,
				rate: pkts[pes[0].pkt].hops[pes[0].hop].rateBps,
			})
		}
		pl.batch = make([]ptm.PortStream, len(pl.ports))
		plans[d] = pl
	}
	return plans
}

// sortEntriesByArrival orders traversals by the current arrival
// estimate, breaking ties by packet ID. The (arrive, id) key is a
// strict total order (IDs are unique), so the result is deterministic
// regardless of input order and of the sorting algorithm — which lets
// this be slices.SortFunc: unlike sort.Slice it neither boxes the slice
// nor builds a reflection swapper, so the per-port, per-iteration sort
// allocates nothing.
func sortEntriesByArrival(es []entry, pkts []*packet) {
	slices.SortFunc(es, func(a, b entry) int {
		pa, pb := pkts[a.pkt], pkts[b.pkt]
		if c := cmp.Compare(pa.arrive[a.hop], pb.arrive[b.hop]); c != 0 {
			return c
		}
		return cmp.Compare(pa.id, pb.id)
	})
}

// fillStream writes the PTM ingress view of the (sorted) traversals
// into stream, which must be len(es) long.
func fillStream(stream []ptm.PacketIn, es []entry, pkts []*packet) {
	for i, e := range es {
		p := pkts[e.pkt]
		stream[i] = ptm.PacketIn{
			Arrive: p.arrive[e.hop], Size: p.size, Proto: p.proto,
			InPort: p.hops[e.hop].inPort, Class: p.class, Weight: p.weight,
		}
	}
}

// Run executes the simulation: TGen, initial inference, and the
// Iterative Re-Sequencing Algorithm (Algorithm 1). Per Theorem 3.1 at
// most diameter(G) iterations are needed, and Run stops earlier once no
// arrival estimate moves by more than convergeEps (1 ns). In practice that
// early stop needs exact device models (hosts, the FIFO fallback) and
// Damping 1, where each sweep settles one more hop; a damped update
// only closes on the fixed point by a factor 1−Damping per iteration,
// and with PTM devices the delta plateaus around 1–2 µs — prediction
// error fed back through the update — so such runs end at their bound.
// Result.Converged and Result.FinalDelta say which happened.
func (s *Sim) Run(duration float64) (*Result, error) {
	return s.RunContext(context.Background(), duration)
}

// RunContext is Run with cooperative cancellation: ctx is checked
// between IRSA iterations and before each device a worker pulls, so a
// cancel or deadline stops the run within one device inference. On
// cancellation it returns the partial Result assembled from the current
// estimates together with an error matching guard.ErrCanceled or
// guard.ErrDeadline (and the underlying context error).
//
// Three further failure modes surface as errors instead of process
// faults: a panic inside an inference worker is recovered into a
// *guard.ShardError; a diverging or NaN-poisoned delta sequence aborts
// with a *guard.DivergenceError carrying the delta trace; and a device
// whose model is missing or fails validation is degraded to the exact
// FIFO-serialization fallback and listed in Result.DegradedDevices.
func (s *Sim) RunContext(ctx context.Context, duration float64) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return &Result{}, guard.FromContext(err)
	}
	pkts, err := s.genPackets(duration)
	if err != nil {
		return nil, err
	}
	damping := s.Cfg.Damping
	if damping <= 0 {
		damping = 0.7
	}
	damping = min(damping, 1)
	shards := max(s.Cfg.Shards, 1)

	byDevice, devices := indexTraversals(pkts)

	// Initial inference: sojourn = transmission time only, then propagate
	// arrival estimates (Algorithm 1's first pass over ingress streams).
	for _, p := range pkts {
		for h := range p.hops {
			p.sojourn[h] = float64(p.size*8) / p.hops[h].rateBps
		}
	}
	propagate(pkts)

	// Resolve and validate every switch's model once; devices with a
	// missing or invalid model degrade to the exact FIFO fallback.
	devModels, degraded := s.resolveDeviceModels(devices, byDevice, pkts)

	// Routes are fixed for the run, so the per-device egress grouping is
	// computed once; iterations only re-sort entries in place.
	plans := buildPlans(devices, byDevice, pkts)

	sw := &sweeper{s: s, ctx: ctx, queue: queueOrder(devices, plans, devModels), plans: plans, pkts: pkts,
		models: devModels, replicas: make([]map[DeviceModel]DeviceModel, shards), errs: make([]error, shards),
		work: make([]time.Duration, shards)}

	diameter := s.G.Diameter()
	// Theorem 3.1 bounds convergence by the number of device hops a
	// packet's stream can traverse. With echo legs the round trip doubles
	// the path, so the effective bound is the longest per-packet hop
	// sequence (= diameter for one-way runs).
	maxIter := 1
	for _, p := range pkts {
		maxIter = max(maxIter, len(p.hops))
	}
	if damping < 1 {
		// Damped updates converge geometrically rather than in one
		// sweep per hop; allow extra iterations (the eps check stops
		// earlier when the delta gets there — see Run).
		maxIter += maxIter / 2
	}
	// Damping needs the previous iteration's sojourns.
	var prev [][]float64
	if damping < 1 {
		prev = make([][]float64, len(pkts))
		for i, p := range pkts {
			prev[i] = make([]float64, len(p.sojourn))
		}
	}
	// finish assembles the (possibly partial) Result from the current
	// estimates — also the exit path for canceled and failed runs, so
	// callers get the partial trace alongside the error for diagnosis.
	iters, finalDelta, converged := 0, 0.0, false
	finish := func(err error) (*Result, error) {
		res := s.collect(pkts, byDevice, iters, diameter, maxIter)
		res.FinalDelta, res.Converged = finalDelta, converged
		res.DegradedReasons = degraded
		for d := range degraded {
			res.DegradedDevices = append(res.DegradedDevices, d)
		}
		sort.Ints(res.DegradedDevices)
		return res, err
	}
	watchdog := &guard.Watchdog{}
	obs := s.Cfg.Observer
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return finish(guard.FromContext(err))
		}
		iters++
		var iterStart time.Time
		if obs != nil {
			//dqnlint:allow detguard wall-clock observer instrumentation; timing is reported, never fed back into simulation state
			iterStart = time.Now()
		}
		if damping < 1 {
			for i, p := range pkts {
				copy(prev[i], p.sojourn)
			}
		}
		if err := sw.sweep(iter); err != nil {
			return finish(err)
		}
		if err := ctx.Err(); err != nil {
			return finish(guard.FromContext(err))
		}
		if damping < 1 && iter > 0 {
			// Skip damping on the first iteration: the initial estimate
			// (transmission time only) is far from the fixed point and
			// holding on to it would only slow convergence.
			for i, p := range pkts {
				for h := range p.sojourn {
					p.sojourn[h] = damping*p.sojourn[h] + (1-damping)*prev[i][h]
				}
			}
		}

		delta := propagate(pkts)
		finalDelta = delta
		if obs != nil {
			//dqnlint:allow detguard wall-clock observer instrumentation; timing is reported, never fed back into simulation state
			obs.ObserveIteration(IterationEvent{Iter: iter, Delta: delta, Duration: time.Since(iterStart), ShardWork: sw.work})
		}
		if err := watchdog.Observe(iter, delta); err != nil {
			return finish(err)
		}
		if delta <= convergeEps {
			converged = true
			break
		}
	}

	return finish(nil)
}

// queueOrder returns the run's device queue, heaviest first: switches
// that run a model by their estimated DNN windows (Σ over egress ports
// of ⌈n/16⌉+1 for n packets), then hosts and degraded switches, whose
// exact serialization costs next to nothing; ties go to the lower
// device ID. The estimate is structural, so the order is the same on
// every run of a scenario.
func queueOrder(devices []int, plans map[int]*devicePlan, models map[int]DeviceModel) []int {
	cost := func(d int) (c int) {
		if models[d] != nil {
			for _, pp := range plans[d].ports {
				c += (len(pp.es)+15)/16 + 1
			}
		}
		return c
	}
	q := slices.Clone(devices) // sorted by ID
	slices.SortStableFunc(q, func(a, b int) int { return cmp.Compare(cost(b), cost(a)) })
	return q
}

// sweeper runs the device inferences of a run's IRSA sweeps on Shards
// workers. Every sweep, each worker pulls the next device off the one
// queue (queueOrder) until it is empty, so no worker idles while
// devices remain. A device runs on the pulling worker's replica of its
// model with the device's own plan: replicas of one model share its
// network, so a port's memo of its last sweep is reused by whichever
// worker runs the port next (ptm.PortStream). Inside a sweep a device
// reads only the previous sweep's arrival estimates and writes only
// its own traversals' sojourns, so which worker runs it changes no bit.
type sweeper struct {
	s        *Sim
	ctx      context.Context
	queue    []int
	plans    map[int]*devicePlan
	pkts     []*packet
	models   map[int]DeviceModel
	replicas []map[DeviceModel]DeviceModel // per worker
	errs     []error                       // per worker; each writes only its own slot
	work     []time.Duration               // per worker, this sweep's inference wall time (timed for an observer)

	iter   int
	next   atomic.Int64 // queue index of the next device to pull
	failed atomic.Bool  // a device failed: no worker pulls another
}

// sweep infers every device once. Workers pull devices off the queue
// on their own goroutines, worker 0 on the calling one.
func (w *sweeper) sweep(iter int) error {
	w.iter = iter
	w.next.Store(0)
	w.failed.Store(false)
	clear(w.errs)
	clear(w.work)
	var wg sync.WaitGroup
	for i := 1; i < len(w.errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.pull(i)
		}(i)
	}
	w.pull(0)
	wg.Wait()
	return errors.Join(w.errs...)
}

// pull runs devices off the queue on worker i until the queue is
// empty, a device fails, or the run is canceled (the caller maps
// ctx.Err() to the cancel error).
func (w *sweeper) pull(i int) {
	for !w.failed.Load() && w.ctx.Err() == nil {
		q := int(w.next.Add(1)) - 1
		if q >= len(w.queue) || !w.infer(i, w.queue[q]) {
			return
		}
	}
}

// infer runs device d on worker i and reports whether it succeeded. A
// failure is recorded, and stops further pulls, before the observer
// hears of the device.
func (w *sweeper) infer(i, d int) bool {
	obs := w.s.Cfg.Observer
	var t0 time.Time
	if obs != nil {
		//dqnlint:allow detguard wall-clock worker-timing instrumentation; timing is reported, never fed back into simulation state
		t0 = time.Now()
	}
	if w.replicas[i] == nil {
		w.replicas[i] = make(map[DeviceModel]DeviceModel)
	}
	err := w.s.inferDeviceGuarded(w.iter, i, d, w.plans[d], w.pkts, w.models[d], w.replicas[i])
	if err != nil {
		w.errs[i] = err
		w.failed.Store(true)
	}
	if obs != nil {
		//dqnlint:allow detguard wall-clock worker-timing instrumentation; timing is reported, never fed back into simulation state
		dur := time.Since(t0)
		w.work[i] += dur
		obs.ObserveInference(inferenceEvent(i, d, w.plans[d], w.models[d], dur))
	}
	return err == nil
}

// inferenceEvent assembles the observer's view of one device inference.
func inferenceEvent(w, dev int, plan *devicePlan, model DeviceModel, dur time.Duration) InferenceEvent {
	ev := InferenceEvent{Device: dev, Shard: w, Duration: dur, Ports: len(plan.ports),
		Host: plan.isHost, Degraded: !plan.isHost && model == nil}
	for i := range plan.ports {
		ev.Packets += len(plan.ports[i].es)
	}
	return ev
}

// inferDeviceGuarded runs inferDevice with panic isolation; w is the
// worker, reported as the ShardError's shard.
func (s *Sim) inferDeviceGuarded(iter, w, dev int, plan *devicePlan, pkts []*packet,
	model DeviceModel, replicas map[DeviceModel]DeviceModel) (err error) {

	defer func() {
		if se := guard.Recovered(w, dev, iter, recover()); se != nil {
			err = se
		}
	}()
	s.inferDevice(dev, plan, pkts, model, replicas)
	return nil
}

// indexTraversals groups every packet hop by the device it crosses and
// returns the groups with the sorted device list.
func indexTraversals(pkts []*packet) (map[int][]entry, []int) {
	byDevice := make(map[int][]entry)
	for pi, p := range pkts {
		for hi := range p.hops {
			d := p.hops[hi].device
			byDevice[d] = append(byDevice[d], entry{pkt: int32(pi), hop: int32(hi)})
		}
	}
	devices := make([]int, 0, len(byDevice))
	for d := range byDevice {
		devices = append(devices, d)
	}
	sort.Ints(devices)
	return byDevice, devices
}

// propagate recomputes per-packet arrival estimates from the current
// sojourns and returns the largest change in any hop's arrival
// estimate. A packet's delivery time enters only the NaN/±Inf check: a
// NaN or ±Inf estimate is returned as-is (not swallowed by the max
// comparison) so the divergence watchdog sees the poisoning immediately.
func propagate(pkts []*packet) float64 {
	maxDelta := 0.0
	for _, p := range pkts {
		t := p.create
		for h := range p.hops {
			d := math.Abs(p.arrive[h] - t)
			if math.IsNaN(d) || math.IsInf(d, 0) {
				return d
			}
			if d > maxDelta {
				maxDelta = d
			}
			p.arrive[h] = t
			t += p.sojourn[h] + p.hops[h].linkDelay
		}
		if math.IsNaN(t) || math.IsInf(t, 0) {
			// A poisoned sojourn on a packet's FINAL hop never re-enters
			// any arrival estimate (the loop adds it after the last
			// comparison), and damping keeps it NaN forever — so check the
			// departure time itself, or the poison would sail past the
			// watchdog straight into the delivered trace.
			return math.Abs(t)
		}
	}
	return maxDelta
}

// inferDevice recomputes the sojourn of every packet traversal of one
// device from the current arrival estimates: exact FIFO serialization
// for host egresses, PTM inference per egress port for switches. On a
// switch, a packet that finds its egress port idle gets exactly its
// transmission time, as under serialization, and the model runs no DNN
// window whose packets all do (ptm.PredictDevice). A switch without a
// usable model (nil here = degraded) runs the exact serialization
// fallback on every egress port.
func (s *Sim) inferDevice(dev int, plan *devicePlan, pkts []*packet,
	model DeviceModel, replicas map[DeviceModel]DeviceModel) {

	if plan.isHost {
		serializeFIFOInPlace(plan.ports[0].es, pkts)
		return
	}
	if model == nil {
		// Degraded device: exact transmission + FIFO queueing per egress
		// port — the availability-preserving fallback.
		for i := range plan.ports {
			serializeFIFOInPlace(plan.ports[i].es, pkts)
		}
		return
	}
	rep := replicas[model]
	if rep == nil {
		rep = model.CloneModel()
		replicas[model] = rep
	}
	kind := s.Cfg.Sched.Kind
	for i := range plan.ports {
		sortEntriesByArrival(plan.ports[i].es, pkts)
	}
	// Every egress port of the device in one call against the replica's
	// inference scratch; streams and outputs live in plan-owned reusable
	// buffers. The same PortStream serves a port on every sweep, so a
	// port's windows whose inputs did not move since the last sweep are
	// not re-run (ptm.PortStream).
	for i := range plan.ports {
		pp := &plan.ports[i]
		pp.stream = slices.Grow(pp.stream[:0], len(pp.es))[:len(pp.es)]
		fillStream(pp.stream, pp.es, pkts)
		plan.batch[i].Stream = pp.stream
		plan.batch[i].RateBps = pp.rate
	}
	rep.PredictDevice(plan.batch, kind)
	for i := range plan.ports {
		out := plan.batch[i].Out
		for j, e := range plan.ports[i].es {
			pkts[e.pkt].sojourn[e.hop] = out[j]
		}
	}
}

// serializeFIFOInPlace computes exact FIFO serialization over one
// egress port's traversals (a known, deterministic TM — no DNN needed,
// mirroring the paper's exactly-solvable link model), re-sorting the
// caller-owned entries in place (plan-owned slices make that safe). It
// serves host egresses and, per port, the graceful-degradation fallback
// for switches whose PTM is missing or invalid.
func serializeFIFOInPlace(es []entry, pkts []*packet) {
	sortEntriesByArrival(es, pkts)
	lastDepart := math.Inf(-1)
	for _, e := range es {
		p := pkts[e.pkt]
		arr := p.arrive[e.hop]
		start := arr
		if lastDepart > start {
			start = lastDepart
		}
		depart := start + float64(p.size*8)/p.hops[e.hop].rateBps
		p.sojourn[e.hop] = depart - arr
		lastDepart = depart
	}
}

// collect assembles the Result: deliveries and per-device visit traces.
func (s *Sim) collect(pkts []*packet, byDevice map[int][]entry, iters, diameter, bound int) *Result {
	res := &Result{
		DeviceVisits: make(map[int][]des.Visit, len(byDevice)),
		Iterations:   iters,
		Diameter:     diameter,
		Bound:        bound,
	}
	for _, p := range pkts {
		// One-way delivery: arrival at the destination host.
		fwdLast := p.fwdHops - 1
		oneWay := p.arrive[fwdLast] + p.sojourn[fwdLast] + p.hops[fwdLast].linkDelay
		res.Deliveries = append(res.Deliveries, des.Delivery{
			PktID: p.id, FlowID: p.flow, Src: p.src, Dst: p.dst,
			SendTime: p.create, RecvTime: oneWay, IsRTT: false,
			Hops: p.fwdHops,
		})
		if len(p.hops) > p.fwdHops {
			last := len(p.hops) - 1
			rtt := p.arrive[last] + p.sojourn[last] + p.hops[last].linkDelay
			res.Deliveries = append(res.Deliveries, des.Delivery{
				PktID: p.id, FlowID: p.flow, Src: p.dst, Dst: p.src,
				SendTime: p.create, RecvTime: rtt, IsRTT: true,
				Hops: len(p.hops),
			})
		}
	}
	sort.Slice(res.Deliveries, func(i, j int) bool {
		a, b := res.Deliveries[i], res.Deliveries[j]
		if a.RecvTime != b.RecvTime {
			return a.RecvTime < b.RecvTime
		}
		if a.PktID != b.PktID {
			// Secondary key: deliveries that tie on RecvTime order by
			// packet ID so repeated runs produce byte-identical traces.
			return a.PktID < b.PktID
		}
		// A packet's one-way and echo records can tie too: one-way first.
		return !a.IsRTT && b.IsRTT
	})
	for d, es := range byDevice {
		vs := make([]des.Visit, 0, len(es))
		for _, e := range es {
			p := pkts[e.pkt]
			h := p.hops[e.hop]
			vs = append(vs, des.Visit{
				PktID: p.id, FlowID: p.flow, Device: d,
				InPort: h.inPort, OutPort: h.outPort, Size: p.size,
				Class: p.class, Weight: p.weight, Proto: p.proto,
				Arrive: p.arrive[e.hop], Depart: p.arrive[e.hop] + p.sojourn[e.hop],
			})
		}
		sort.Slice(vs, func(i, j int) bool {
			if vs[i].Arrive != vs[j].Arrive {
				return vs[i].Arrive < vs[j].Arrive
			}
			return vs[i].PktID < vs[j].PktID // deterministic tie-break
		})
		res.DeviceVisits[d] = vs
	}
	return res
}

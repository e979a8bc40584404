package des

import (
	"testing"

	"deepqueuenet/internal/topo"
)

// arrivalList emits its gap/size pairs once, then a gap past the end of
// any run.
type arrivalList struct {
	gaps  []float64
	sizes []int
}

func (a *arrivalList) NextArrival() (float64, int) {
	if len(a.gaps) == 0 {
		return 1e30, 0
	}
	g, s := a.gaps[0], a.sizes[0]
	a.gaps, a.sizes = a.gaps[1:], a.sizes[1:]
	return g, s
}

func TestHostStrayCounting(t *testing.T) {
	sim := NewSimulator()
	trace := NewCollector()
	var id uint64
	h := NewHost(sim, 7, 1e9, false, trace, &id)
	h.Receive(&Packet{ID: 1, Dst: 99}, 0)
	if h.Stray != 1 {
		t.Fatalf("stray %d", h.Stray)
	}
	if len(trace.Deliveries) != 0 {
		t.Fatal("stray packet delivered")
	}
}

func TestHostEchoSwapsDirection(t *testing.T) {
	sim := NewSimulator()
	trace := NewCollector()
	var id uint64
	h := NewHost(sim, 7, 1e9, true, trace, &id)
	sink := &captureNode{}
	h.Connect(sink, 0)
	h.Receive(&Packet{ID: 5, Src: 3, Dst: 7, FlowID: 2, Size: 100, CreatedAt: 1.5}, 0)
	sim.Run(10)
	if len(sink.got) != 1 {
		t.Fatalf("echo not emitted: %d", len(sink.got))
	}
	echo := sink.got[0]
	if !echo.IsEcho || echo.Src != 7 || echo.Dst != 3 {
		t.Fatalf("echo fields %+v", echo)
	}
	if echo.CreatedAt != 1.5 {
		t.Fatalf("echo must keep the original send time, got %v", echo.CreatedAt)
	}
	// The one-way delivery was recorded before echoing.
	if len(trace.Deliveries) != 1 || trace.Deliveries[0].IsRTT {
		t.Fatalf("deliveries %+v", trace.Deliveries)
	}
}

func TestHostRecordsRTTOnEchoReturn(t *testing.T) {
	sim := NewSimulator()
	trace := NewCollector()
	var id uint64
	h := NewHost(sim, 3, 1e9, true, trace, &id)
	h.Receive(&Packet{ID: 5, Src: 9, Dst: 3, CreatedAt: 1.0, IsEcho: true}, 0)
	if len(trace.Deliveries) != 1 || !trace.Deliveries[0].IsRTT {
		t.Fatalf("deliveries %+v", trace.Deliveries)
	}
}

type captureNode struct{ got []*Packet }

func (c *captureNode) Receive(p *Packet, inPort int) { c.got = append(c.got, p) }

func TestHostFlowRequiresSource(t *testing.T) {
	sim := NewSimulator()
	trace := NewCollector()
	var id uint64
	h := NewHost(sim, 1, 1e9, false, trace, &id)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for flow without source")
		}
	}()
	h.AddFlow(Flow{FlowID: 1, Dst: 2})
}

func TestBuildRejectsMultiPortHost(t *testing.T) {
	g := topo.New()
	h := g.AddNode(topo.Host, "h")
	s1 := g.AddNode(topo.Switch, "s1")
	s2 := g.AddNode(topo.Switch, "s2")
	g.Connect(h, s1, 1e9, 1e-6)
	g.Connect(h, s2, 1e9, 1e-6) // second host port: invalid
	g.Connect(s1, s2, 1e9, 1e-6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for multi-port host")
		}
	}()
	Build(g, &topo.Routing{}, NetConfig{Sched: SchedConfig{Kind: FIFO}})
}

func TestHostEgressSerializesBursts(t *testing.T) {
	// The source emits 3 back-to-back packets; the egress must space them by
	// one transmission time each on the wire.
	g := topo.Star(2, topo.LinkParams{RateBps: 1e9, Delay: 0})
	hosts := g.Hosts()
	flows := []topo.FlowDef{{FlowID: 1, Src: hosts[0], Dst: hosts[1]}}
	rt, _ := g.Route(flows)
	net := Build(g, rt, NetConfig{Sched: SchedConfig{Kind: FIFO}})
	net.AddFlow(hosts[0], Flow{FlowID: 1, Dst: hosts[1],
		Source: &arrivalList{gaps: []float64{1e-6, 0, 0}, sizes: []int{1000, 1000, 1000}}})
	net.Run(1)

	sw := g.Switches()[0]
	visits := net.Trace.DeviceVisits(sw)
	if len(visits) != 3 {
		t.Fatalf("%d visits", len(visits))
	}
	tx := 1000 * 8 / 1e9
	for i := 1; i < len(visits); i++ {
		gap := visits[i].Arrive - visits[i-1].Arrive
		if gap < tx-1e-12 {
			t.Fatalf("burst not serialized: arrival gap %v < tx %v", gap, tx)
		}
	}
}

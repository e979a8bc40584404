package queueing

import (
	"math"
	"testing"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/topo"
	"deepqueuenet/internal/traffic"
)

func TestMM1Formulas(t *testing.T) {
	// ρ = 0.5: E[T] = 1/(µ−λ) = 0.002.
	et, err := MM1MeanSojourn(500, 1000)
	if err != nil || math.Abs(et-0.002) > 1e-12 {
		t.Fatalf("E[T] %v %v", et, err)
	}
	if _, err := MM1MeanSojourn(2, 1); err == nil {
		t.Fatal("unstable accepted")
	}
}

func TestKingmanReducesToMM1(t *testing.T) {
	// Ca²=Cs²=1 recovers the exact M/M/1 wait.
	lambda, mu := 400.0, 1000.0
	k, err := KingmanGG1Wait(lambda, mu, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := lambda / (mu * (mu - lambda)) // ρ/(µ−λ)·... = ρ/(µ(1−ρ))
	if math.Abs(k-want) > 1e-12 {
		t.Fatalf("Kingman %v, want %v", k, want)
	}
}

func TestMM1KBlockingMatchesDES(t *testing.T) {
	// Finite buffer K (queue + in service): compare drop fraction.
	const lambda, mu = 900.0, 1000.0
	const K = 5
	theory, err := MM1KBlocking(lambda, mu, K)
	if err != nil {
		t.Fatal(err)
	}

	// DES: one switch, exponential sizes → exponential service. The DES
	// scheduler capacity counts queued packets only; system capacity is
	// queue + 1 in service, so Capacity = K−1 models an M/M/1/K system.
	const meanSize = 1250.0 // bytes; at 10 Mb/s → µ = 1000/s
	const rate = 10e6
	g := topo.Star(2, topo.LinkParams{RateBps: rate, Delay: 1e-6})
	hosts := g.Hosts()
	flows := []topo.FlowDef{{FlowID: 1, Src: hosts[0], Dst: hosts[1]}}
	rt, _ := g.Route(flows)
	net := des.Build(g, rt, des.NetConfig{Sched: des.SchedConfig{Kind: des.FIFO, Capacity: K - 1}})
	r := rng.New(71)
	sizes := &traffic.ExpSize{MeanBytes: meanSize, R: r.Split()}
	net.AddFlow(hosts[0], des.Flow{FlowID: 1, Dst: hosts[1],
		Source: traffic.NewPoisson(lambda, sizes, r.Split()), Stop: 60})
	net.Run(61)

	sw := g.Switches()[0]
	drops := net.Trace.Drops[sw]
	total := 0
	for _, v := range net.Trace.ByDevice[sw] {
		_ = v
		total++
	}
	got := float64(drops) / float64(total)
	if math.Abs(got-theory) > 0.02 {
		t.Fatalf("blocking: DES %v vs theory %v", got, theory)
	}
}

func TestMD1MatchesLDQBDLimit(t *testing.T) {
	// The LDQBD with Poisson arrivals and one class is M/M/1; its mean
	// queue length must satisfy Little's law against MM1MeanSojourn.
	lambda, mu := 700.0, 1000.0
	m := &Model{Arrivals: traffic.PoissonMAP(lambda), Probs: []float64{1},
		Mu: mu, Weights: []float64{1}, Disc: WFQDisc}
	sol, err := m.Solve(80)
	if err != nil {
		t.Fatal(err)
	}
	et, _ := MM1MeanSojourn(lambda, mu)
	littleN := lambda * et
	if math.Abs(sol.MeanQueueLen(0)-littleN) > 0.02 {
		t.Fatalf("LDQBD mean %v vs Little %v", sol.MeanQueueLen(0), littleN)
	}
}

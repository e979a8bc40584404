package ptm

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/rng"
	"deepqueuenet/internal/tensor"
)

func sessionModel(t *testing.T) *PTM {
	t.Helper()
	p, err := Synthetic(Arch{}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testStream(n int, seed uint64) []PacketIn {
	r := rng.New(seed)
	stream := make([]PacketIn, n)
	tm := 0.0
	for i := range stream {
		tm += r.Exp(1e6)
		stream[i] = PacketIn{Arrive: tm, Size: 64 + r.Intn(1400), InPort: r.Intn(8), Class: r.Intn(3), Weight: 1}
	}
	return stream
}

func sojournsBitsEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d predictions, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: packet %d differs bitwise: got %v want %v", label, i, got[i], want[i])
		}
	}
}

// forwardReference predicts a stream the slow, obviously-right way:
// allocating featurization, every window through the network's full
// training-pass Forward (the quantized twin through its own full-range
// pass), and only then the rows each chunk is consumed for.
func forwardReference(p *PTM, stream []PacketIn, kind des.SchedKind, rateBps float64) []float64 {
	n := len(stream)
	rows, aux := Featurize(stream, kind, p.NumPorts, rateBps)
	out := make([]float64, n)
	for _, ck := range Chunks(n, p.TimeSteps, p.Margin) {
		x := ck.Materialize(rows, p.TimeSteps, p.Feat)
		var col func(t int) float64
		if p.qnet != nil {
			fx := tensor.NewF32(x.Rows, x.Cols)
			fx.CopyFromF64(x)
			y := p.qnet.Infer(fx, 0, x.Rows, tensor.NewArenaF32())
			col = func(t int) float64 { return y.At(t, 0) }
		} else {
			y := p.Net.Forward(x)
			col = func(t int) float64 { return y.At(t, 0) }
		}
		for t := ck.Lo; t < ck.Hi && ck.Start+t < n; t++ {
			p.consumePred(out, col(t), ck.Start+t, aux.Tx, aux.Backlog)
		}
	}
	return out
}

// referenceModels are the architectures the prediction paths are held
// to the reference on: the default, the paper's Table 1 (a 200-wide
// first BLSTM, so a 1 600-wide stream prefix), and the shipped trained
// switch8 model, whose gate pre-activations have a trained model's
// distribution.
func referenceModels(t *testing.T) []referenceModel {
	t.Helper()
	synth := func(arch Arch) func() *PTM {
		return func() *PTM {
			p, err := Synthetic(arch, 8, 1)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	return []referenceModel{
		{"default", synth(Arch{})},
		{"paper", synth(PaperArch)},
		{"shipped", func() *PTM {
			p, err := Load(filepath.Join("..", "..", "models", "switch8-std.ptm.json"))
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
	}
}

type referenceModel struct {
	name string
	load func() *PTM
}

// burstStream returns n FIFO packets of 1 000 bytes in which exactly
// the positions busy names find a 10 Gb/s port busy: a busy packet
// arrives 0.1 µs after the one before it (whose transmission takes
// 0.8 µs), any other 100 µs after it, long after every burst here has
// drained. Position 0 always finds the port idle.
func burstStream(n int, busy func(pos int) bool) []PacketIn {
	stream := make([]PacketIn, n)
	tm := 0.0
	for i := range stream {
		if i > 0 && busy(i) {
			tm += 1e-7
		} else {
			tm += 1e-4
		}
		stream[i] = PacketIn{Arrive: tm, Size: 1000, InPort: i % 8, Class: i % 3, Weight: 1}
	}
	return stream
}

// partialWindowStreams are FIFO streams over which the windows that run
// ask the network for part of their consumed rows: in every chunk's
// consumed range the busy rows sit only at its left edge, only at its
// right edge, in one single row, or fill it (every packet but the
// first is busy).
func partialWindowStreams(p *PTM, n int) []struct {
	name string
	busy func(pos int) bool
} {
	chunks := Chunks(n, p.TimeSteps, p.Margin)
	in := func(f func(pos, lo, hi int) bool) func(int) bool {
		return func(pos int) bool {
			for _, ck := range chunks {
				lo, hi := ck.Start+ck.Lo, ck.Start+min(ck.Hi, n-ck.Start)
				if pos >= lo && pos < hi {
					return f(pos, lo, hi)
				}
			}
			return false
		}
	}
	return []struct {
		name string
		busy func(pos int) bool
	}{
		{"left-edge", in(func(pos, lo, _ int) bool { return pos < lo+3 })},
		{"right-edge", in(func(pos, _, hi int) bool { return pos >= hi-3 })},
		{"single-row", in(func(pos, lo, hi int) bool { return pos == (lo+hi)/2 })},
		{"all-rows", func(int) bool { return true }},
	}
}

// TestPredictStreamMatchesForwardReference: both prediction paths —
// the session path, which computes each stream's prefix once and runs
// every window from it, and the chunk-parallel path — ask the network
// only for the rows they need and must still produce the reference's
// sojourns bit for bit, exact and quantized, at every stream length
// from one packet to past three windows (short streams, the anchored
// final chunk, every Lo/Hi the tiling produces), on every reference
// architecture. Lengths run downwards so stale-buffer reuse would be
// caught. FIFO streams whose busy rows sit at a window's left edge,
// at its right edge, in one row or in all of them hold the busy-span
// cut to the reference through PredictStream and PredictDevice.
func TestPredictStreamMatchesForwardReference(t *testing.T) {
	for _, m := range referenceModels(t) {
		for _, quant := range []bool{false, true} {
			p := m.load()
			if quant {
				if err := p.WithQuantized(); err != nil {
					t.Fatal(err)
				}
			}
			for n := 3*p.TimeSteps + 1; n >= 1; n-- {
				stream := testStream(n, 50+uint64(n))
				want := forwardReference(p, stream, des.WFQ, 10e9)
				label := fmt.Sprintf("%s quant=%v n=%d", m.name, quant, n)
				for _, workers := range []int{1, 3} {
					got := p.PredictStream(stream, des.WFQ, 10e9, workers)
					sojournsBitsEqual(t, fmt.Sprintf("%s PredictStream(workers=%d)", label, workers), got, want)
				}
			}
			n := 3*p.TimeSteps + 5
			for _, c := range partialWindowStreams(p, n) {
				stream := burstStream(n, c.busy)
				_, aux := Featurize(stream, des.FIFO, p.NumPorts, 10e9)
				for pos, b := range aux.Backlog {
					if (b > 0) != (pos > 0 && c.busy(pos)) {
						t.Fatalf("%s: packet %d has backlog %v, want busy=%v", c.name, pos, b, c.busy(pos))
					}
				}
				want := forwardReference(p, stream, des.FIFO, 10e9)
				label := fmt.Sprintf("%s quant=%v %s", m.name, quant, c.name)
				for _, workers := range []int{1, 3} {
					got := p.PredictStream(stream, des.FIFO, 10e9, workers)
					sojournsBitsEqual(t, fmt.Sprintf("%s PredictStream(workers=%d)", label, workers), got, want)
				}
				ports := []PortStream{{Stream: stream, RateBps: 10e9}}
				p.PredictDevice(ports, des.FIFO)
				sojournsBitsEqual(t, label+" PredictDevice", ports[0].Out, want)
			}
		}
	}
}

// TestPredictDeviceMatchesPerPort: the device-batched call must equal
// per-port PredictStream results, port by port.
func TestPredictDeviceMatchesPerPort(t *testing.T) {
	p := sessionModel(t)
	ports := []PortStream{
		{Stream: testStream(90, 1), RateBps: 10e9},
		{Stream: nil, RateBps: 10e9}, // empty port must stay empty
		{Stream: testStream(40, 2), RateBps: 1e9},
		{Stream: testStream(7, 3), RateBps: 40e9},
	}
	p.PredictDevice(ports, des.SP)
	ref := sessionModel(t)
	for i, ps := range ports {
		want := ref.PredictStream(ps.Stream, des.SP, ps.RateBps, 1)
		if len(ps.Stream) == 0 {
			if len(ports[i].Out) != 0 {
				t.Fatalf("port %d: empty stream produced %d predictions", i, len(ports[i].Out))
			}
			continue
		}
		sojournsBitsEqual(t, "PredictDevice", ports[i].Out, want)
	}
}

// TestPredictStreamAllocatesOnlyItsResult: the allocating entry point
// owes the heap exactly one object per call, the returned slice, on the
// exact and on the quantized backend alike.
func TestPredictStreamAllocatesOnlyItsResult(t *testing.T) {
	stream := testStream(150, 9)
	for _, quant := range []bool{false, true} {
		p := sessionModel(t)
		if quant {
			if err := p.WithQuantized(); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			p.PredictStream(stream, des.FIFO, 10e9, 1)
		}); allocs != 1 {
			t.Fatalf("PredictStream(workers=1, quantized=%v) allocated %.0f times per stream; want 1", quant, allocs)
		}
	}
}

// TestPredictDeviceZeroAllocs: the device-batched path must also run
// allocation-free once warm, including its per-port Out slices and
// memos — on the reuse path (a warm identical call runs no window) and
// on the path where every window runs — under every discipline (the
// feature rows differ per discipline) and on the quantized backend,
// which keeps no memo and so runs every window on every call.
func TestPredictDeviceZeroAllocs(t *testing.T) {
	for _, quant := range []bool{false, true} {
		for _, kind := range []des.SchedKind{des.FIFO, des.SP, des.WRR, des.DRR, des.WFQ} {
			p := sessionModel(t)
			if quant {
				if err := p.WithQuantized(); err != nil {
					t.Fatal(err)
				}
			}
			ports := []PortStream{
				{Stream: testStream(80, 4), RateBps: 10e9},
				{Stream: testStream(33, 5), RateBps: 1e9},
			}
			allocs := testing.AllocsPerRun(10, func() {
				p.PredictDevice(ports, kind)
			})
			if allocs != 0 {
				t.Fatalf("PredictDevice(kind %d, quantized=%v) allocated %.0f times per device; want 0", kind, quant, allocs)
			}
			all := totalWindows(p, ports)
			want := 0
			if quant {
				want = all
			}
			if ran := predictCounting(p, ports, kind); ran != want {
				t.Fatalf("kind %d, quantized=%v: warm identical call ran %d windows; want %d", kind, quant, ran, want)
			}

			// Alternate two sets of streams of the same lengths: every call
			// changes every row, so every window runs and every memo is
			// rewritten.
			alt := [][]PacketIn{testStream(80, 6), testStream(33, 7)}
			allocs = testing.AllocsPerRun(10, func() {
				for i := range ports {
					ports[i].Stream, alt[i] = alt[i], ports[i].Stream
				}
				p.PredictDevice(ports, kind)
			})
			if allocs != 0 {
				t.Fatalf("PredictDevice(kind %d, quantized=%v) with changed streams allocated %.0f times per device; want 0", kind, quant, allocs)
			}
			for i := range ports {
				ports[i].Stream, alt[i] = alt[i], ports[i].Stream
			}
			if ran := predictCounting(p, ports, kind); ran != all {
				t.Fatalf("kind %d, quantized=%v: call with changed streams ran %d windows; want all %d", kind, quant, ran, all)
			}
		}
	}
}

// TestCloneDoesNotShareSession: sessions are single-owner scratch; a
// clone must start without one or two goroutines would share an arena.
func TestCloneDoesNotShareSession(t *testing.T) {
	p := sessionModel(t)
	p.PredictStream(testStream(10, 6), des.FIFO, 10e9, 1)
	if p.sess == nil {
		t.Fatal("expected a session after PredictStream")
	}
	c := p.Clone()
	if c.sess != nil {
		t.Fatal("Clone shared the inference session")
	}
	if p.WithoutSEC().sess != nil {
		t.Fatal("WithoutSEC shared the inference session")
	}
}

// spacedStream returns n packets of 1 000 bytes spaced 10 µs apart, so
// that at 10 Gb/s (0.8 µs each) every packet finds the port idle, except
// that the burst packets [at, at+burst) arrive 0.1 µs apart: all of them
// but the first find it busy.
func spacedStream(n, at, burst int) []PacketIn {
	stream := make([]PacketIn, n)
	tm := 0.0
	for i := range stream {
		if i > at && i < at+burst {
			tm += 1e-7
		} else {
			tm += 1e-5
		}
		stream[i] = PacketIn{Arrive: tm, Size: 1000, InPort: i % 8, Class: i % 3, Weight: 1}
	}
	return stream
}

// busyWindows counts the chunks of a stream whose consumed packets
// include one that finds the port busy, from the allocating Featurize
// path's backlog: the windows a prediction must run.
func busyWindows(p *PTM, stream []PacketIn, kind des.SchedKind, rateBps float64) int {
	_, aux := Featurize(stream, kind, p.NumPorts, rateBps)
	busy := 0
	for _, ck := range Chunks(len(stream), p.TimeSteps, p.Margin) {
		for pos := ck.Start + ck.Lo; pos < min(len(stream), ck.Start+ck.Hi); pos++ {
			if aux.Backlog[pos] > 0 {
				busy++
				break
			}
		}
	}
	return busy
}

// TestIdleArrivalsLeaveAfterTx: under every discipline, on both
// backends, through PredictStream (one worker and three) and through
// PredictDevice, every packet that finds its port idle gets exactly its
// transmission time, bit for bit.
func TestIdleArrivalsLeaveAfterTx(t *testing.T) {
	stream := testStream(150, 41)
	for _, quant := range []bool{false, true} {
		for _, kind := range []des.SchedKind{des.FIFO, des.SP, des.WRR, des.DRR, des.WFQ} {
			p := sessionModel(t)
			if quant {
				if err := p.WithQuantized(); err != nil {
					t.Fatal(err)
				}
			}
			_, aux := Featurize(stream, kind, p.NumPorts, 10e9)
			ports := []PortStream{{Stream: stream, RateBps: 10e9}}
			p.PredictDevice(ports, kind)
			for _, c := range []struct {
				path string
				out  []float64
			}{
				{"PredictDevice", ports[0].Out},
				{"PredictStream(workers=1)", p.PredictStream(stream, kind, 10e9, 1)},
				{"PredictStream(workers=3)", p.PredictStream(stream, kind, 10e9, 3)},
			} {
				idle := 0
				for i, b := range aux.Backlog {
					if b > 0 {
						continue
					}
					idle++
					if math.Float64bits(c.out[i]) != math.Float64bits(aux.Tx[i]) {
						t.Fatalf("kind %d, quantized=%v, %s: idle packet %d got %v, want its tx %v",
							kind, quant, c.path, i, c.out[i], aux.Tx[i])
					}
				}
				if idle == 0 || idle == len(stream) {
					t.Fatalf("%d of %d packets find the port idle; want some, not all", idle, len(stream))
				}
			}
		}
	}
}

// TestIdleWindowsDoNotRun: on both backends, a stream spaced so that
// every packet finds the port idle runs no window, through
// PredictStream and through a first and a second PredictDevice call;
// one busy burst inside it runs exactly the windows that consume a
// packet of the burst, and a second call on the same streams runs none
// on the exact backend (its memo) and the same ones again on the
// quantized one (no memo).
func TestIdleWindowsDoNotRun(t *testing.T) {
	const kind, rate = des.WFQ, 10e9
	for _, quant := range []bool{false, true} {
		p := sessionModel(t)
		if quant {
			if err := p.WithQuantized(); err != nil {
				t.Fatal(err)
			}
		}
		spaced := spacedStream(200, 0, 0)
		if w := busyWindows(p, spaced, kind, rate); w != 0 {
			t.Fatalf("the spaced stream has %d busy windows", w)
		}
		before := p.WindowsRun()
		out := p.PredictStream(spaced, kind, rate, 1)
		if ran := p.WindowsRun() - before; ran != 0 {
			t.Errorf("quantized=%v: PredictStream on an idle stream ran %d windows", quant, ran)
		}
		sojournsBitsEqual(t, "idle stream", out, forwardReference(p, spaced, kind, rate))
		ports := []PortStream{{Stream: spaced, RateBps: rate}}
		for call := 1; call <= 2; call++ {
			if ran := predictCounting(p, ports, kind); ran != 0 {
				t.Errorf("quantized=%v: PredictDevice call %d on an idle stream ran %d windows", quant, call, ran)
			}
		}

		burst := spacedStream(200, 100, 12)
		want := busyWindows(p, burst, kind, rate)
		if all := len(Chunks(len(burst), p.TimeSteps, p.Margin)); want == 0 || want == all {
			t.Fatalf("the burst is consumed by %d of %d windows; want some, not all", want, all)
		}
		ports = []PortStream{{Stream: burst, RateBps: rate}}
		if ran := predictCounting(p, ports, kind); ran != want {
			t.Errorf("quantized=%v: the burst ran %d windows, want %d", quant, ran, want)
		}
		sojournsBitsEqual(t, "burst", ports[0].Out, forwardReference(p, burst, kind, rate))
		again := want
		if !quant {
			again = 0
		}
		if ran := predictCounting(p, ports, kind); ran != again {
			t.Errorf("quantized=%v: a second call on the burst ran %d windows, want %d", quant, ran, again)
		}
	}
}

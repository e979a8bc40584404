package ptm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"deepqueuenet/internal/des"
)

// freshOuts predicts ports on a fresh clone of p with fresh PortStreams
// (so nothing is reused): the reference every memoised call must equal
// bit for bit.
func freshOuts(p *PTM, ports []PortStream, kind des.SchedKind) [][]float64 {
	fresh := make([]PortStream, len(ports))
	for i, ps := range ports {
		fresh[i] = PortStream{Stream: ps.Stream, RateBps: ps.RateBps}
	}
	p.Clone().PredictDevice(fresh, kind)
	outs := make([][]float64, len(fresh))
	for i := range fresh {
		outs[i] = fresh[i].Out
	}
	return outs
}

// predictCounting runs p.PredictDevice and returns how many windows it
// actually ran.
func predictCounting(p *PTM, ports []PortStream, kind des.SchedKind) int {
	before := p.WindowsRun()
	p.PredictDevice(ports, kind)
	return p.WindowsRun() - before
}

// changedWindows counts the chunks of a port that read a feature row
// differing bitwise between the old and the new stream, with rows from
// the allocating Featurize path and the model's scaler: an oracle that
// shares nothing with the memo's row comparison. Streams of different
// lengths change every window.
func changedWindows(p *PTM, old, cur []PacketIn, kind des.SchedKind, rateBps float64) (changed, total int, rows []bool) {
	n := len(cur)
	scaled := func(stream []PacketIn) [][]float64 {
		rs, _ := Featurize(stream, kind, p.NumPorts, rateBps)
		for _, r := range rs {
			p.Feat.Transform(r)
		}
		return rs
	}
	a, b := scaled(old), scaled(cur)
	rows = make([]bool, n)
	for r := range rows {
		rows[r] = len(old) != n
		for j := 0; !rows[r] && j < NumFeatures; j++ {
			rows[r] = math.Float64bits(a[r][j]) != math.Float64bits(b[r][j])
		}
	}
	for _, ck := range Chunks(n, p.TimeSteps, p.Margin) {
		total++
		if slices.Contains(rows[ck.Start:min(n, ck.Start+p.TimeSteps)], true) {
			changed++
		}
	}
	return changed, total, rows
}

func checkOuts(t *testing.T, label string, ports []PortStream, want [][]float64) {
	t.Helper()
	for i := range ports {
		sojournsBitsEqual(t, fmt.Sprintf("%s, port %d", label, i), ports[i].Out, want[i])
	}
}

func memoPorts() []PortStream {
	return []PortStream{
		{Stream: testStream(150, 21), RateBps: 10e9},
		{Stream: testStream(90, 22), RateBps: 1e9},
		{Stream: testStream(40, 23), RateBps: 40e9},
		{Stream: testStream(7, 24), RateBps: 10e9}, // shorter than one window
	}
}

func totalWindows(p *PTM, ports []PortStream) int {
	w := 0
	for _, ps := range ports {
		w += len(Chunks(len(ps.Stream), p.TimeSteps, p.Margin))
	}
	return w
}

// TestPredictDeviceReusesUnchangedWindows: a second PredictDevice call
// on the same PortStreams runs exactly the windows whose input rows
// moved, every change of the call's shape (stream length, discipline,
// line rate, window margin, network) runs everything again — a replica
// shares the network, so it runs nothing again — the prefix
// is filled only for windows that run, and every output is bit-equal
// to a fresh PortStream on a fresh clone.
func TestPredictDeviceReusesUnchangedWindows(t *testing.T) {
	const kind = des.WFQ
	// second runs one scenario: a first call on memoPorts, then edit
	// changes the ports (and may return another model to call) before
	// the second call, which must run the windows want counts.
	second := func(t *testing.T, edit func(p *PTM, ports []PortStream) (*PTM, des.SchedKind), want func(p *PTM, before, after []PortStream) int) {
		t.Helper()
		p := sessionModel(t)
		ports := memoPorts()
		if ran := predictCounting(p, ports, kind); ran != totalWindows(p, ports) {
			t.Fatalf("first call ran %d windows, want all %d", ran, totalWindows(p, ports))
		}
		checkOuts(t, "first call", ports, freshOuts(p, ports, kind))
		before := slices.Clone(ports)
		q, k := edit(p, ports)
		ran := predictCounting(q, ports, k)
		if w := want(q, before, ports); ran != w {
			t.Errorf("second call ran %d of %d windows, want %d", ran, totalWindows(q, ports), w)
		}
		checkOuts(t, "second call", ports, freshOuts(q, ports, k))
	}
	same := func(p *PTM, ports []PortStream) (*PTM, des.SchedKind) { return p, kind }
	all := func(p *PTM, _, after []PortStream) int { return totalWindows(p, after) }
	// rowChanges expects the windows changedWindows finds, port by port.
	rowChanges := func(p *PTM, before, after []PortStream) int {
		w := 0
		for i := range after {
			if math.Float64bits(before[i].RateBps) != math.Float64bits(after[i].RateBps) {
				w += len(Chunks(len(after[i].Stream), p.TimeSteps, p.Margin))
				continue
			}
			c, _, _ := changedWindows(p, before[i].Stream, after[i].Stream, kind, after[i].RateBps)
			w += c
		}
		return w
	}
	// edited replaces port i's stream by a copy with one packet changed.
	edited := func(ports []PortStream, i, pkt int, f func(*PacketIn)) {
		s := slices.Clone(ports[i].Stream)
		f(&s[pkt])
		ports[i].Stream = s
	}

	t.Run("identical", func(t *testing.T) {
		second(t, same, func(*PTM, []PortStream, []PortStream) int { return 0 })
	})
	t.Run("nudged-arrival", func(t *testing.T) {
		second(t, func(p *PTM, ports []PortStream) (*PTM, des.SchedKind) {
			edited(ports, 0, 75, func(pk *PacketIn) { pk.Arrive += 1e-9 })
			c, total, _ := changedWindows(p, memoPorts()[0].Stream, ports[0].Stream, kind, ports[0].RateBps)
			if c == 0 || c == total {
				t.Fatalf("nudge changed %d of %d windows; want some, not all", c, total)
			}
			return p, kind
		}, rowChanges)
	})
	t.Run("last-row-of-a-window", func(t *testing.T) {
		// An in-port change moves one row only: the last one the
		// second window (start 16) reads.
		second(t, func(p *PTM, ports []PortStream) (*PTM, des.SchedKind) {
			edited(ports, 0, 16+p.TimeSteps-1, func(pk *PacketIn) { pk.InPort = (pk.InPort + 1) % 8 })
			return p, kind
		}, rowChanges)
	})
	t.Run("length", func(t *testing.T) {
		second(t, func(p *PTM, ports []PortStream) (*PTM, des.SchedKind) {
			ports[1].Stream = append(slices.Clone(ports[1].Stream), PacketIn{Arrive: 1, Size: 100})
			return p, kind
		}, func(p *PTM, before, after []PortStream) int {
			return len(Chunks(len(after[1].Stream), p.TimeSteps, p.Margin))
		})
	})
	t.Run("rate", func(t *testing.T) {
		second(t, func(p *PTM, ports []PortStream) (*PTM, des.SchedKind) {
			ports[2].RateBps = math.Nextafter(ports[2].RateBps, 0)
			return p, kind
		}, rowChanges)
	})
	t.Run("kind", func(t *testing.T) {
		second(t, func(p *PTM, ports []PortStream) (*PTM, des.SchedKind) { return p, des.SP }, all)
	})
	t.Run("margin", func(t *testing.T) {
		// Same network, same rows: only the tiling moves.
		second(t, func(p *PTM, ports []PortStream) (*PTM, des.SchedKind) {
			p.Margin--
			return p, kind
		}, all)
	})
	t.Run("clone", func(t *testing.T) {
		// Equal weights, another network: no reuse either.
		second(t, func(p *PTM, ports []PortStream) (*PTM, des.SchedKind) { return p.Clone(), kind }, all)
	})
	t.Run("replica", func(t *testing.T) {
		// Two replicas of one model share its network: PortStreams
		// alternated between them keep their memos.
		p := sessionModel(t)
		ports := memoPorts()
		want := freshOuts(p, ports, kind)
		reps := []*PTM{p.Replica(), p.Replica()}
		if ran := predictCounting(reps[0], ports, kind); ran != totalWindows(p, ports) {
			t.Fatalf("first call ran %d windows, want all %d", ran, totalWindows(p, ports))
		}
		for call := 1; call <= 4; call++ {
			if ran := predictCounting(reps[call%2], ports, kind); ran != 0 {
				t.Errorf("call %d on replica %d ran %d windows, want 0", call, call%2, ran)
			}
			checkOuts(t, fmt.Sprintf("call %d", call), ports, want)
		}
	})
	t.Run("clone-other-weights", func(t *testing.T) {
		second(t, func(p *PTM, ports []PortStream) (*PTM, des.SchedKind) {
			q := p.Clone()
			q.Net.Params()[0].W.Data[0] += 0.25
			return q, kind
		}, all)
	})
	t.Run("out-poisoned", func(t *testing.T) {
		// Callers own Out and may overwrite it (chaos poisons Out[0]):
		// a reused window must not read it back.
		second(t, func(p *PTM, ports []PortStream) (*PTM, des.SchedKind) {
			for i := range ports {
				for j := range ports[i].Out {
					ports[i].Out[j] = math.NaN()
				}
			}
			return p, kind
		}, func(*PTM, []PortStream, []PortStream) int { return 0 })
	})
	t.Run("hit-miss-hit-prefix", prefixFillsOnlyRunWindows)
	t.Run("idle-and-burst", idleAndBurstAlternate)
	t.Run("backlog-blind-scaler", skippedWindowIsNeverSupplied)
	t.Run("backlog-blind-scaler-partial", partialWindowIsNeverSupplied)
}

// idleAndBurstAlternate: one port alternates between a stream on which
// every packet finds the port idle and the same stream with a busy
// burst. The idle calls run no window. A burst call runs the windows
// that consume the burst when the call before it did not run them (the
// first call, or an idle one, which records no output), and none when
// it repeats the call before. Every call gives a fresh PortStream's
// bits.
func idleAndBurstAlternate(t *testing.T) {
	p := sessionModel(t)
	idle, burst := spacedStream(200, 0, 0), spacedStream(200, 100, 12)
	busy := busyWindows(p, burst, des.FIFO, 10e9)
	ports := []PortStream{{RateBps: 10e9}}
	for call, c := range []struct {
		stream []PacketIn
		want   int
	}{{idle, 0}, {burst, busy}, {idle, 0}, {burst, busy}, {burst, 0}} {
		ports[0].Stream = c.stream
		if ran := predictCounting(p, ports, des.FIFO); ran != c.want {
			t.Errorf("call %d ran %d windows, want %d", call, ran, c.want)
		}
		checkOuts(t, fmt.Sprintf("call %d", call), ports, freshOuts(p, ports, des.FIFO))
	}
}

// skippedWindowIsNeverSupplied: with a scaler that maps both backlog
// columns to 0, a window's feature rows do not show whether its packets
// find the port idle. Call a runs every window. Call b skips the idle
// window that reads row 95 and, running the busy final window, records
// its rows. Call c has call b's rows there, but a burst at the start
// leaves a backlog that lasts, so the window is busy: it must run, as
// the memo holds call a's output for it, not one for these rows.
func skippedWindowIsNeverSupplied(t *testing.T) {
	p := sessionModel(t)
	p.Feat.Max[5], p.Feat.Max[6] = 0, 0
	const n, gap = 100, 1.001 * 8e-7 // 1 000 bytes at 10 Gb/s take 0.8 µs
	stream := func(burst bool, inPort95 int) []PacketIn {
		s := make([]PacketIn, n)
		for i := range s {
			s[i] = PacketIn{Arrive: float64(i) * gap, Size: 1000}
			if burst && i < 40 {
				s[i].Arrive = 40*gap - float64(40-i)*1e-9
			}
			if i > 96 { // busy in every call: only the final window reads it
				s[i].Arrive = 96*gap + float64(i-96)*1e-9
			}
		}
		s[95].InPort = inPort95
		return s
	}
	ports := []PortStream{{RateBps: 10e9}}
	for _, c := range []struct {
		name   string
		stream []PacketIn
	}{{"a", stream(true, 1)}, {"b", stream(false, 0)}, {"c", stream(true, 0)}} {
		ports[0].Stream = c.stream
		p.PredictDevice(ports, des.FIFO)
		checkOuts(t, "call "+c.name, ports, freshOuts(p, ports, des.FIFO))
	}
}

// partialWindowIsNeverSupplied: with the backlog-blind scaler of
// skippedWindowIsNeverSupplied, a window that runs computes outputs
// only for its busy span, and a later call with the same feature rows
// but a wider busy span must run it again. Call a makes packets 68–69
// and 74 on busy, so the windows consuming [56, 72) and [72, 88) run
// for [68, 70) and [74, 88), and the final one for all it consumes.
// Call b moves packets 1–39 up against packet 40 and keeps every later
// arrival time, so only rows 1–40 change: the burst leaves a backlog
// that outlasts the stream, so both windows are busy from their first
// consumed row. They must run; the final window, busy over the same
// rows in both calls, must not.
func partialWindowIsNeverSupplied(t *testing.T) {
	p := sessionModel(t)
	p.Feat.Max[5], p.Feat.Max[6] = 0, 0
	const n, gap = 100, 1.001 * 8e-7 // 1 000 bytes at 10 Gb/s take 0.8 µs
	stream := func(burst bool) []PacketIn {
		s := make([]PacketIn, n)
		tm := 0.0
		for i := range s {
			switch {
			case i == 68, i == 69, i >= 74:
				tm += 1e-9
			case i >= 70 && i < 74:
				tm += 3e-6 // drains call a's two-packet burst, not call b's
			case i > 0:
				tm += gap
			}
			s[i] = PacketIn{Arrive: tm, Size: 1000}
		}
		if burst { // the same arrival times from packet 40 on
			for i := 1; i < 40; i++ {
				s[i].Arrive = s[40].Arrive - float64(40-i)*1e-9
			}
		}
		return s
	}
	if ck := Chunks(n, p.TimeSteps, p.Margin); len(ck) != 6 || ck[3].Start+ck[3].Lo != 56 || ck[4].Start+ck[4].Hi != 88 {
		t.Fatalf("tiling %v; the test assumes windows consuming [56, 72) and [72, 88)", ck)
	}
	a, b := stream(false), stream(true)
	for _, c := range []struct {
		stream     []PacketIn
		busy, idle []int
	}{
		{a, []int{68, 69, 74, 99}, []int{56, 67, 70, 73}},
		{b, []int{41, 56, 70, 73, 99}, nil},
	} {
		_, aux := Featurize(c.stream, des.FIFO, p.NumPorts, 10e9)
		for _, pos := range c.busy {
			if aux.Backlog[pos] <= 0 {
				t.Fatalf("packet %d finds the port idle; want busy", pos)
			}
		}
		for _, pos := range c.idle {
			if aux.Backlog[pos] > 0 {
				t.Fatalf("packet %d finds the port busy; want idle", pos)
			}
		}
	}
	ports := []PortStream{{Stream: a, RateBps: 10e9}}
	if ran := predictCounting(p, ports, des.FIFO); ran != 3 { // [56, 72), [72, 88), [88, 100)
		t.Errorf("call a ran %d windows, want 3", ran)
	}
	checkOuts(t, "call a", ports, freshOuts(p, ports, des.FIFO))
	ports[0].Stream = b
	if ran := predictCounting(p, ports, des.FIFO); ran != 5 { // all but [88, 100)
		t.Errorf("call b ran %d windows, want 5", ran)
	}
	checkOuts(t, "call b", ports, freshOuts(p, ports, des.FIFO))
}

// prefixFillsOnlyRunWindows: on one port whose second call runs
// hit → miss → hit windows, the stream prefix is filled for exactly
// the rows the windows that run read — every row a missed window
// reads, including rows it shares with the hit before it, and none
// that only hit windows read. The session's prefix buffer is poisoned
// between the calls so a row that is read but not refilled would show
// as NaN.
func prefixFillsOnlyRunWindows(t *testing.T) {
	p := sessionModel(t)
	stream := testStream(200, 31)
	ports := []PortStream{{Stream: stream, RateBps: 10e9}}
	p.PredictDevice(ports, des.FIFO)
	next := slices.Clone(stream)
	next[100].InPort = (next[100].InPort + 1) % 8
	ports[0].Stream = next
	for i := range p.sess.pre {
		p.sess.pre[i] = math.NaN()
	}
	ran := predictCounting(p, ports, des.FIFO)
	sojournsBitsEqual(t, "hit-miss-hit", ports[0].Out, freshOuts(p, ports, des.FIFO)[0])

	changed, total, rows := changedWindows(p, stream, next, des.FIFO, 10e9)
	if ran != changed || changed == 0 || changed == total {
		t.Fatalf("ran %d windows; want the %d of %d whose rows changed", ran, changed, total)
	}
	n, pc := len(next), p.Net.PrefixCols(NumFeatures)
	read := make([]bool, n) // rows a window that runs reads
	for _, ck := range Chunks(n, p.TimeSteps, p.Margin) {
		end := min(n, ck.Start+p.TimeSteps)
		if slices.Contains(rows[ck.Start:end], true) {
			for r := ck.Start; r < end; r++ {
				read[r] = true
			}
		}
	}
	for r := 0; r < n; r++ {
		filled := !math.IsNaN(p.sess.pre[r*pc])
		if filled != read[r] {
			t.Fatalf("prefix row %d filled=%v, want %v (read by a window that runs)", r, filled, read[r])
		}
	}
}

// TestQuantizedBackendKeepsNoMemo: the quantized backend runs every
// window on every call and leaves PortStreams without a memo.
func TestQuantizedBackendKeepsNoMemo(t *testing.T) {
	p := sessionModel(t)
	if err := p.WithQuantized(); err != nil {
		t.Fatal(err)
	}
	ports := memoPorts()
	for call := 0; call < 2; call++ {
		if ran := predictCounting(p, ports, des.FIFO); ran != totalWindows(p, ports) {
			t.Fatalf("call %d ran %d windows, want all %d", call, ran, totalWindows(p, ports))
		}
	}
	for i := range ports {
		if ports[i].memo != nil {
			t.Fatalf("port %d: quantized call built a memo", i)
		}
	}
}

// FuzzPredictDeviceReuse: two PredictDevice calls on one PortStream —
// a fuzzed stream, then the same stream perturbed — must give the bits
// of a fresh PortStream on a fresh clone. The perturbation (op mod 3)
// nudges 1 + k mod 8 arrivals from packet at on by 1 ulp or by 1e-14 to
// 1e-6 s (mag), swaps the attributes of two packets, or changes one
// size; the stream is re-sorted by arrival afterwards. A second,
// unchanged port rides along in the same call.
func FuzzPredictDeviceReuse(f *testing.F) {
	f.Add(uint64(1), uint16(150), uint8(0), uint8(1), uint16(75), uint8(0))
	f.Add(uint64(2), uint16(150), uint8(0), uint8(4), uint16(20), uint8(9))
	f.Add(uint64(3), uint16(90), uint8(1), uint8(0), uint16(47), uint8(3))
	f.Add(uint64(4), uint16(200), uint8(2), uint8(0), uint16(199), uint8(200))
	f.Add(uint64(5), uint16(7), uint8(0), uint8(2), uint16(3), uint8(5))
	p, err := Synthetic(Arch{}, 8, 1)
	if err != nil {
		f.Fatal(err)
	}
	ride := PortStream{Stream: testStream(60, 99), RateBps: 1e9}
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, op, k uint8, at uint16, mag uint8) {
		n = 1 + n%300
		stream := testStream(int(n), seed)
		ports := []PortStream{{Stream: stream, RateBps: 10e9}, {Stream: ride.Stream, RateBps: ride.RateBps}}
		p.PredictDevice(ports, des.WFQ)
		checkOuts(t, "first call", ports, freshOuts(p, ports, des.WFQ))

		next := slices.Clone(stream)
		i := int(at) % len(next)
		switch op % 3 {
		case 0:
			for j := i; j < min(len(next), i+1+int(k%8)); j++ {
				a := next[j].Arrive
				if mag%10 == 0 {
					next[j].Arrive = math.Nextafter(a, math.Inf(1))
				} else {
					next[j].Arrive = a + math.Pow(10, -float64(15-mag%10))
				}
			}
			slices.SortStableFunc(next, func(x, y PacketIn) int {
				if x.Arrive < y.Arrive {
					return -1
				}
				if x.Arrive > y.Arrive {
					return 1
				}
				return 0
			})
		case 1:
			j := (i + 1 + int(k)) % len(next)
			a, b := next[i], next[j]
			next[i], next[j] = b, a
			next[i].Arrive, next[j].Arrive = a.Arrive, b.Arrive
		case 2:
			next[i].Size = 64 + (next[i].Size+int(mag)+1)%1437
		}
		ports[0].Stream = next
		p.PredictDevice(ports, des.WFQ)
		checkOuts(t, "second call", ports, freshOuts(p, ports, des.WFQ))
	})
}

package ptm

import (
	"os"
	"path/filepath"
	"testing"

	"deepqueuenet/internal/des"
	"deepqueuenet/internal/rng"
)

// benchStream is a 1000-packet Poisson stream over 8 input ports at
// about 0.6 load on a 10 Gb/s egress port.
func benchStream() []PacketIn { return benchStreamN(1000, 2) }

// benchStreamN is benchStream's traffic, n packets from seed.
func benchStreamN(n int, seed uint64) []PacketIn {
	r := rng.New(seed)
	stream := make([]PacketIn, n)
	tm := 0.0
	for i := range stream {
		tm += r.Exp(1e6)
		stream[i] = PacketIn{Arrive: tm, Size: 64 + r.Intn(1400), InPort: r.Intn(8)}
	}
	return stream
}

func benchPredictStream(b *testing.B, p *PTM) {
	stream := benchStream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictStream(stream, des.FIFO, 10e9, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/pkt")
}

// BenchmarkPredictStream times inference with random weights.
func BenchmarkPredictStream(b *testing.B) {
	p, err := New(Arch{TimeSteps: 17, Embed: 12, BLSTM1: 16, BLSTM2: 10, Heads: 2, DK: 8, DV: 8, HeadOut: 16}, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	p.Feat = &MinMax{Min: make([]float64, NumFeatures), Max: make([]float64, NumFeatures)}
	for i := range p.Feat.Max {
		p.Feat.Max[i] = 1
	}
	p.TargetMax = 1e-6
	benchPredictStream(b, p)
}

// BenchmarkPredictStreamShipped times inference with the trained
// weights of the benchmark's default model. Its gate pre-activations
// have the distribution the engine sees — mostly small, so most tanh
// groups never need the exp branch — which random weights do not
// reproduce.
func BenchmarkPredictStreamShipped(b *testing.B) {
	p, err := Load(filepath.Join("..", "..", "models", "switch8-std.ptm.json"))
	if err != nil {
		b.Fatal(err)
	}
	benchPredictStream(b, p)
}

// BenchmarkPredictDeviceShipped times one PredictDevice call of the
// shipped model at the shape of a FatTree16 device in the benchmark's
// offline_fattree16 workload: four port streams of 89 packets, each
// tiled by 5 windows (160 window rows for 89 packets). Where
// PredictStreamShipped's 1 000-packet stream shows the per-window cost,
// this shows the per-device cost the engine pays. Calls alternate
// between two sets of streams on the same PortStreams, so, as on
// FatTree16, every window runs on every call and every port's memo is
// compared and rewritten.
func BenchmarkPredictDeviceShipped(b *testing.B) {
	p, err := Load(filepath.Join("..", "..", "models", "switch8-std.ptm.json"))
	if err != nil {
		b.Fatal(err)
	}
	ports := make([]PortStream, 4)
	alt := make([][]PacketIn, len(ports))
	pkts := 0
	for i := range ports {
		ports[i] = PortStream{Stream: benchStreamN(89, 3+uint64(i)), RateBps: 10e9}
		alt[i] = benchStreamN(89, 13+uint64(i))
		pkts += len(ports[i].Stream)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ports {
			ports[j].Stream, alt[j] = alt[j], ports[j].Stream
		}
		p.PredictDevice(ports, des.FIFO)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pkts), "ns/pkt")
}

// BenchmarkLoad loads the benchmark's default model with Load and with
// the encoding/json reference decode it replaced, in one process.
func BenchmarkLoad(b *testing.B) {
	path := filepath.Join("..", "..", "models", "switch8-std.ptm.json")
	reference := func(path string) (*PTM, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return referenceUnmarshal(data)
	}
	for _, c := range []struct {
		name string
		load func(string) (*PTM, error)
	}{{"strict", Load}, {"reference", reference}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.load(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

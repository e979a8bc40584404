package deepqueuenet

// Routing / calibration / analytic bit-identity fixture. For each named
// topology and each of 64 flow-pattern seeds it records a digest of every
// flow's forward and echo node sequence and egress ports, the raw bits of
// the calibrated per-flow load, and — under Poisson and MAP arrivals —
// the raw bits of the analytic estimate (aggregate mean/P99 plus digests
// of every per-path and per-port figure), or the error class where a
// seed fails to route or saturates a port. The file was generated at the
// commit *before* topology compilation replaced the map-based routing
// tables (there the ports were re-derived by walking Routing.Lookup, the
// way the analytic tier and the engine used to), so passing it
// unmodified proves that refactor changed layout and lifetime only: same
// ECMP picks, same calibration, same float sums.
//
// Regenerate only after an *intentional* routing or analytic change:
//
//	go test -run TestRoutingBitsFixture -update-golden .

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"deepqueuenet/internal/analytic"
	"deepqueuenet/internal/des"
	"deepqueuenet/internal/experiments"
)

const (
	routingBitsSeeds = 64
	routingBitsLoad  = 0.7
)

var routingBitsTopos = []string{"line4", "fattree16", "abilene", "geant", "torus3x3", "leafspine4x2x4"}

var routingBitsModels = []string{"poisson", "map"}

// estimateBits is one traffic model's analytic outcome on one scenario.
type estimateBits struct {
	Err      string `json:"err,omitempty"` // "unstable" or "other"
	MeanBits string `json:"mean_bits,omitempty"`
	P99Bits  string `json:"p99_bits,omitempty"`
	Paths    string `json:"paths,omitempty"` // digest of every PathEstimate field, key order
	Ports    string `json:"ports,omitempty"` // digest of every PortLoad field, emitted order
}

// routingBits is one (topology, seed) fixture row.
type routingBits struct {
	RouteErr string                  `json:"route_err,omitempty"` // "conflict" or "other"
	Flows    int                     `json:"flows,omitempty"`
	Routes   string                  `json:"routes,omitempty"` // digest of paths + ports, flow order
	LoadBits string                  `json:"load_bits,omitempty"`
	Est      map[string]estimateBits `json:"est,omitempty"`
}

func routingBitsPath() string {
	return filepath.Join("testdata", "golden", "routing_bits.json")
}

func bitsHex(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// bitsHasher digests a sequence of integers and float bit patterns.
type bitsHasher struct{ h hash.Hash }

func newBitsHasher() bitsHasher { return bitsHasher{sha256.New()} }

// sum returns the first 96 bits of the digest, plenty against accidents.
func (b bitsHasher) sum() string { return hex.EncodeToString(b.h.Sum(nil)[:12]) }

func (b bitsHasher) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.h.Write(buf[:])
}

func (b bitsHasher) ints(vs []int32) {
	b.u64(uint64(len(vs)))
	for _, v := range vs {
		b.u64(uint64(int64(v)))
	}
}

func (b bitsHasher) f64(v float64) { b.u64(math.Float64bits(v)) }

func computeRoutingBits(t *testing.T, topoName string, seed uint64) routingBits {
	t.Helper()
	var row routingBits
	var loadBits string
	for _, m := range routingBitsModels {
		spec := experiments.Spec{Topo: topoName, Traffic: m, Load: routingBitsLoad, Duration: 0.001, Seed: seed}
		sc, err := spec.Build()
		if err != nil {
			row.RouteErr = "other"
			if strings.Contains(err.Error(), "conflicting forwarding entries") {
				row.RouteErr = "conflict"
			}
			return row
		}
		if row.Routes == "" {
			h := newBitsHasher()
			for i, f := range sc.Flows {
				fwd, echo := sc.RT.Forward(i), sc.RT.Echo(i)
				h.u64(uint64(f.FlowID))
				h.u64(uint64(f.Src))
				h.u64(uint64(f.Dst))
				h.ints(fwd.Nodes)
				h.ints(fwd.Ports)
				h.ints(echo.Nodes)
				h.ints(echo.Ports)
			}
			row.Flows = len(sc.Flows)
			row.Routes = h.sum()
			row.Est = map[string]estimateBits{}
		}
		lb := bitsHex(sc.RNScenario().Loads[sc.Flows[0].FlowID])
		if loadBits != "" && lb != loadBits {
			t.Fatalf("%s seed %d: per-flow load depends on the traffic model", topoName, seed)
		}
		loadBits = lb
		row.LoadBits = lb

		est, err := analytic.FromScenario(sc)
		if err != nil {
			eb := estimateBits{Err: "other"}
			if errors.Is(err, analytic.ErrUnstable) {
				eb.Err = "unstable"
			}
			row.Est[m] = eb
			continue
		}
		eb := estimateBits{MeanBits: bitsHex(est.MeanRTTSec), P99Bits: bitsHex(est.P99RTTSec)}
		// Permutation flows have one flow per source host, so every host
		// pair is its own path: digest them in key order.
		byKey := make(map[string]*analytic.PathEstimate, len(est.Paths))
		keys := make([]string, 0, len(est.Paths))
		for i := range est.Paths {
			k := des.PathKey(est.Paths[i].Src, est.Paths[i].Dst)
			if byKey[k] != nil {
				t.Fatalf("%s seed %d: two flows on host pair %s", topoName, seed, k)
			}
			byKey[k] = &est.Paths[i]
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ph := newBitsHasher()
		for _, k := range keys {
			p := byKey[k]
			ph.h.Write([]byte(k))
			ph.u64(uint64(p.Hops))
			for _, v := range []float64{p.MeanFwdSec, p.MeanRTTSec, p.P99RTTSec, p.WaitRTTSec, p.WaitVarSec2, p.DetRTTSec} {
				ph.f64(v)
			}
		}
		eb.Paths = ph.sum()
		qh := newBitsHasher()
		qh.f64(est.MaxRho)
		qh.f64(est.MaxBlocking)
		for _, pl := range est.Ports() {
			qh.u64(uint64(pl.Node))
			qh.u64(uint64(pl.Port))
			qh.u64(uint64(pl.Flows))
			for _, v := range []float64{pl.Lambda, pl.Mu, pl.Rho, pl.WaitSec, pl.Blocking} {
				qh.f64(v)
			}
		}
		eb.Ports = qh.sum()
		row.Est[m] = eb
	}
	return row
}

func TestRoutingBitsFixture(t *testing.T) {
	got := map[string]routingBits{}
	for _, name := range routingBitsTopos {
		for seed := uint64(1); seed <= routingBitsSeeds; seed++ {
			got[fmt.Sprintf("%s/%d", name, seed)] = computeRoutingBits(t, name, seed)
		}
	}
	if *updateGolden {
		// One compact row per line, key order: diffs stay readable.
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString("{\n")
		for i, k := range keys {
			row, err := json.Marshal(got[k])
			if err != nil {
				t.Fatal(err)
			}
			sep := ","
			if i == len(keys)-1 {
				sep = ""
			}
			fmt.Fprintf(&b, "%q: %s%s\n", k, row, sep)
		}
		b.WriteString("}\n")
		if err := os.WriteFile(routingBitsPath(), []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d rows)", routingBitsPath(), len(got))
		return
	}
	raw, err := os.ReadFile(routingBitsPath())
	if err != nil {
		t.Fatalf("missing fixture (run with -update-golden at the reference commit): %v", err)
	}
	var want map[string]routingBits
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d rows, computed %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: in fixture but not computed", key)
			continue
		}
		if g.RouteErr != w.RouteErr || g.Flows != w.Flows || g.Routes != w.Routes {
			t.Errorf("%s: routes differ: got err=%q flows=%d digest=%s, want err=%q flows=%d digest=%s",
				key, g.RouteErr, g.Flows, g.Routes, w.RouteErr, w.Flows, w.Routes)
			continue
		}
		if g.LoadBits != w.LoadBits {
			t.Errorf("%s: per-flow load bits %s, want %s", key, g.LoadBits, w.LoadBits)
		}
		for m, we := range w.Est {
			if ge := g.Est[m]; ge != we {
				t.Errorf("%s/%s: analytic estimate differs:\n got %+v\nwant %+v", key, m, ge, we)
			}
		}
	}
}

package deepqueuenet

// Golden-trace determinism tests: each case runs a fixed-seed scenario
// shaped after one of the examples (quickstart line, fattree capacity
// sweep, wan hotspot) with a deterministic synthetic device model, then
// digests every per-packet departure time bit-for-bit. The digests are
// committed under testdata/golden; any change to the inference hot path
// that perturbs even one ULP of one departure time fails these tests.
// Each scenario also runs with Shards=2, 3 and 8 so the worker
// schedule is proven not to leak into results.
//
// Regenerate after an *intentional* semantic change with:
//
//	go test -run TestGoldenTraces -update-golden .

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"deepqueuenet/internal/core"
	"deepqueuenet/internal/experiments"
	"deepqueuenet/internal/obs"
	"deepqueuenet/internal/ptm"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden digests")

// goldenArch is small enough that an untrained forward pass is cheap,
// while exercising every layer kind of the PTM stack.
var goldenArch = ptm.Arch{TimeSteps: 32, Margin: 8, Embed: 12, BLSTM1: 16, BLSTM2: 10, Heads: 2, DK: 8, DV: 8, HeadOut: 16}

type goldenCase struct {
	name string
	spec experiments.Spec
}

func goldenCases() []goldenCase {
	return []goldenCase{
		// The quickstart example's 4-switch line.
		{"quickstart", experiments.Spec{Topo: "line4", Traffic: "poisson", Load: 0.4, Duration: 0.0005, Seed: 7}},
		// The fattree example's FatTree16 fabric under MAP traffic.
		{"fattree", experiments.Spec{Topo: "fattree16", Traffic: "map", Load: 0.5, Duration: 0.0002, Seed: 11}},
		// The wan example's Abilene backbone under BC-like traffic.
		{"wan", experiments.Spec{Topo: "abilene", Traffic: "bc", Load: 0.12, Duration: 0.002, Seed: 17}},
	}
}

// scenario builds the case's FIFO scenario.
func (gc goldenCase) scenario(t *testing.T) *experiments.Scenario {
	t.Helper()
	sc, err := gc.spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// deliveryDigest hashes the full delivery trace bit-exactly: packet
// identity plus the raw IEEE-754 bits of each departure time.
func deliveryDigest(res *core.Result) string {
	h := sha256.New()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, d := range res.Deliveries {
		w(d.PktID)
		w(uint64(d.FlowID))
		if d.IsRTT {
			w(1)
		} else {
			w(0)
		}
		w(math.Float64bits(d.SendTime))
		w(math.Float64bits(d.RecvTime))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func runGoldenCase(t *testing.T, gc goldenCase, shards int) *core.Result {
	t.Helper()
	return runGoldenCaseCfg(t, gc, core.Config{Shards: shards})
}

func runGoldenCaseCfg(t *testing.T, gc goldenCase, cfg core.Config) *core.Result {
	t.Helper()
	model, err := ptm.Synthetic(goldenArch, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return runGoldenCaseModel(t, gc, cfg, model)
}

func runGoldenCaseModel(t *testing.T, gc goldenCase, cfg core.Config, model *ptm.PTM) *core.Result {
	t.Helper()
	_, res, err := gc.scenario(t).RunDQNCfg(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deliveries) == 0 {
		t.Fatalf("%s: no deliveries — scenario produced no packets", gc.name)
	}
	return res
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".digest")
}

func TestGoldenTraces(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			res1 := runGoldenCase(t, gc, 1)
			d1 := deliveryDigest(res1)

			// An odd worker count drains the device queue unevenly.
			for _, shards := range []int{2, 3, 8} {
				if d := deliveryDigest(runGoldenCase(t, gc, shards)); d != d1 {
					t.Fatalf("%s: digest differs between Shards=1 (%s) and Shards=%d (%s): the worker schedule leaked into results",
						gc.name, d1, shards, d)
				}
			}

			// The observability seam must be read-only: an attached
			// EngineObserver may time and count, but the delivery trace
			// must stay bit-identical to the unobserved run.
			observer := obs.NewEngineObserver(obs.NewRegistry())
			resObs := runGoldenCaseCfg(t, gc, core.Config{Shards: 8, Observer: observer})
			if dObs := deliveryDigest(resObs); dObs != d1 {
				t.Fatalf("%s: digest differs with observer attached (%s) vs detached (%s): observability perturbed the simulation",
					gc.name, dObs, d1)
			}
			if got := len(observer.Deltas()); got != resObs.Iterations {
				t.Fatalf("%s: observer saw %d iterations, engine reports %d", gc.name, got, resObs.Iterations)
			}

			path := goldenPath(gc.name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(d1+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s = %s (%d deliveries)", path, d1, len(res1.Deliveries))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden digest %s (run with -update-golden to create): %v", path, err)
			}
			if got := d1 + "\n"; got != string(want) {
				t.Errorf("%s: departure-time digest changed\n got %s want %s\n(%d deliveries; the inference hot path is no longer bit-identical — if intentional, regenerate with -update-golden)",
					gc.name, d1, string(want), len(res1.Deliveries))
			}
		})
	}
}

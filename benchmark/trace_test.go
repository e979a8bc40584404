package main

import (
	"testing"
	"time"

	"deepqueuenet/internal/ptm"
)

func TestCoveredNsUnionsOverlaps(t *testing.T) {
	cases := []struct {
		name string
		ivs  [][2]int64
		want int64
	}{
		{"none", nil, 0},
		{"disjoint", [][2]int64{{10, 20}, {30, 50}}, 30},
		{"overlapping", [][2]int64{{10, 40}, {30, 50}}, 40},
		{"nested", [][2]int64{{10, 90}, {20, 30}}, 80},
		{"clipped to the parent", [][2]int64{{-50, 10}, {95, 200}}, 15},
		{"outside the parent", [][2]int64{{200, 300}}, 0},
		{"unsorted", [][2]int64{{60, 70}, {0, 10}, {5, 20}}, 30},
	}
	for _, c := range cases {
		if got := coveredNs(0, 100, c.ivs); got != c.want {
			t.Errorf("%s: covered %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// op [0,100]
	//   core.run [10,90]
	//     core.iteration [10,50]
	//       core.shard [10,40] and core.shard [10,50] run in parallel
	//     core.iteration [50,85]
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.run", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "core.iteration", Start: 10, End: 50},
		{ID: 4, Parent: 3, Name: "core.shard", Start: 10, End: 40},
		{ID: 5, Parent: 3, Name: "core.shard", Start: 10, End: 50},
		{ID: 6, Parent: 2, Name: "core.iteration", Start: 50, End: 85},
	}
	st := selfTimes(spans)
	want := map[string]nameStat{
		"op":             {Count: 1, Total: 100, Self: 20},
		"core.run":       {Count: 1, Total: 80, Self: 5},
		"core.iteration": {Count: 2, Total: 75, Self: 35}, // first fully covered by the shard union, second has no children
		"core.shard":     {Count: 2, Total: 70, Self: 70}, // parallel: their self times sum past the parent's wall time
	}
	for name, w := range want {
		if got := st[name]; got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
	if len(st) != len(want) {
		t.Errorf("got %d span names, want %d", len(st), len(want))
	}
	total, self := rootTotals(spans, st)
	if total != 100 || self != 20 {
		t.Errorf("root totals = %v, %v; want 100ns wall, 20ns unattributed", total, self)
	}
}

func TestWindowCountMatchesPTM(t *testing.T) {
	for _, cm := range [][2]int{{32, 8}, {21, 5}, {8, 2}} {
		c, m := cm[0], cm[1]
		for n := 0; n <= 5*c; n++ {
			if got, want := windowCount(n, c, m), len(ptm.Chunks(n, c, m)); got != want {
				t.Fatalf("windowCount(%d, %d, %d) = %d, ptm tiles %d windows", n, c, m, got, want)
			}
		}
	}
}

func TestTracerReserveThenPut(t *testing.T) {
	tr := newTracer()
	parent := tr.reserve()
	child := tr.add(parent, 7, "serve.run_exact", tr.epoch.Add(2*time.Millisecond), tr.epoch.Add(5*time.Millisecond))
	tr.put(parent, 0, 7, "serve.request", tr.epoch.Add(time.Millisecond), tr.epoch.Add(6*time.Millisecond))
	spans := tr.snapshot()
	if len(spans) != 2 || child == parent {
		t.Fatalf("got %d spans, child %d parent %d", len(spans), child, parent)
	}
	st := selfTimes(spans)
	if got := st["serve.request"].Self; got != 2*time.Millisecond {
		t.Errorf("request self time %v, want 2ms", got)
	}
	if layerOf("serve.request") != "serve" || layerOf("op") != "op" {
		t.Error("layerOf does not split at the first dot")
	}
}

package guard

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestFromContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := FromContext(ctx.Err())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("original context.Canceled lost from chain: %v", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Fatalf("canceled run must not match ErrDeadline")
	}
}

func TestFromContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := FromContext(ctx.Err())
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("original DeadlineExceeded lost from chain: %v", err)
	}
}

func TestFromContextNil(t *testing.T) {
	if err := FromContext(nil); err != nil {
		t.Fatalf("nil must map to nil, got %v", err)
	}
}

func TestRecovered(t *testing.T) {
	if Recovered(0, 0, 0, nil) != nil {
		t.Fatal("nil recover value must yield nil error")
	}
	se := Recovered(2, 7, 3, "boom")
	if se.Shard != 2 || se.Device != 7 || se.Iter != 3 {
		t.Fatalf("wrong coordinates: %+v", se)
	}
	if len(se.Stack) == 0 {
		t.Fatal("stack not captured")
	}
	msg := se.Error()
	for _, want := range []string{"shard 2", "device 7", "iteration 3", "boom"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func TestWatchdogNaN(t *testing.T) {
	var w Watchdog
	if err := w.Observe(0, 1.0); err != nil {
		t.Fatalf("finite delta tripped: %v", err)
	}
	err := w.Observe(1, math.NaN())
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("want DivergenceError, got %v", err)
	}
	if de.Iter != 1 || len(de.Trace) != 2 {
		t.Fatalf("bad diagnostics: %+v", de)
	}
}

func TestWatchdogInf(t *testing.T) {
	var w Watchdog
	if err := w.Observe(0, math.Inf(1)); err == nil {
		t.Fatal("+Inf delta must trip immediately")
	}
}

func TestWatchdogSustainedGrowth(t *testing.T) {
	var w Watchdog
	deltas := []float64{10, 5}
	for i := 1; i <= DefaultPatience; i++ {
		deltas = append(deltas, 5+float64(i))
	}
	var err error
	for i, d := range deltas {
		err = w.Observe(i, d)
		if i < len(deltas)-1 && err != nil {
			t.Fatalf("tripped early at iter %d: %v", i, err)
		}
	}
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("want DivergenceError after %d growth steps, got %v", DefaultPatience, err)
	}
	if len(de.Trace) != len(deltas) {
		t.Fatalf("trace length %d, want %d", len(de.Trace), len(deltas))
	}
}

func TestWatchdogResetOnContraction(t *testing.T) {
	var w Watchdog
	// Growth runs one step short of the patience, separated by
	// contractions, never trip.
	var deltas []float64
	for run := 0; run < 3; run++ {
		base := float64(100 - 30*run)
		for i := 0; i < DefaultPatience; i++ {
			deltas = append(deltas, base+float64(i))
		}
	}
	for i, d := range deltas {
		if err := w.Observe(i, d); err != nil {
			t.Fatalf("tripped at iter %d on bounded bouncing: %v", i, err)
		}
	}
}

func TestWatchdogDefaultPatience(t *testing.T) {
	var w Watchdog
	var err error
	for i := 0; i <= DefaultPatience; i++ {
		err = w.Observe(i, float64(i+1))
	}
	if err == nil {
		t.Fatal("monotonic growth past DefaultPatience must trip")
	}
}

func TestWatchdogTraceIsCopy(t *testing.T) {
	var w Watchdog
	w.Observe(0, 1)
	tr := w.Trace()
	tr[0] = 99
	if got := w.Trace()[0]; got != 1 {
		t.Fatalf("Trace must return a copy, internal state mutated to %v", got)
	}
}

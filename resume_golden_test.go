package deepqueuenet

// Resume-golden tests: the tentpole proof that checkpointed resume is
// bit-identical. Each golden scenario runs three ways — uninterrupted,
// checkpointed-and-crashed (a chaos crash at an epoch boundary, after
// that epoch's snapshot hit disk), and resumed from the crash's
// snapshot. The resumed run's delivery digest must equal the
// uninterrupted run's, which in turn must equal the committed golden
// digest — at Shards=1 and Shards=8, so neither checkpointing nor
// resume leaks into results under model parallelism.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"deepqueuenet/internal/chaos"
	"deepqueuenet/internal/checkpoint"
	"deepqueuenet/internal/core"
	"deepqueuenet/internal/guard"
	"deepqueuenet/internal/ptm"
)

// runGoldenCaseErr mirrors runGoldenCaseCfg but returns the run error
// instead of failing the test, so crash-injected runs can be asserted.
func runGoldenCaseErr(t *testing.T, gc goldenCase, cfg core.Config) (*core.Result, error) {
	t.Helper()
	model, err := ptm.Synthetic(goldenArch, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := gc.scenario(t).RunDQNCfg(model, cfg)
	return res, err
}

func TestResumeGolden(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			for _, shards := range []int{1, 8} {
				shards := shards
				t.Run("shards"+strconv.Itoa(shards), func(t *testing.T) {
					base := runGoldenCase(t, gc, shards)
					dBase := deliveryDigest(base)
					if base.Iterations < 2 {
						t.Fatalf("scenario converged in %d iterations — no epoch boundary to crash at", base.Iterations)
					}
					crashAt := base.Iterations / 2
					if crashAt < 1 {
						crashAt = 1
					}

					model, err := ptm.Synthetic(goldenArch, 8, 1)
					if err != nil {
						t.Fatal(err)
					}
					topoDigest := checkpoint.TopoDigest(gc.scenario(t).G)
					modelDigest, err := checkpoint.ModelDigest(model)
					if err != nil {
						t.Fatal(err)
					}

					path := filepath.Join(t.TempDir(), "run.ckpt")
					w := &checkpoint.Writer{
						Path: path, TopoDigest: topoDigest, ModelDigest: modelDigest,
						Seed: gc.spec.Seed, NoSync: true,
					}
					inj := chaos.New(chaos.Config{CrashAfterEpochs: crashAt})
					_, err = runGoldenCaseErr(t, gc, core.Config{
						Shards:    shards,
						EpochSink: inj.WrapEpochSink(w.Sink()),
					})
					if !errors.Is(err, guard.ErrCrash) {
						t.Fatalf("crash-injected run: err = %v, want guard.ErrCrash", err)
					}
					if got := inj.Count(chaos.FaultCrash); got != 1 {
						t.Fatalf("injector crashed %d times, want 1", got)
					}

					snap, err := checkpoint.Load(path)
					if err != nil {
						t.Fatalf("load crash snapshot: %v", err)
					}
					if err := snap.Validate(topoDigest, modelDigest); err != nil {
						t.Fatal(err)
					}
					if snap.Iter != crashAt {
						t.Fatalf("snapshot at iteration %d, want %d", snap.Iter, crashAt)
					}

					resumed, err := runGoldenCaseErr(t, gc, core.Config{
						Shards: shards,
						Resume: snap.EpochState(),
					})
					if err != nil {
						t.Fatalf("resumed run: %v", err)
					}
					if resumed.Iterations != base.Iterations {
						t.Fatalf("resumed run converged at iteration %d, uninterrupted at %d",
							resumed.Iterations, base.Iterations)
					}
					if dResumed := deliveryDigest(resumed); dResumed != dBase {
						t.Fatalf("resumed digest %s differs from uninterrupted %s: resume is not bit-identical",
							dResumed, dBase)
					}

					// The uninterrupted digest must still match the committed
					// golden digest (guards against this test drifting from
					// TestGoldenTraces).
					want, err := os.ReadFile(goldenPath(gc.name))
					if err != nil {
						t.Fatalf("missing golden digest: %v", err)
					}
					if dBase+"\n" != string(want) {
						t.Fatalf("baseline digest %s does not match committed golden %s", dBase, string(want))
					}
				})
			}
		})
	}
}

// TestResumeRejectsMismatchedRun proves the digest guard: a snapshot
// from one scenario must refuse to resume a different one instead of
// silently diverging.
func TestResumeRejectsMismatchedRun(t *testing.T) {
	cases := goldenCases()
	quick, wan := cases[0], cases[2]

	path := filepath.Join(t.TempDir(), "run.ckpt")
	w := &checkpoint.Writer{Path: path, Seed: quick.spec.Seed, NoSync: true}
	inj := chaos.New(chaos.Config{CrashAfterEpochs: 1})
	_, err := runGoldenCaseErr(t, quick, core.Config{
		Shards: 1, EpochSink: inj.WrapEpochSink(w.Sink()),
	})
	if !errors.Is(err, guard.ErrCrash) {
		t.Fatalf("crash run: err = %v, want guard.ErrCrash", err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runGoldenCaseErr(t, wan, core.Config{Shards: 1, Resume: snap.EpochState()}); !errors.Is(err, core.ErrResumeMismatch) {
		t.Fatalf("cross-scenario resume: err = %v, want core.ErrResumeMismatch", err)
	}
}

// cancelObserver cancels a run's context mid-iteration — from inside
// ObserveIteration, which fires after the propagation sweep but before
// the boundary's snapshot block. ObserveInference is a no-op.
type cancelObserver struct {
	cancelAtIter int
	cancel       context.CancelFunc
}

func (c *cancelObserver) ObserveIteration(ev core.IterationEvent) {
	if ev.Iter+1 == c.cancelAtIter {
		c.cancel()
	}
}

func (c *cancelObserver) ObserveInference(core.InferenceEvent) {}

// TestResumeCancelWritesFinalSnapshot proves the drain contract: with a
// checkpoint sink attached, a run canceled mid-iteration finishes that
// iteration, persists its boundary as the last snapshot, and only then
// surfaces the cancel — and that snapshot resumes bit-identically.
func TestResumeCancelWritesFinalSnapshot(t *testing.T) {
	gc := goldenCases()[0]
	base := runGoldenCase(t, gc, 1)
	dBase := deliveryDigest(base)

	path := filepath.Join(t.TempDir(), "run.ckpt")
	w := &checkpoint.Writer{Path: path, Seed: gc.spec.Seed, NoSync: true}

	cancelCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := w.Sink()
	last := 0
	cfg := core.Config{
		Shards: 1,
		EpochSink: func(st *core.EpochState) error {
			last = st.Iter
			return sink(st)
		},
		Observer: &cancelObserver{cancelAtIter: 2, cancel: cancel},
	}
	model, err := ptm.Synthetic(goldenArch, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = gc.scenario(t).RunDQNCfgCtx(cancelCtx, model, cfg)
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("canceled run: err = %v, want guard.ErrCanceled", err)
	}
	if last != 2 {
		t.Fatalf("last boundary the sink saw is iteration %d, want 2 (the canceled iteration's)", last)
	}

	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Iter != 2 {
		t.Fatalf("final snapshot at iteration %d, want 2 (the canceled iteration ran to its boundary)", snap.Iter)
	}
	resumed, err := runGoldenCaseErr(t, gc, core.Config{Shards: 1, Resume: snap.EpochState()})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if d := deliveryDigest(resumed); d != dBase {
		t.Fatalf("resume after cancel digest %s differs from uninterrupted %s", d, dBase)
	}
}

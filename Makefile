GO ?= go

# Per-target budget for `make fuzz`; raise for longer local campaigns.
FUZZTIME ?= 15s

.PHONY: build test race vet lint lint-fix-report check golden resume-golden analytic-gates bench bench-check metrics-smoke fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full race suite trains models and replays the golden/resume
# scenarios under the detector; on a small machine that can exceed go
# test's default 10m per-package timeout, so give it real headroom.
race:
	$(GO) test -race -timeout 45m ./...

vet:
	$(GO) vet ./...

# lint runs the repo-specific analyzers — the per-file checks (float
# equality, determinism, goroutine hygiene, error discards, cancellation
# polling) plus the flow-aware suite (hot-path allocations, lock
# discipline, atomic field hygiene, checkpoint durability, metric label
# cardinality) — over the tree including _test.go files. Exits non-zero
# on any diagnostic not suppressed by a //dqnlint:allow directive.
lint:
	$(GO) run ./cmd/dqnlint -tests .

# lint-fix-report emits the machine-readable diagnostic list to
# lint_report.json for triage tooling. Diagnostics (exit 1) are not a
# failure here, but a broken driver or unloadable tree (exit >= 2) is —
# a silent half-written report must not look like a clean run.
lint-fix-report:
	@$(GO) run ./cmd/dqnlint -tests -json . > lint_report.json; \
	st=$$?; \
	if [ $$st -ge 2 ]; then echo "dqnlint failed (exit $$st)"; exit $$st; fi; \
	echo "wrote lint_report.json"

# check is the CI gate: go vet, the repo's own analyzers, the full
# suite under the race detector (the shard fan-out and DLib are the
# concurrency-bearing paths it watches), the golden-trace determinism
# digests, the analytic-tier accuracy gates, the /metrics consistency
# smoke, and the benchmark regression gate.
check: vet lint race golden resume-golden analytic-gates metrics-smoke bench-check

# metrics-smoke drives a request through the full dqnserve handler
# stack and asserts /metrics exposes counters consistent with /stats.
metrics-smoke:
	$(GO) test -run TestMetricsEndpointSmoke -count=1 ./internal/serve

# golden re-runs the fixed-seed example scenarios and fails if any
# per-packet departure-time digest moved a single bit. Regenerate after
# an intentional semantic change with:
#   go test -run TestGoldenTraces -update-golden .
# It also replays the routing/calibration/analytic bit-identity fixture
# (testdata/golden/routing_bits.json, TestRoutingBitsFixture).
golden:
	$(GO) test -run 'TestGoldenTraces|TestRoutingBitsFixture' -count=1 .

# resume-golden proves checkpointed resume is bit-identical: each golden
# scenario is crashed at an epoch boundary, resumed from its snapshot,
# and the resumed digest must equal both the uninterrupted run and the
# committed golden digest (at Shards=1 and 8).
resume-golden:
	$(GO) test -run 'TestResume' -count=1 .

# analytic-gates bounds the degradation ladder's analytic tier against
# the DES ground truth on every golden scenario (thresholds committed
# under testdata/golden/analytic_gates.json). Regenerate after an
# intentional analytic-model change with:
#   go test -run TestAnalyticAccuracyGates -update-golden .
analytic-gates:
	$(GO) test -run TestAnalyticAccuracyGates -count=1 .

# bench runs the reproducible perf harness (cmd/dqnbench) and refreshes
# BENCH_pr10.json in place, preserving its recorded "before" baseline.
# Since PR 5 the e2e benchmarks run with an EngineObserver attached;
# since PR 6 an e2e_fattree16_ckpt variant prices epoch checkpointing
# and serve_saturation reports p50/p99 request latency; since PR 8 a
# quantized predict-stream variant and per-layer GEMM microbenches
# price the blocked/quantized kernels; since PR 9 a
# serve_saturation_brownout variant prices the graceful-degradation
# ladder's overload brownout (tier breakdown included); since PR 10 a
# serve_saturation_batched variant prices the shared inference plane and
# serve_concurrency_sweep records completed req/s vs client count.
bench:
	$(GO) run ./cmd/dqnbench -out BENCH_pr10.json

# bench-check reruns the harness and fails on a >15% ns/op or any
# allocs/op regression against the committed BENCH_pr10.json (carried
# forward from BENCH_pr9; the PR 10 plane keeps the plain serve path's
# alloc profile intact, which the gate continues to hold the line on).
bench-check:
	$(GO) run ./cmd/dqnbench -check BENCH_pr10.json

# microbench runs the plain go test benchmarks (no regression gate).
microbench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# fuzz runs each native fuzz target for FUZZTIME. Go allows one -fuzz
# pattern per invocation, so the targets run back to back; seed corpora
# live under internal/*/testdata/fuzz and also replay in plain `make
# test`.
fuzz:
	$(GO) test ./internal/ptm -fuzz FuzzPTMLoad -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/topo -fuzz FuzzBuildTopo -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/checkpoint -fuzz FuzzCheckpointLoad -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/tensor/difftest -fuzz FuzzMatMulKernels -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/tensor/difftest -fuzz FuzzQuantRoundTrip -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/analytic -fuzz FuzzAnalyticScenario -fuzztime $(FUZZTIME) -run '^$$'

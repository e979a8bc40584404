GO ?= go

# Per-target budget for `make fuzz`; raise for longer local campaigns.
FUZZTIME ?= 15s

.PHONY: build test race vet lint reach check purego golden analytic-gates paper-gates bench-smoke metrics-smoke fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full race suite trains models and replays the golden scenarios
# under the detector; on a small machine that can exceed go
# test's default 10m per-package timeout, so give it real headroom.
race:
	$(GO) test -race -timeout 45m ./...

vet:
	$(GO) vet ./...

# lint runs the five repo-specific analyzers — floateq, detguard,
# goguard, errdiscard and locksafe — over the tree including _test.go
# files. Exits non-zero on any diagnostic not suppressed by a
# //dqnlint:allow directive, and on a directive that names no analyzer
# or gives no reason. It is the one gating dqnlint run (make check and
# CI's check job run it).
lint:
	$(GO) run ./cmd/dqnlint -tests .

# reach fails when an internal package is linked into no command, no
# example, not the benchmark and not the root package: code that nothing
# runs is deleted, not kept (DESIGN.md §11). The one exception is
# internal/tensor/difftest: its reference kernels are what the kernel
# difftests compare the packed, asm and vector kernels against, so only
# tests import it.
reach:
	@set -e; \
	deps=$$($(GO) list -deps ./cmd/... ./examples/... ./benchmark .); \
	all=$$($(GO) list ./internal/...); \
	left=$$(printf '%s\n' "$$all" | grep -vxF -e "$$deps" -e deepqueuenet/internal/tensor/difftest) || [ $$? -eq 1 ]; \
	if [ -n "$$left" ]; then \
		echo "reach: no command, example, benchmark or root package imports:" >&2; \
		echo "$$left" >&2; exit 1; \
	fi

# check is the CI gate: go vet, the repo's own analyzers, the
# reachability of every internal package, the full suite under the race
# detector (the shard fan-out and DLib are the concurrency-bearing paths
# it watches), the kernel suites on the portable build, the golden-trace
# determinism digests, the analytic-tier and paper-table accuracy gates,
# the /metrics consistency smoke, and the repository benchmark smoke.
check: vet lint reach race purego golden analytic-gates paper-gates metrics-smoke bench-smoke

# purego runs the kernel-bearing packages on the portable build, where
# the assembly and vector kernels are not compiled in at all; the
# default build reaches the portable kernels only by switching the
# others off at run time.
purego:
	$(GO) test -tags purego -count=1 ./internal/tensor/difftest ./internal/tensor ./internal/nn ./internal/ptm

# metrics-smoke drives a request through the full dqnserve handler
# stack and asserts /metrics exposes counters consistent with /stats.
metrics-smoke:
	$(GO) test -run TestMetricsEndpointSmoke -count=1 ./internal/serve

# golden re-runs the fixed-seed example scenarios and fails if any
# per-packet departure-time digest moved a single bit. Regenerate after
# an intentional semantic change with:
#   go test -run TestGoldenTraces -update-golden .
# It also replays the routing/calibration/analytic bit-identity fixture
# (testdata/golden/routing_bits.json, TestRoutingBitsFixture) and the
# per-switch accuracy gate (testdata/golden/device_gates.json,
# TestDeviceAccuracyGates; regenerate with -update-golden likewise).
golden:
	$(GO) test -run 'TestGoldenTraces|TestRoutingBitsFixture|TestDeviceAccuracyGates' -count=1 .

# analytic-gates bounds the degradation ladder's analytic tier against
# the DES ground truth on every golden scenario (thresholds committed
# under testdata/golden/analytic_gates.json). Regenerate after an
# intentional analytic-model change with:
#   go test -run TestAnalyticAccuracyGates -update-golden .
analytic-gates:
	$(GO) test -run TestAnalyticAccuracyGates -count=1 .

# paper-gates runs the quick Tables 4/5/6 and Fig. 9 of cmd/paper from
# the shipped models and checks every row's w1 and Pearson rho against
# testdata/golden/paper_gates.json, plus the paper's shape claims
# (DeepQueueNet beats every baseline on every shared row; the unseen
# Fig. 9 load stays within a fixed factor of a seen one). Regenerate the
# per-row thresholds after an intentional model or engine change with:
#   go test -run TestPaperAccuracyGates -update-golden .
paper-gates:
	$(GO) test -run TestPaperAccuracyGates -count=1 .

# bench-smoke builds the repository benchmark (benchmark/, named by
# BENCHMARK.json) against the current tree and runs every workload for a
# few seconds. It measures nothing: it fails when a workload no longer
# verifies its own output (digests, causality, accounting identity) or
# any operation fails, so drift between the benchmark and the internal
# APIs it calls is caught before anyone measures with it. Performance is
# judged by paired benchmark/run.sh runs of parent and change. The loop
# lists every workload BENCHMARK.json names as workload:seconds; CI's
# benchmark-smoke job runs this target.
bench-smoke:
	@mkdir -p .bench_build; set -e; \
	for ws in offline_fattree16:3 offline_abilene:3 serve_exact_closed:3 serve_fast_closed:2 serve_overload_open:3; do \
		w=$${ws%%:*}; out=.bench_build/smoke-$$w.out; \
		bash benchmark/run.sh --workload $$w --seconds $${ws##*:} --trace 0 | tee $$out; \
		tail -n 1 $$out | grep -q '"correct":true' || { echo "bench-smoke: $$w did not verify" >&2; exit 1; }; \
		tail -n 1 $$out | grep -q '"failed":0[,}]' || { echo "bench-smoke: $$w had failed operations" >&2; exit 1; }; \
	done

# fuzz runs each native fuzz target for FUZZTIME. Go allows one -fuzz
# pattern per invocation, so the targets run back to back; seed corpora
# live under internal/*/testdata/fuzz and also replay in plain `make
# test`.
fuzz:
	$(GO) test ./internal/ptm -fuzz FuzzPTMLoad -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/ptm -fuzz FuzzPredictDeviceReuse -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/topo -fuzz FuzzBuildTopo -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/tensor/difftest -fuzz FuzzMatMulKernels -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/tensor/difftest -fuzz FuzzQuantRoundTrip -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/tensor/difftest -fuzz FuzzSliceTranscendentals -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/tensor/difftest -fuzz FuzzSoftmaxRows -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/analytic -fuzz FuzzAnalyticScenario -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/analytic -fuzz FuzzSpecEstimate -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/experiments -fuzz FuzzSpecBuild -fuzztime $(FUZZTIME) -run '^$$'
	$(GO) test ./internal/serve -fuzz FuzzRequestDecode -fuzztime $(FUZZTIME) -run '^$$'

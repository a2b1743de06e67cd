GO ?= go

.PHONY: build test test-race test-kernels test-floor0 test-bench vet vuln bench bench-all bench-json bench-train bench-dataset bench-ckpt bench-pool bench-smoke fuzz ci serve-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages with concurrency: the PDES
# kernel and its worker pool, the sharded fabric, the batched inference
# and training engines, the cluster composition layer that drives them,
# the parallel hyper-parameter search, and the estimation service
# (scheduler, registry, HTTP surface).
test-race:
	$(GO) test -race ./internal/sim ./internal/netsim ./internal/core ./internal/cluster ./internal/ml ./internal/tuning ./internal/serve

# test-floor0 replays the bitwise contract with the ml pool's dispatch
# floor forced to 0 (build tag poolfloor0), so every Range call fans out
# again at the small shapes the tests use — the path the production
# floor (DESIGN.md decision 15) keeps off the default shapes. -cpu sizes
# the shared pool: 1, 2 and 4 workers, one process each because the pool
# is sized once. The golden fingerprints in testdata/ are the production
# ones, so a pass also proves floor-invariance. The last line is the
# -race pass over concurrent shard workers sharing the forced-out pool.
test-floor0:
	@for w in 1 2 4; do \
		GOFLAGS=-tags=poolfloor0 $(GO) test -count=1 -cpu $$w ./internal/ml || exit 1; \
		GOFLAGS=-tags=poolfloor0 $(GO) test -count=1 -cpu $$w -run 'TestEngineGoldenParity|TestGoldenCombinedPipeline|TestGoldenDeterminism' ./internal/core || exit 1; \
	done
	GOFLAGS=-tags=poolfloor0 $(GO) test -race -count=1 -cpu 4 -run 'TestGoldenCombinedPipeline' ./internal/core

# bench/ is its own module (it imports internal/* through a replace), so
# `go build ./... && go test ./...` never compiles it: an internal/*
# signature change that breaks the repo's benchmark would first be seen
# by whoever runs it. This compiles, vets and tests it.
test-bench:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# vet runs under every build configuration — the default (assembly
# kernels), purego, and the test-only poolfloor0 — so a tagged file can't
# silently become load-bearing or rot behind its tag.
vet:
	$(GO) vet ./...
	GOFLAGS=-tags=purego $(GO) vet ./...
	GOFLAGS=-tags=poolfloor0 $(GO) vet ./internal/ml

# test-kernels runs the ML tests under every forced GEMM kernel family
# (scalar, sse2, avx2 when the CPU has it) plus the purego build, so a
# kernel can't pass CI only because it happened to be the default pick.
# All families are bitwise identical, so the same tests must pass
# unchanged under each — including the engine-vs-legacy golden parity
# suite, whose fingerprints are kernel-independent for the same reason.
test-kernels:
	MIMICNET_GEMM=scalar $(GO) test -count=1 ./internal/ml
	MIMICNET_GEMM=scalar $(GO) test -count=1 -run TestEngineGoldenParity ./internal/core
	MIMICNET_GEMM=sse2 $(GO) test -count=1 ./internal/ml
	MIMICNET_GEMM=sse2 $(GO) test -count=1 -run TestEngineGoldenParity ./internal/core
	@if grep -q avx2 /proc/cpuinfo 2>/dev/null; then \
		MIMICNET_GEMM=avx2 $(GO) test -count=1 ./internal/ml; \
		MIMICNET_GEMM=avx2 $(GO) test -count=1 -run TestEngineGoldenParity ./internal/core; \
	else \
		echo "skipping MIMICNET_GEMM=avx2 (CPU lacks AVX2)"; \
	fi
	GOFLAGS=-tags=purego $(GO) test -count=1 ./internal/ml
	GOFLAGS=-tags=purego $(GO) test -count=1 -run TestEngineGoldenParity ./internal/core

# Known-vulnerability scan, gated on the tool being installed: the build
# environment is hermetic (no network, no `go install`), so CI machines
# without govulncheck skip the scan instead of failing.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "skipping govulncheck (not installed; go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Everything the driver gates on, in one target.
ci: vet vuln test-race test-kernels test-floor0 test-bench bench-smoke

# Batched vs per-packet inference cost (the ns/step metric must show the
# batched engine at least 2x cheaper per step for B >= 16).
bench:
	$(GO) test -run xxx -bench BenchmarkMimicInference -benchtime 0.5s -count 2 .

# Sequential vs sharded composed estimate at N=8; writes machine-readable
# ns/simulated-second, events/sec, allocs/event to BENCH_compose.json.
# Also measures every GEMM kernel family (raw GFLOP/s, inference ns/step,
# train samples/sec, speedups vs sse2) into BENCH_gemm.json.
bench-json:
	BENCH_COMPOSE_JSON=BENCH_compose.json $(GO) test -run xxx -bench BenchmarkComposedRun -benchtime 3x .
	BENCH_GEMM_JSON=$(CURDIR)/BENCH_gemm.json $(GO) test -run xxx -bench BenchmarkGemmKernels -benchtime 2s ./internal/ml

# Sequential vs minibatch training on one identical dataset; writes
# machine-readable samples/sec, ns/sample, allocs/sample to
# BENCH_train.json (the batched trainer must be >= 2x samples/sec at
# B=16).
bench-train:
	BENCH_TRAIN_JSON=BENCH_train.json $(GO) test -run xxx -bench BenchmarkTrain -benchtime 3x .

# Legacy window-of-slices vs columnar dataset build on one identical
# synthetic boundary trace; writes allocs/sample, bytes/sample,
# overhead-bytes/sample and the cross-layout ratios to
# BENCH_dataset.json (the columnar build must cut allocated overhead
# bytes per sample by >= 5x with train samples/sec unregressed).
bench-dataset:
	BENCH_DATASET_JSON=BENCH_dataset.json $(GO) test -run xxx -bench BenchmarkDatasetBuild -benchtime 3x .

# Durability cost sheet: journal append throughput (per-record vs
# batched fsync), checkpoint container write/restore latency across
# payload sizes, 10k-record recovery replay, and the training wall-clock
# overhead of checkpointing at the default interval (acceptance: <= 2%).
# Machine-readable copy lands in BENCH_ckpt.json.
bench-ckpt:
	BENCH_CKPT_JSON=$(CURDIR)/BENCH_ckpt.json $(GO) test -run xxx -bench BenchmarkDurability -benchtime 1x ./internal/durable

# The measurement ml's dispatchFloor is derived from: inline vs forced
# fan-out per (hidden, lanes) cell for one inference and one BPTT step,
# with the crossover and the floor it implies (table on stderr, ~1 min).
# Rerun on a new host class before changing the constant; DESIGN.md
# decision 15 records the committed table.
bench-pool:
	$(GO) test -run xxx -bench BenchmarkPoolBreakEven -benchtime 300ms ./internal/ml

# Full paper reproduction: every table/figure benchmark (slow).
bench-all:
	$(GO) test -bench . -benchmem .

# One iteration of every Benchmark* (~3-4 min): a crash-and-wiring
# canary over the whole suite, not a measurement. Tables land in
# bench_output.txt to keep CI logs readable.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x . > bench_output.txt
	$(GO) test -run xxx -bench 'BenchmarkGemmKernels|BenchmarkPoolBreakEven' -benchtime 1x ./internal/ml >> bench_output.txt 2>&1

fuzz:
	$(GO) test -run xxx -fuzz FuzzMulLanes -fuzztime 30s ./internal/ml
	$(GO) test -run xxx -fuzz FuzzPoolRange -fuzztime 30s ./internal/ml
	$(GO) test -run xxx -fuzz FuzzGemmKernels -fuzztime 30s ./internal/ml
	$(GO) test -run xxx -fuzz FuzzGemmBackwardKernels -fuzztime 30s ./internal/ml
	$(GO) test -run xxx -fuzz FuzzGateKernels -fuzztime 30s ./internal/ml
	$(GO) test -run xxx -fuzz FuzzW1 -fuzztime 30s ./internal/metrics
	$(GO) test -run xxx -fuzz FuzzHistogramObserve -fuzztime 30s ./internal/obs

# End-to-end daemon check: boots mimicnetd on a random port, runs a cold
# job over HTTP, proves the identical resubmission skips training via a
# registry cache hit in /stats, measures cold/warm latency and warm
# throughput (BENCH_serve.json), and SIGTERMs itself mid-job to verify
# graceful drain (in-flight job finishes, new submissions rejected).
serve-smoke:
	$(GO) run ./cmd/mimicnetd -smoke -bench-json BENCH_serve.json

clean:
	$(GO) clean -testcache
	rm -f mimicnet.test ml.test bench_output.txt BENCH_compose.json BENCH_serve.json BENCH_train.json

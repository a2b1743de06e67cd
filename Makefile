GO ?= go

.PHONY: build test test-race test-kernels test-floor0 test-bench vet vuln bench-check bench-all bench-pool bench-smoke fuzz fuzz-ci ci serve-smoke mimicnet-smoke examples-smoke tools-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages with concurrency: the PDES
# kernel and its worker pool, the sharded fabric and its per-LP packet
# pools, the transports whose packets and timers cross those LPs, and
# the runtime that shards them for Figure 2 (cluster); the batched
# inference and training engines and their worker pool (ml); the
# composed engine, whose one fan-out is the inference flush's lane
# groups (core); BayesOpt's parallel warm-up (tuning); the atomic
# telemetry cells every worker writes (obs); the mutex-guarded job
# journal (durable); the estimation service (scheduler, registry,
# HTTP surface); and the bounded group runner behind Figures 11-12
# (experiments, by -run: the rest of that package is slow figure runs).
test-race:
	$(GO) test -race ./internal/sim ./internal/netsim ./internal/transport ./internal/core ./internal/cluster ./internal/ml ./internal/tuning ./internal/obs ./internal/durable ./internal/serve
	$(GO) test -race -run 'TestRunBounded|TestGroupWalls|TestParallelConfigs|TestPartitionedConfigs' ./internal/experiments

# test-floor0 replays the bitwise contract with the ml pool's dispatch
# floor forced to 0 (build tag poolfloor0), so every Range call fans out
# again at the small shapes the tests use — the path the production
# floor (DESIGN.md decision 15) keeps off the default shapes; in core
# that is every inference flush splitting across its lane groups
# (decision 29). -cpu sizes the shared pool, and with it the number of
# lane groups: 1, 2 and 4 workers, one process each because the pool is
# sized once. The golden fingerprints in testdata/ (engine_parity.json,
# oracle_parity.json, trained_parity.json) are the production ones, and
# TestFeederOracleParity compares against the feeders-as-events oracle,
# so a pass also proves floor- and group-invariance. The last line is
# the -race pass over flushes split across a 4-worker pool, for the
# composed shape and for arbitrary role vectors.
test-floor0:
	@for w in 1 2 4; do \
		GOFLAGS=-tags=poolfloor0 $(GO) test -count=1 -cpu $$w ./internal/ml || exit 1; \
		GOFLAGS=-tags=poolfloor0 $(GO) test -count=1 -cpu $$w -run 'TestEngineGoldenParity|TestOracleParity|TestGoldenCombinedPipeline|TestGoldenDeterminism|TestFlushSplit|TestFlushReplayOrder|TestFeederOracleParity' ./internal/core || exit 1; \
	done
	GOFLAGS=-tags=poolfloor0 $(GO) test -race -count=1 -cpu 4 -run 'TestGoldenCombinedPipeline|TestFlushSplit|TestFeederOracleParity|TestRoleVectorDeterminism' ./internal/core

# bench/ is its own module (it imports internal/* through a replace), so
# `go build ./... && go test ./...` never compiles it: an internal/*
# signature change that breaks the repo's benchmark would first be seen
# by whoever runs it. This compiles, vets and tests it.
test-bench:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# bench-check runs every BENCHMARK.json workload once the way the driver
# does (short, traced) and fails unless the result line reports
# "correct":true and "failed":0 — test-bench only proves bench/ compiles,
# and a change that makes the benchmark's own fingerprint or count checks
# fail shows up nowhere else locally.
bench-check:
	@for w in cold_n8 warm_n32 fullsim_dctcp_n16 serve_mix; do \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 3 --trace 1 | tail -n 1); \
		echo "$$w: $${out%%,\"metrics\"*}}"; \
		case "$$out" in *'"correct":true,'*'"failed":0,'*) ;; \
			*) echo "bench-check: $$w did not report correct:true, failed:0"; exit 1;; esac; \
	done

# vet runs under every build configuration — the default (assembly
# kernels), purego, and the test-only poolfloor0 — so a tagged file can't
# silently become load-bearing or rot behind its tag. The cross-builds
# keep Windows and macOS compiling: a unix-only call (syscall.Kill, flock)
# needs a build-tagged pair of files or a portable form.
vet:
	$(GO) vet ./...
	GOFLAGS=-tags=purego $(GO) vet ./...
	GOFLAGS=-tags=poolfloor0 $(GO) vet ./internal/ml
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) build ./...

# test-kernels runs the ML tests under the kernel settings the default
# test run does not reach, so a kernel can't pass CI only because it
# happened to be the CPU probe's pick: the purego build (the Go loops),
# and on AVX2 hosts GODEBUG=cpu.fma=off, under which math.Exp skips FMA,
# wideGatesMatchScalar turns the wide gates off and rowsAcc runs beside
# the Go gates. All settings are bitwise identical, so the same tests
# must pass unchanged under each — including the engine-vs-legacy and
# per-request oracle golden parity suites, whose fingerprints are
# kernel-independent for the same reason. The trained-artifact hashes
# (TestTrainedArtifactParity) depend on math.Exp's path, so the file
# keeps one set per path.
test-kernels:
	GOFLAGS=-tags=purego $(GO) test -count=1 ./internal/ml
	GOFLAGS=-tags=purego $(GO) test -count=1 -run 'TestEngineGoldenParity|TestOracleParity' ./internal/core
	if grep -q avx2 /proc/cpuinfo 2>/dev/null; then \
		GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/ml && \
		GODEBUG=cpu.fma=off $(GO) test -count=1 -run 'TestEngineGoldenParity|TestOracleParity' ./internal/core; \
	else \
		echo "skipping GODEBUG=cpu.fma=off (CPU lacks AVX2)"; \
	fi

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
ci: vet vuln test-race test-kernels test-floor0 fuzz-ci test-bench bench-check bench-smoke serve-smoke mimicnet-smoke examples-smoke tools-smoke

# The measurement ml's dispatchFloor is derived from: inline vs forced
# fan-out per (hidden, lanes) cell for one inference step, one BPTT step
# and one split inference flush, with each kind's crossover and the floor
# they imply (table on stderr, ~1 min).
# Rerun on a new host class before changing the constant; DESIGN.md
# decision 15 records the committed table.
bench-pool:
	$(GO) test -run xxx -bench BenchmarkPoolBreakEven -benchtime 300ms ./internal/ml

# Full paper reproduction: every table/figure/ablation benchmark (slow).
bench-all:
	$(GO) test -bench . -benchmem .

# One iteration of every figure/table/ablation benchmark plus the ml
# micro-benchmarks (kernel families, pool break-even, per-lane inference
# step cost, per-element gate cost, per-term row-kernel cost, per-sample
# training step cost, per-parameter optimizer step cost, per-product
# input-walk cost; ~3-4 min): a crash-and-wiring canary, not a measurement — speed is
# measured by bench/ (BENCHMARK.json).
# Tables land in bench_output.txt to keep CI logs readable.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x . > bench_output.txt
	$(GO) test -run xxx -bench 'BenchmarkGemmKernels|BenchmarkPoolBreakEven|BenchmarkStepLanes|BenchmarkGateKernels|BenchmarkRowKernel|BenchmarkTrainBatch|BenchmarkAdamStep|BenchmarkInputWalk' -benchtime 1x ./internal/ml >> bench_output.txt 2>&1

fuzz:
	$(GO) test -run xxx -fuzz FuzzKernelOrder -fuzztime 30s ./internal/sim
	$(GO) test -run xxx -fuzz FuzzRowKernel -fuzztime 30s ./internal/ml
	$(GO) test -run xxx -fuzz FuzzPoolRange -fuzztime 30s ./internal/ml
	$(GO) test -run xxx -fuzz FuzzLaneProducts -fuzztime 30s ./internal/ml
	$(GO) test -run xxx -fuzz FuzzGateKernels -fuzztime 30s ./internal/ml
	$(GO) test -run xxx -fuzz FuzzTrainPasses -fuzztime 30s ./internal/ml
	$(GO) test -run xxx -fuzz FuzzW1 -fuzztime 30s ./internal/metrics
	$(GO) test -run xxx -fuzz FuzzHistogramObserve -fuzztime 30s ./internal/obs
	$(GO) test -run xxx -fuzz FuzzRoleVector -fuzztime 30s ./internal/core

# The bounded fuzz legs of ci: FuzzRoleVector, so a role vector whose
# composed run is not deterministic across pool sizes and runs fails ci
# rather than waiting for the next `make fuzz`; FuzzGateKernels, the
# wide sigmoid/tanh kernels against the scalar functions; FuzzRowKernel,
# the row kernel's 16-row passes and masked tail against dot, with
# sentinels past every lane's rows; FuzzLaneProducts, the cell steps'
# two forward walks per lane (listed and strided) and the trainer's
# Mᵀ·dy and weight gradient against their scalar loops; and FuzzTrainPasses, the
# trainer's wide gate-gradient, bias-gradient and Adam passes against
# their Go loops, with sentinels past every output. Each leg runs
# its instrumented test binary on a fresh corpus directory: on the shared
# cache, whose corpus earlier runs keep growing, a warm machine could
# spend the whole budget replaying old entries and fuzz nothing. Budgets
# count executions (the seed entries among them), so a slow machine
# fuzzes as many new inputs as a fast one.
fuzz-ci:
	@d=$$(mktemp -d); \
	$(GO) test -c -fuzz FuzzRoleVector -o $$d/core.test ./internal/core && \
	$(GO) test -c -fuzz FuzzGateKernels -o $$d/ml.test ./internal/ml && \
	$(GO) test -c -fuzz FuzzRowKernel -o $$d/mlrow.test ./internal/ml && \
	(cd internal/core && $$d/core.test -test.run xxx -test.fuzz FuzzRoleVector -test.fuzztime 60x -test.fuzzcachedir $$d/corpus) && \
	(cd internal/ml && $$d/ml.test -test.run xxx -test.fuzz FuzzGateKernels -test.fuzztime 100000x -test.fuzzcachedir $$d/corpus) && \
	(cd internal/ml && $$d/mlrow.test -test.run xxx -test.fuzz FuzzRowKernel -test.fuzztime 50000x -test.fuzzcachedir $$d/corpus) && \
	(cd internal/ml && $$d/mlrow.test -test.run xxx -test.fuzz FuzzLaneProducts -test.fuzztime 20000x -test.fuzzcachedir $$d/corpus) && \
	(cd internal/ml && $$d/mlrow.test -test.run xxx -test.fuzz FuzzTrainPasses -test.fuzztime 50000x -test.fuzzcachedir $$d/corpus); \
	s=$$?; rm -rf $$d; exit $$s

# End-to-end daemon check: boots mimicnetd on a random port and a temp
# -data-dir, runs a cold job over HTTP, proves the identical resubmission
# skips training via a registry cache hit in /stats, logs cold/warm
# latency and warm throughput, requires a second daemon on the live
# data dir to refuse to start, kills and recovers a daemon mid-train,
# and SIGTERMs itself mid-job to verify graceful drain (in-flight job
# finishes, new submissions rejected).
serve-smoke:
	$(GO) run ./cmd/mimicnetd -smoke

# Thumbnail run of cmd/mimicnet's local path: datagen, a two-trial
# tuning search and one training, saved; then a 6-cluster composition
# from the saved artifact, which skips training, after the Appendix-B
# per-direction validation (core.RoleError). The last leg must fail:
# -models rejects -tune, since a loaded artifact is already trained.
mimicnet-smoke:
	@d=$$(mktemp -d); \
	$(GO) run ./cmd/mimicnet -clusters 4 -duration 60ms -small-run 80ms -run 100ms -epochs 2 -seed 7 -tune 2 -save $$d/models.json && \
	$(GO) run ./cmd/mimicnet -clusters 6 -duration 60ms -small-run 80ms -run 100ms -seed 7 -models $$d/models.json -validate-directions && \
	! $(GO) run ./cmd/mimicnet -clusters 6 -duration 60ms -run 100ms -seed 7 -models $$d/models.json -tune 2 2>/dev/null; \
	s=$$?; rm -rf $$d; exit $$s

# Runs the quickstart example end to end (~3 s): a serve.JobSpec's
# Datasets and Train, an 8-cluster estimate and its full-fidelity truth.
# Tier-1 only compiles the examples.
examples-smoke:
	$(GO) run ./examples/quickstart

# Thumbnail runs of the scenario tools, which build their configuration
# from serve.JobSpec as cmd/mimicnet does: a fullsim and a flowsim; a
# fullsim -load NaN that JobSpec.Validate must refuse with exit status 1
# (not a crash or an out-of-memory kill) under a 2 GB address-space cap;
# and a trace at default horizons, which must train the same artifact
# bytes as mimicnet's live datagen at the same flags and print the same
# training lines, throughput aside, in the same order.
tools-smoke:
	@d=$$(mktemp -d); \
	$(GO) build -o $$d/ ./cmd/fullsim ./cmd/flowsim ./cmd/trace ./cmd/mimicnet && \
	$$d/fullsim -duration 40ms -run 60ms && \
	$$d/flowsim -clusters 4 -duration 40ms -run 60ms && \
	(ulimit -v 2000000; $$d/fullsim -load NaN; test $$? -eq 1) && \
	$$d/trace -seed 7 -o $$d/t && \
	$$d/mimicnet -clusters 2 -run 50ms -epochs 2 -seed 7 -save $$d/a > $$d/a.out && \
	$$d/mimicnet -clusters 2 -run 50ms -epochs 2 -seed 7 -trace $$d/t -save $$d/b > $$d/b.out && \
	cmp $$d/a $$d/b && \
	for r in a b; do grep 'train\[' $$d/$$r.out | sed 's/([0-9.]* samples\/sec, /(/' > $$d/$$r.train; done && \
	test -s $$d/a.train && diff $$d/a.train $$d/b.train; \
	s=$$?; rm -rf $$d; exit $$s

clean:
	$(GO) clean -testcache
	rm -f *.test bench_output.txt sweep_results.txt
	rm -rf .bench_build

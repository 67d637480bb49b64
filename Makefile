GO ?= go

.PHONY: check fmt race faults chaos fuzz bench-runner bench-fault obs-bench kernel-bench pool-bench store-bench cluster-bench timeline-bench sample-bench churn-bench all

all: check

# Tier-1 verification: formatting, vet, build, full test suite.
check: fmt
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Race-detector pass over the concurrent subsystems: the job engine,
# the service, and the concurrency tests of the runner-backed
# experiment suite, plus the kernel bit-identity golden test (its
# counters must survive the race-instrumented memory model too).
# (The experiments package's full artefact tests are single-threaded
# and ~10x slower under race, so only these targeted tests run here;
# `make check` covers the rest.)
race:
	$(GO) test -race -timeout 20m ./internal/pool/... ./internal/runner/... ./internal/cluster/... ./cmd/dlsimd/...
	$(GO) test -race -timeout 20m -run 'TestSuiteParallelMatchesSequential|TestSuiteConcurrentUse|TestGoldenCounters' ./internal/experiments/

# Robustness pass: the concurrent subsystems under low-probability
# deterministic fault injection (fixed seed, see internal/faultinject)
# plus the race detector.  Injected transient errors are absorbed by
# the runner's default retry policy; the suite must still pass.
faults:
	DLSIM_FAULTS='runner.execute=error:0.02,dlsimd.submit=delay:0.2:2ms' DLSIM_FAULT_SEED=42 \
		$(GO) test -race -timeout 20m ./internal/faultinject/... ./internal/runner/... ./internal/cluster/... ./cmd/dlsimd/...
	DLSIM_FAULTS='runner.execute=error:0.02' DLSIM_FAULT_SEED=42 \
		$(GO) test -race -timeout 20m -run 'TestSuiteSurvivesTransientFaults|TestSuiteRetriedResultsBitIdentical' ./internal/experiments/

# Native Go fuzzing: every Fuzz target in the module, one at a time
# (go test fuzzes one target per run), each for 15 s.  Tier-1 replays
# the committed testdata/fuzz corpora without fuzzing; commit any
# crasher this finds there.  For a longer run of one target, use the
# `go test -fuzz` command in that target's doc comment.
fuzz:
	@for dir in $$($(GO) list -f '{{.Dir}}' ./...); do \
		for fn in $$(grep -ho '^func Fuzz[A-Za-z0-9_]*' $$dir/*_test.go 2>/dev/null | cut -d' ' -f2); do \
			echo "== $$fn ($$dir)"; \
			$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime 15s $$dir || exit 1; \
		done; \
	done

# Sequential vs parallel full-suite wall-clock (results feed
# BENCH_runner.json).
bench-runner:
	$(GO) test -run '^$$' -bench 'BenchmarkSuite(Sequential|Parallel)$$' -benchtime 1x ./internal/experiments/

# Hardened-path overhead: the disabled-injection-point hot path and
# the suite wall-clock with the robustness layer in place (results
# feed BENCH_fault.json).
bench-fault:
	$(GO) test -run '^$$' -bench 'BenchmarkFireDisabled' ./internal/faultinject/
	$(GO) test -run '^$$' -bench 'BenchmarkSuiteParallel$$' -benchtime 1x ./internal/experiments/

# Telemetry overhead: instrument micro-benchmarks plus the full-suite
# wall clock with tracing on vs off; regenerates BENCH_obs.json.
obs-bench:
	scripts/obs_bench.sh

# Advisory A/B of timeline interval sampling on the kernel hot loop:
# sampler detached vs attached at the production 64Ki-instruction
# interval, with allocation counts.  The full gated run (feeding
# BENCH_obs.json) is part of `make obs-bench`; this target is the
# quick standalone check.  Pair with the zero-cost-off proofs:
# `go test -run 'TestTimelineOffNoAllocs|TestSamplerBitIdentical' ./internal/cpu/`.
timeline-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRunTimeline(Off|On)$$' -benchmem ./internal/cpu/

# Simulation-kernel throughput of the compiled kernel on a small Base
# and Enhanced image; regenerates BENCH_kernel.json (set
# KB_BASELINE_REF=<ref> for a live interleaved baseline).  Pair with
# the bit-identity proof:
# `go test -run TestGoldenCounters ./internal/experiments/`.
kernel-bench:
	scripts/kernel_bench.sh

# Sampled-simulation row: the sampled estimator's accuracy against an
# exact run of the same job; merges the sampled_simulation section into
# BENCH_kernel.json (and drops the retired compiled_traces row).  Fails
# on the exact cost falling outside the sampled 95% interval.  Pair
# with the bit-identity proofs:
# `go test -run 'TestCompiledBitIdentity|TestGoldenCounters' ./internal/cpu/ ./internal/experiments/`.
sample-bench:
	scripts/sample_bench.sh

# Library-churn ABTB pressure: the plugin-server and jit workloads'
# hit rate and flushes per 1k instructions vs a no-churn baseline;
# regenerates BENCH_churn.json (metrics are counter-derived and
# host-invariant; the script gates churn-flushes > baseline).  Pair
# with the correctness sweep:
# `go test -run 'TestChurn|TestFlushEntryPoints|TestStaleProgramTraps|TestFastForwardGOTStoreSnoop' ./internal/runner/ ./internal/abtb/ ./internal/cpu/`.
churn-bench:
	scripts/churn_bench.sh

# Artifact-pool throughput: a repeated-spec sweep with pooling on vs
# off (Options.DisablePool), interleaved A/B; regenerates
# BENCH_pool.json.  Pair with the bit-identity proof:
# `go test -run 'TestPooledBitIdenticalToUnpooled|TestGoldenCounters' ./internal/runner/ ./internal/experiments/`.
pool-bench:
	scripts/pool_bench.sh

# Chaos suite under the race detector: a 3-node loopback cluster
# takes injected forwarding faults (error/delay/hang via
# internal/faultinject) and a hard owner kill mid-batch, and must
# converge to per-config aggregates bit-identical to a single node
# with failovers recorded and never a 5xx that skipped failover.
chaos:
	$(GO) test -race -timeout 20m -count=1 -run 'TestChaos' -v ./cmd/dlsimd/

# Cluster throughput and failover latency: a sweep through one node
# vs a 3-node loopback cluster, interleaved, plus the round-trip of a
# failed-over read (mean + p99); regenerates BENCH_cluster.json.
# Pair with the bit-identity proof: `make chaos`.
cluster-bench:
	scripts/cluster_bench.sh

# Result-store warm-start throughput: a repeated-spec sweep served
# from a pre-populated store vs computed from an empty one,
# interleaved A/B; regenerates BENCH_store.json.  Pair with the
# bit-identity proof:
# `go test -run 'TestStoreWarmStart|TestHTTPRestartWarmStart' ./internal/runner/ ./cmd/dlsimd/`.
store-bench:
	scripts/store_bench.sh

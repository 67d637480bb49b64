GO ?= go

.PHONY: check fmt race faults smoke fuzz all

all: check

# Tier-1 verification: formatting, vet, build, full test suite, and
# every internal benchmark run once (vet compiles benchmark code but
# nothing else runs it, so a benchmark that fails at run time would
# otherwise go unseen until someone measures with it).  The bench/
# module is separate, so root ./... never builds it: vet it and run
# its unit tests too (-short skips the daemon-launching smoke tests,
# which `make smoke` runs).
check: fmt
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Race-detector pass over the concurrent subsystems: the linker's code
# shared across forks, the artifact pool, the job engine, the result
# store and the telemetry atomics it counts in, the service, and the
# concurrency tests of the runner-backed experiment suite, plus
# the kernel bit-identity golden test (its counters must survive the
# race-instrumented memory model too).  The pool's eviction test runs
# five more times: with the pool sized by worker count, almost every
# fresh-seed job evicts a bundle while other jobs fork from theirs.
# (The experiments package's full artefact tests are single-threaded
# and ~10x slower under race, so only these targeted tests run here;
# `make check` covers the rest.)
race:
	$(GO) test -race -timeout 20m ./internal/linker/... ./internal/pool/... ./internal/runner/... ./internal/store/... ./internal/telemetry/... ./cmd/dlsimd/...
	$(GO) test -race -count=5 -run '^TestEvictionUnderConcurrency$$' ./internal/pool/
	$(GO) test -race -timeout 20m -run 'TestSuiteParallelMatchesSequential|TestSuiteConcurrentUse|TestGoldenCounters' ./internal/experiments/

# Robustness pass: the concurrent subsystems under low-probability
# deterministic fault injection (fixed seed, see internal/faultinject)
# plus the race detector.  The ambient faults are delays, which every
# path must absorb: they reorder when jobs start and finish, and no
# result may depend on that order.  (An injected job error is final by
# design — a job runs once — so error injection into runner.execute
# belongs in the tests that assert that failure.)  The suite's
# parallel and concurrent runs must stay bit-identical to its
# sequential one under the same delays.
faults:
	DLSIM_FAULTS='runner.execute=delay:0.02:2ms,dlsimd.submit=delay:0.2:2ms' DLSIM_FAULT_SEED=42 \
		$(GO) test -race -timeout 20m ./internal/faultinject/... ./internal/runner/... ./cmd/dlsimd/...
	DLSIM_FAULTS='runner.execute=delay:0.02:2ms,dlsimd.submit=delay:0.2:2ms' DLSIM_FAULT_SEED=42 \
		$(GO) test -race -timeout 20m -run 'TestSuiteParallelMatchesSequential|TestSuiteConcurrentUse' ./internal/experiments/

# Daemon smoke tests: bench/'s TestSmoke and TestSmokeTraced build and
# launch real dlsimd processes, drive them over HTTP and apply the
# golden, pair-invariant and sampled-window checks (about 22 s).
smoke:
	$(GO) -C bench test -count=1 .

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

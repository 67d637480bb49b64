GO ?= go

.PHONY: check fmt race faults chaos fuzz all

all: check

# Tier-1 verification: formatting, vet, build, full test suite.  The
# bench/ module is separate, so root ./... never builds it: vet it and
# run its unit tests too (-short skips the daemon-launching smoke
# tests, which `go -C bench test .` runs).
check: fmt
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Race-detector pass over the concurrent subsystems: the linker's code
# shared across forks, the artifact pool, the job engine, the service,
# and the concurrency tests of the runner-backed experiment suite, plus
# the kernel bit-identity golden test (its counters must survive the
# race-instrumented memory model too).
# (The experiments package's full artefact tests are single-threaded
# and ~10x slower under race, so only these targeted tests run here;
# `make check` covers the rest.)
race:
	$(GO) test -race -timeout 20m ./internal/linker/... ./internal/pool/... ./internal/runner/... ./internal/cluster/... ./cmd/dlsimd/...
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

# Chaos suite under the race detector: a 3-node loopback cluster
# takes injected forwarding faults (error/delay/hang via
# internal/faultinject) and a hard owner kill mid-batch, and must
# converge to per-config aggregates bit-identical to a single node
# with failovers recorded and never a 5xx that skipped failover.
chaos:
	$(GO) test -race -timeout 20m -count=1 -run 'TestChaos' -v ./cmd/dlsimd/

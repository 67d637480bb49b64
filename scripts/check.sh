#!/usr/bin/env bash
# CI entry point: tier-1 checks, the race-detector pass over the
# concurrent subsystems, and the fault-injection robustness pass.
# Equivalent to `make check race faults`.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
go build ./...
go test ./...
go test -race -timeout 20m ./internal/pool/... ./internal/runner/... ./internal/cluster/... ./cmd/dlsimd/...
go test -race -timeout 20m -run 'TestSuiteParallelMatchesSequential|TestSuiteConcurrentUse|TestGoldenCounters' ./internal/experiments/
make faults

# Advisory: kernel throughput of the working tree vs HEAD, measured
# live and interleaved on this machine.  Benchmarks on a loaded shared
# host are noisy, so a shortfall here warns instead of failing the
# build; re-run `make kernel-bench` on a quiet machine before trusting
# a regression.
if KB_RUNS=2 KB_BASELINE_REF=HEAD scripts/kernel_bench.sh /tmp/BENCH_kernel_ci.json; then
	grep -E '"(base|enhanced)_speedup"' /tmp/BENCH_kernel_ci.json || true
else
	echo "WARNING: kernel benchmark failed (advisory only)" >&2
fi

# Advisory: artifact-pool sweep throughput, pooled vs unpooled.  Same
# caveat as above — noisy on a loaded host, so warn instead of fail;
# re-run `make pool-bench` on a quiet machine before trusting a
# regression.
if PB_RUNS=2 scripts/pool_bench.sh /tmp/BENCH_pool_ci.json; then
	grep '"pooled_speedup"' /tmp/BENCH_pool_ci.json || true
else
	echo "WARNING: pool benchmark failed (advisory only)" >&2
fi

# Advisory: result-store warm-start throughput, pre-populated store
# vs cold compute.  Same caveat — warn instead of fail; re-run
# `make store-bench` on a quiet machine before trusting a regression.
if SB_RUNS=2 scripts/store_bench.sh /tmp/BENCH_store_ci.json; then
	grep '"warm_speedup"' /tmp/BENCH_store_ci.json || true
else
	echo "WARNING: store benchmark failed (advisory only)" >&2
fi

# Advisory: cluster forwarding tax and failover latency, one node vs
# three loopback nodes.  Same caveat — warn instead of fail; re-run
# `make cluster-bench` on a quiet machine before trusting a
# regression.  The chaos determinism proof already ran above (the
# race pass over cmd/dlsimd includes the chaos suite).
if CB_RUNS=1 CB_BENCHTIME=1x CB_FO_BENCHTIME=100x scripts/cluster_bench.sh /tmp/BENCH_cluster_ci.json; then
	grep -E '"(three_node_overhead|failover_p99_us)"' /tmp/BENCH_cluster_ci.json || true
else
	echo "WARNING: cluster benchmark failed (advisory only)" >&2
fi

# Advisory: compiled-trace speedup and sampled-estimator accuracy.
# The accuracy metrics are deterministic (the script itself fails on
# golden divergence or a CI violation); only the throughput ratio is
# host-dependent, so warn instead of fail and re-run
# `make sample-bench` on a quiet machine before trusting a
# regression.
if SK_RUNS=2 scripts/sample_bench.sh /tmp/BENCH_sample_ci.json; then
	grep -E '"(compiled_speedup|rel_err_pct)"' /tmp/BENCH_sample_ci.json || true
else
	echo "WARNING: sample benchmark failed (advisory only)" >&2
fi

# Advisory: library-churn ABTB pressure vs the no-churn baseline.
# The metrics are counter-derived and deterministic (the script gates
# churn-flushes > baseline itself); advisory here only so a bench
# harness hiccup cannot fail CI.  Re-run `make churn-bench` to
# regenerate BENCH_churn.json.
if CHB_RUNS=1 scripts/churn_bench.sh /tmp/BENCH_churn_ci.json; then
	grep '"flushes_per_1k_instrs"' /tmp/BENCH_churn_ci.json || true
else
	echo "WARNING: churn benchmark failed (advisory only)" >&2
fi

#!/usr/bin/env bash
# Adds the sampled_simulation row to BENCH_kernel.json: the sampled
# estimator's accuracy (BenchmarkSampledVsExact in internal/runner) —
# exact vs estimated per-request cost, the 95% half-width, relative
# error, and the measured-phase wall-clock ratio.  The exact value
# landing inside the reported interval is the acceptance gate;
# within_ci=0 fails the script.
#
# The merge also deletes the retired compiled_traces row, an
# interpreted-vs-compiled kernel A/B: the CPU has one kernel, so that
# row has no baseline left to measure.
#
# The accuracy metrics are deterministic (fixed seed, bit-exact
# kernel), so they are host-invariant; only the wall ratio moves with
# machine load.
#
# Usage: scripts/sample_bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_kernel.json}"

runner_bin="" sampled_out="" merged=""
trap 'rm -f "$runner_bin" "$sampled_out" "$merged"' EXIT

runner_bin=$(mktemp /tmp/sample_bench_runner.XXXXXX)
go test -c -o "$runner_bin" ./internal/runner/

# metric <file> <benchmark> <unit> -> the value reported with that
# unit on the benchmark's line (deterministic metrics: any run's value)
metric() {
  awk -v name="$2" -v unit="$3" '$1 ~ "^"name"(-[0-9]+)?$" {
    for (i = 4; i < NF; i++) if ($(i+1) == unit) { print $i; exit }
  }' "$1"
}

sampled_out=$(mktemp /tmp/sample_bench_sampled.XXXXXX)
echo "sampled vs exact..." >&2
"$runner_bin" -test.run '^$' -test.bench 'BenchmarkSampledVsExact$' \
  -test.benchtime 1x > "$sampled_out"

exact_us=$(metric "$sampled_out" BenchmarkSampledVsExact exact_us)
sampled_us=$(metric "$sampled_out" BenchmarkSampledVsExact sampled_us)
ci95_us=$(metric "$sampled_out" BenchmarkSampledVsExact ci95_us)
rel_err=$(metric "$sampled_out" BenchmarkSampledVsExact rel_err_pct)
within_ci=$(metric "$sampled_out" BenchmarkSampledVsExact within_ci)
wall_speedup=$(metric "$sampled_out" BenchmarkSampledVsExact wall_speedup)
if ! awk -v w="$within_ci" 'BEGIN { exit !(w == 1) }'; then
  echo "FAIL: exact per-request cost ${exact_us}us outside the sampled 95% interval ${sampled_us} +/- ${ci95_us}us" >&2
  exit 1
fi

if [ ! -s "$out" ]; then
  echo '{}' > "$out"
fi
merged=$(mktemp /tmp/sample_bench_merged.XXXXXX)
jq \
  --argjson exact_us "$exact_us" \
  --argjson sampled_us "$sampled_us" \
  --argjson ci95_us "$ci95_us" \
  --argjson rel_err "$rel_err" \
  --argjson wall_speedup "$wall_speedup" \
  'del(.compiled_traces) + {
    sampled_simulation: {
      benchmark: "BenchmarkSampledVsExact (internal/runner): memcached/base seed=3, 600 requests, 8 windows, 16 detailed warmup per window",
      command: "make sample-bench",
      exact_us_per_req: $exact_us,
      sampled_us_per_req: $sampled_us,
      ci95_us: $ci95_us,
      rel_err_pct: $rel_err,
      measured_wall_speedup: $wall_speedup,
      notes: "Deterministic accuracy row: the exact per-request cost must land inside the sampled estimate'\''s 95% interval (gated by this script). The wall ratio is the only host-dependent figure."
    }
  }' "$out" > "$merged"
mv "$merged" "$out"
merged=""
echo "wrote $out (sampled ${sampled_us} +/- ${ci95_us}us vs exact ${exact_us}us, ${rel_err}% rel err)"

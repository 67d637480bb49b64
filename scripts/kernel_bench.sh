#!/usr/bin/env bash
# Regenerates BENCH_kernel.json: simulated-instruction throughput of
# the CPU kernel on the Base and Enhanced configurations
# (BenchmarkSimulatedInstructions{Base,Enhanced} in internal/cpu).
# The benchmark times the compiled kernel, the CPU's only execution
# path, which compiles the image at its first Run; trees from before
# the interpreter was deleted ran the same benchmark on the
# interpreter, so a KB_BASELINE_REF that old compares the two kernels.
#
# Pass a git ref as KB_BASELINE_REF to build that ref's kernel from a
# temporary worktree and interleave its runs with the current tree's,
# so both sides see the same machine conditions.  Only such a live run
# emits the "before" figures and the speedups: a ratio against numbers
# recorded on another host would measure the host, not the change.
#
# Bit-identity of the kernel is enforced separately:
# internal/experiments.TestGoldenCounters diffs every workload's full
# counter struct against a golden file generated by the
# pre-optimisation kernel.
#
# Usage: [KB_BASELINE_REF=<ref>] scripts/kernel_bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_kernel.json}"
runs="${KB_RUNS:-5}"
benchtime="${KB_BENCHTIME:-1s}"

# One cleanup covers every temp file this script makes, no matter
# where it dies: re-installing the trap after each mktemp (the old
# pattern) left the output captures leaking whenever a benchmark run
# or the awk extraction failed.
bench_bin="" old_bin="" wt="" new_out="" old_out=""
cleanup() {
  rm -f "$bench_bin" "$old_bin" "$new_out" "$old_out"
  if [ -n "$wt" ]; then
    git worktree remove --force "$wt" 2>/dev/null || true
  fi
}
trap cleanup EXIT

bench_bin=$(mktemp /tmp/kernel_bench.XXXXXX)
go test -c -o "$bench_bin" ./internal/cpu/

if [ -n "${KB_BASELINE_REF:-}" ]; then
  # Live baseline: build the ref's cpu test binary from a temporary
  # worktree and interleave its runs with the current tree's below.
  old_bin=$(mktemp /tmp/kernel_bench_old.XXXXXX)
  wt=$(mktemp -d /tmp/kernel_bench_wt.XXXXXX)
  git worktree add --detach "$wt" "$KB_BASELINE_REF" >/dev/null
  (cd "$wt" && go test -c -o "$old_bin" ./internal/cpu/)
fi

# best <file> <benchmark> -> "<min ns/op> <instrs/op>"
best() {
  awk -v name="$2" '$1 ~ "^"name"(-[0-9]+)?$" {
    if (min == "" || $3 < min) { min = $3; instrs = $(NF-1) }
  } END { print min, instrs }' "$1"
}

new_out=$(mktemp /tmp/kernel_bench_new_out.XXXXXX)
old_out=$(mktemp /tmp/kernel_bench_old_out.XXXXXX)
: > "$new_out"; : > "$old_out"
for i in $(seq "$runs"); do
  echo "run $i/$runs (current tree)..." >&2
  "$bench_bin" -test.run '^$' -test.bench 'BenchmarkSimulatedInstructions' \
    -test.benchtime "$benchtime" >> "$new_out"
  if [ -n "${KB_BASELINE_REF:-}" ]; then
    echo "run $i/$runs (baseline $KB_BASELINE_REF)..." >&2
    "$old_bin" -test.run '^$' -test.bench 'BenchmarkSimulatedInstructions' \
      -test.benchtime "$benchtime" >> "$old_out"
  fi
done

read -r base_after_ns base_instrs <<<"$(best "$new_out" BenchmarkSimulatedInstructionsBase)"
read -r enh_after_ns enh_instrs <<<"$(best "$new_out" BenchmarkSimulatedInstructionsEnhanced)"

ips() { awk -v ns="$1" -v instrs="$2" 'BEGIN { printf "%.0f", instrs / ns * 1e9 }'; }
ratio() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.2f", a / b }'; }

# The baseline figures exist only when a live baseline ran.
baseline="none (set KB_BASELINE_REF for a live interleaved baseline)"
base_before="" enh_before=""
summary="Base ${base_after_ns} ns/op, Enhanced ${enh_after_ns} ns/op"
if [ -n "${KB_BASELINE_REF:-}" ]; then
  read -r base_before_ns _ <<<"$(best "$old_out" BenchmarkSimulatedInstructionsBase)"
  read -r enh_before_ns _ <<<"$(best "$old_out" BenchmarkSimulatedInstructionsEnhanced)"
  base_speedup=$(ratio "$base_before_ns" "$base_after_ns")
  enh_speedup=$(ratio "$enh_before_ns" "$enh_after_ns")
  baseline="measured live at $KB_BASELINE_REF (interleaved)"
  base_before="
    \"base_before_ns_per_op\": $base_before_ns,
    \"base_before_instrs_per_sec\": $(ips "$base_before_ns" "$base_instrs"),
    \"base_speedup\": $base_speedup,"
  enh_before="
    \"enhanced_before_ns_per_op\": $enh_before_ns,
    \"enhanced_before_instrs_per_sec\": $(ips "$enh_before_ns" "$enh_instrs"),
    \"enhanced_speedup\": $enh_speedup,"
  summary="Base ${base_speedup}x, Enhanced ${enh_speedup}x vs $KB_BASELINE_REF"
fi

host_cpu=$(awk -F': *' '/model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || echo unknown)
host_n=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)

cat > "$out" <<EOF
{
  "benchmark": "Simulation-kernel throughput: BenchmarkSimulatedInstructions{Base,Enhanced} (internal/cpu), best of $runs x $benchtime per side",
  "description": "Simulated instructions/second of the trace-driven CPU kernel on a small Base and an Enhanced image. With KB_BASELINE_REF set, the same benchmark built from that ref runs interleaved with the current tree, and the before and speedup fields compare the two. Workload counters are proven bit-identical to the pre-optimisation kernel by internal/experiments.TestGoldenCounters.",
  "command": "make kernel-bench",
  "host": {
    "cpu": "$host_cpu",
    "cpus": $host_n,
    "goos": "$(go env GOOS)",
    "goarch": "$(go env GOARCH)"
  },
  "baseline": "$baseline",
  "results": {$base_before
    "base_after_ns_per_op": $base_after_ns,
    "base_instrs_per_op": $base_instrs,
    "base_after_instrs_per_sec": $(ips "$base_after_ns" "$base_instrs"),$enh_before
    "enhanced_after_ns_per_op": $enh_after_ns,
    "enhanced_instrs_per_op": $enh_instrs,
    "enhanced_after_instrs_per_sec": $(ips "$enh_after_ns" "$enh_instrs")
  },
  "notes": "ns/op moves with host load (shared vCPU), so only the two sides of one interleaved run compare. instrs/op is an exact simulation invariant and does not vary."
}
EOF
echo "wrote $out ($summary)"

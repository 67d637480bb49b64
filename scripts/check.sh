#!/usr/bin/env bash
# CI entry point: tier-1 checks, the race-detector pass over the
# concurrent subsystems, the fault-injection robustness pass, and the
# smoke tests that launch real daemons.
# Each step is defined once, in the Makefile.  Performance is measured
# by bench/ (see BENCHMARK.json), not here.
set -euo pipefail
cd "$(dirname "$0")/.."

make check race faults smoke

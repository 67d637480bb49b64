#!/usr/bin/env bash
# Builds and runs the dlsimd benchmark.  Run it from the repository root:
#
#   bash bench/run.sh [-workload NAME[,NAME]] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
#
# Everything it builds or writes (Go build cache, the Go toolchain's
# own state, binaries and daemon stores) stays under .bench_build in
# the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go -C bench build -o "$build/dlsimbench" .
exec "$build/dlsimbench" -root "$root" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, Go's own temp and config directories under .bench_build/,
# the run's store directories and CSV files under .bench_tmp/ (removed when
# the run ends), span files under .bench_out/.
set -euo pipefail

root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$root/.bench_tmp"

# The reference kernel is a binary of its own, beside the benchmark's.
for pkg in bench:subtab-bench bench/refkernel:refkernel; do
    env GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
        XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= \
        go build -o "$build/${pkg#*:}" "./${pkg%:*}"
done

TMPDIR="$root/.bench_tmp" exec "$build/subtab-bench" "$@"

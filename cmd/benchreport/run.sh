#!/usr/bin/env bash
# Builds benchreport from source and runs it with the given arguments:
#
#   bash cmd/benchreport/run.sh --workload serial_mixed_inmem --seed 1 --seconds 24 --trace 0
#
# This is the command BENCHMARK.json names. Everything the build and the run
# write — the Go build cache included — stays under .bench_build/ in the
# directory the command is run from, so a checkout is left as it was found
# apart from that one ignored directory.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps its telemetry counters
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

# benchreport is its own module (go.mod beside this file) that replaces the
# fastread module with the repository two levels up; without that repository
# the build fails here and nothing is printed.
(cd "$src" && go build -o "$out/bin/benchreport" .)
exec "$out/bin/benchreport" "$@"

#!/usr/bin/env bash
# Builds plurality-bench from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash cmd/plurality-bench/run.sh --workload leader-2e4 --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (binary, Go build cache, Go's
# configuration and telemetry directory, temporary files, span files) goes
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/cmd/plurality-bench" && go build -o "$out/plurality-bench" .)
exec "$out/plurality-bench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs one
# workload. Everything the build and the run write stays in
# .bench_build at the root of the tree.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0

# The benchmark is its own module that imports the repository's
# packages through a replace directive, so without the rest of the
# tree this build fails and no result is printed.
(cd "$here" && go build -trimpath -o "$out/perfbench" .)

cd "$root"
exec "$out/perfbench" "$@"

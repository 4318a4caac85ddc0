#!/usr/bin/env bash
# Runs every workload once, each in its own process, and prints each
# workload's report: the end-to-end metrics by name with unit and
# sample count (or, with --trace 1, the per-layer metrics), plus ops
# attempted and failed.
#
#   bash perfbench/all.sh --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for w in publish estimate serve-cold serve-hot; do
	bash "$here/run.sh" --workload "$w" "$@"
done

#!/usr/bin/env bash
# One measured benchmark run, built from source first:
#
#   bash benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#
# Run it from the root of a checkout. Build output goes to standard error;
# the last line of standard output is the run's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe bench "$@"

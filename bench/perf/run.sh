#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#
#   bash bench/perf/run.sh --workload zoo-serve --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build output goes to stderr, so the
# last line of standard output is the run's JSON result.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perf: run from the root of a full checkout (dune-project or lib/ is missing)" >&2
  exit 2
fi

# dune's shared cache lives outside the checkout; build without it.
export DUNE_CACHE=disabled
dune build --root . ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"

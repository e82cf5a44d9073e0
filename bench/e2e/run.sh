#!/usr/bin/env bash
# Build the daemon and the benchmark from this checkout, then run the
# benchmark with the given arguments:
#
#   bash bench/e2e/run.sh --workload serve-hot --seed 1 --seconds 16 --trace 0
#
# Run from the root of the checkout.  Build output goes to stderr; the
# benchmark's report and its final JSON line go to stdout.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib/serve ] || [ ! -f bin/opprox_cli.ml ]; then
  echo "bench/e2e/run.sh: run from the root of an opprox source checkout" >&2
  exit 2
fi

# Keep the build inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./bin/opprox_cli.exe ./bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe --opprox ./_build/default/bin/opprox_cli.exe "$@"

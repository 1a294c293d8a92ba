#!/usr/bin/env bash
# Builds hwbench and the hwpat CLI from source, then runs one benchmark
# workload.  Run from the root of an hwpat checkout:
#
#   bash bench/e2e/run.sh --workload simulate --seed 1 --seconds 10 --trace 0
#
# The last line of standard output is the run's JSON summary.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: run this from the root of an hwpat checkout" >&2
  exit 2
fi

# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . bench/e2e/hwbench.exe bin/hwpat.exe >&2
exec ./_build/default/bench/e2e/hwbench.exe run "$@"

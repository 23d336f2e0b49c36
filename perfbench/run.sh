#!/usr/bin/env bash
# Build the benchmark and the daemon from this source tree, then run one
# workload. Run from the repository root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The result is the last line of standard output; build output goes to
# standard error.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a complete source checkout" >&2
  exit 2
fi

# keep the build inside this checkout, and run at the default pool width
export DUNE_CACHE=disabled
unset EXO_JOBS UKRGEN_CACHE_DIR UKRGEN_NATIVE UKRGEN_CC
dune build --root . ./perfbench/main.exe ./bin/ukrgen.exe 1>&2
exec ./_build/default/perfbench/main.exe \
  --ukrgen ./_build/default/bin/ukrgen.exe "$@"

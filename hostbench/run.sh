#!/usr/bin/env bash
# Builds the host-cost benchmark from source and runs it.  From the root
# of a checkout:
#
#   bash hostbench/run.sh --workload iterate-quiet|spec-churn|swarm \
#     --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.  The dune cache stays off so nothing is written outside
# the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . -j 2 ./hostbench/main.exe >&2
exec ./_build/default/hostbench/main.exe "$@"

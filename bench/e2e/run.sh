#!/usr/bin/env bash
# Builds kfusec and kfbench in this checkout, then runs kfbench with the
# given arguments.  See README.md.  Example, from the checkout root:
#   bash bench/e2e/run.sh --workload plan-mix --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/../.."
# The build stays inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/kfusec.exe ./bench/e2e/kfbench.exe 1>&2
exec ./_build/default/bench/e2e/kfbench.exe "$@"

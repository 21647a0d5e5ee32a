#!/usr/bin/env bash
# Build the benchmark suite from source and run one workload:
#
#   bash bench/suite/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build goes to .bench_build at the repository root, with dune's
# shared cache off, so nothing is written outside the checkout.  The
# last line of standard output is the run's one-line JSON result.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --display quiet ./bench/suite/suite.exe >&2
exec .bench_build/default/bench/suite/suite.exe run "$@"

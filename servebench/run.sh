#!/bin/sh
# Build the graql server and the benchmark (graql_bench.exe) from source,
# then run the benchmark from the repository root with the given arguments, e.g.
#   sh servebench/run.sh --workload point_reads --seed 1 --seconds 15 --trace 0
set -e
dune build --root . --cache=disabled servebench/graql_bench.exe bin/graql_cli.exe 1>&2
exec ./_build/default/servebench/graql_bench.exe \
  --server ./_build/default/bin/graql_cli.exe "$@"

#!/usr/bin/env bash
# The one command: build the benchmark once, run every workload untraced and
# then traced, print every metric by name with its unit, and leave
# bench/out/results.json and bench/out/trace.jsonl behind.
#
#   bench/run.sh                 # full set, seed 1, 20 s per run
#   bench/run.sh -seed 7         # any flag of `go run ./bench` passes through
#   bench/run.sh -selfcheck      # A/A: two full sets must agree within bounds
#   bench/run.sh -regen          # rewrite bench/expected/*.json from the oracle
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p bench/out
# go build stamps the commit into the binary (read back by the program);
# outside a git checkout it is recorded as "unknown".
go build -o bench/out/bench.bin ./bench

echo "# nproc=$(nproc) GOMAXPROCS=${GOMAXPROCS:-unset} $(go version)"
exec bench/out/bench.bin "$@"

#!/bin/sh
# ci.sh — the tier-1+ gate. Everything here must pass before merging:
# formatting, build (library and commands), vet, repolint, the full test
# suite under the race detector (which also runs the planck plan verifier
# on every engine query), and a clean obdalint run over the benchmark
# artifacts (see ROADMAP.md).
set -eux

UNFORMATTED=$(gofmt -l bench cmd internal examples *.go)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi
# Every command is built once, into BIN, and the gate runs those binaries.
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
BIN="$TMP/bin"
go build ./...
go build -o "$BIN/" ./cmd/...
go vet ./...
# Typed static analysis in strict mode: any unsuppressed error/warning
# finding fails; every //lint:ignore must be in the documented allowlist
# and must match a diagnostic; the canonical report must equal the
# committed golden; and the typed load + call graph + summaries + passes
# must stay inside the wall-time budget.
"$BIN/repolint" -strict -allow testdata/repolint_allow.txt \
    -golden testdata/repolint.golden -budget 20s
go test -race ./...
"$BIN/obdalint" -strict -quiet
# Typed template disjointness prunes unfolded joins: "disjoint" must never
# hold for two templates some values of their classes expand equally.
go test -run '^$' -fuzz '^FuzzTemplateDisjoint$' -fuzztime 10s -fuzzminimizetime 1s ./internal/r2rml
# The SPARQL parser is the daemon's input surface: arbitrary query text must
# parse or fail with an error, never panic.
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sparql
# The result writers escape by hand: for any variable name, value, language
# tag, datatype and term kind they must write the bytes encoding/json and
# the replacer-based TSV cell write.
go test -run '^$' -fuzz '^FuzzWriteJSON$' -fuzztime 10s -fuzzminimizetime 1s ./internal/server

# The smokes below run the shipped engine (core.DefaultOptions): the
# commands have no switch for any other configuration.
MIXOUT="$TMP/out.txt"

# The table runner runs from the binary: one small per-query breakdown.
"$BIN/mixer" -breakdown -scales 1 -seedscale 0.15 -runs 1 -warmup 0 \
    -triples=false -queries q2,q3 > "$MIXOUT"
grep -q '^q3 ' "$MIXOUT" || {
    echo "mixer smoke: breakdown has no q3 row" >&2
    cat "$MIXOUT" >&2
    exit 1
}

# Telemetry smoke: one query with intra-query parallelism, the slow log and
# the metric exposition on. obdaq -slowlog prints the same JSON document
# /debug/slowlog serves, and every execution is offered to it, so it must
# hold a captured entry with a trace id and its usage block;
# the exposition must show dispatched parallel tasks and union arms, the
# runtime-metrics family (goroutines can never be zero in a live process)
# and the usage accounting counters.
"$BIN/obdaq" -q q2 -seedscale 0.15 -parallel 4 -metrics -slowlog 2 \
    -rows 0 > "$MIXOUT"
for want in '"trace_id"' \
    '"usage"' \
    'npdbench_exec_parallel_tasks_total [1-9]' \
    'npdbench_exec_parallel_union_arms_total [1-9]' \
    'npdbench_runtime_goroutines [1-9]' \
    'npdbench_usage_rows_scanned_total [1-9]'; do
    grep -E "$want" "$MIXOUT" > /dev/null || {
        echo "telemetry smoke: obdaq output lacks $want" >&2
        cat "$MIXOUT" >&2
        exit 1
    }
done

# The benchmark (bench/README.md): short real passes must answer every
# query correctly, and the differ must flag the regression planted in the
# committed results.json fixture pair (exit 1) and pass a self-diff (exit 0).
go run ./bench --workload mix_cold --seed 1 --seconds 2 --trace 0 | tee "$MIXOUT"
tail -n 1 "$MIXOUT" | grep -q '"correct":true'
# The warm mix at seed scale 0.15 checks all 21 answers against
# bench/expected on the instance where query rewriting changes the SQL most.
go run ./bench --workload mix_warm --seed 1 --seconds 2 --trace 0 | tee "$MIXOUT"
tail -n 1 "$MIXOUT" | grep -q '"correct":true'
# The grown instance is the only workload whose joins are all hash joins at
# scale: it checks the typed join keys against the expected answers.
go run ./bench --workload hash_scaled --seed 1 --seconds 2 --trace 0 | tee "$MIXOUT"
tail -n 1 "$MIXOUT" | grep -q '"correct":true'
# The served mix is the only workload whose result bytes cross a real
# socket: the answers are read back from the loopback connection.
go run ./bench --workload serve_open --seed 1 --seconds 2 --trace 0 | tee "$MIXOUT"
tail -n 1 "$MIXOUT" | grep -q '"correct":true'
if "$BIN/mixer" -benchdiff \
    internal/mixer/testdata/results_old.json \
    internal/mixer/testdata/results_new.json > /dev/null; then
    echo "benchdiff: seeded regression fixture not flagged" >&2
    exit 1
fi
"$BIN/mixer" -benchdiff \
    internal/mixer/testdata/results_old.json \
    internal/mixer/testdata/results_old.json > /dev/null

# Determinism under a single OS thread: parallel scheduling interleaves
# completely differently with GOMAXPROCS=1, and results (four workers vs
# one) must still be bit-identical — end to end and at the operator level,
# where one worker and many share each body.
GOMAXPROCS=1 go test -run 'TestParallelSequentialIdentical' .
GOMAXPROCS=1 go test -run 'TestParallelMatchesSequential' ./internal/sqldb

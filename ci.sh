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
# committed golden; the ranked hot-path allocation work list must equal
# its golden (the list only changes deliberately); and the typed load +
# call graph + summaries + passes must stay inside the wall-time budget.
"$BIN/repolint" -strict -allow testdata/repolint_allow.txt \
    -golden testdata/repolint.golden -hotgolden testdata/hotreport.golden \
    -budget 20s
go test -race ./...
"$BIN/obdalint" -strict -quiet
# Typed template disjointness prunes unfolded joins: "disjoint" must never
# hold for two templates some values of their classes expand equally.
go test -run '^$' -fuzz '^FuzzTemplateDisjoint$' -fuzztime 10s ./internal/r2rml

# The smokes below run the shipped engine (core.DefaultOptions): the
# commands have no switch for any other configuration.
RUNLOG="$TMP/run.jsonl"
MIXOUT="$TMP/out.txt"

# Instrumented smoke run: one client, one small mix, with the JSONL run log
# on; the validator fails the gate when the log is empty or malformed (and,
# for schema-v2 records, when the per-query usage block is missing).
"$BIN/mixer" -breakdown -scales 1 -seedscale 0.15 -runs 1 -warmup 0 \
    -triples=false -clients 1 -queries q2,q3 -jsonl "$RUNLOG" > /dev/null
"$BIN/mixer" -validatejsonl "$RUNLOG"
grep -q '"schema":2' "$RUNLOG" || {
    echo "run-log smoke: records not stamped with schema v2" >&2
    exit 1
}

# Plan-cache smoke: repeated runs with concurrent clients (the cache is
# always on) must serve warm executions from the compiled-query cache —
# the metric exposition has to show a nonzero hit count.
"$BIN/mixer" -breakdown -scales 1 -seedscale 0.15 -runs 2 -warmup 0 \
    -triples=false -clients 2 -queries q2,q3 -metrics \
    -jsonl "$RUNLOG" > "$MIXOUT"
"$BIN/mixer" -validatejsonl "$RUNLOG"
grep -E 'npdbench_compile_cache_hits_total [1-9]' "$MIXOUT" > /dev/null || {
    echo "plan-cache smoke: no cache hits in metric exposition" >&2
    cat "$MIXOUT" >&2
    exit 1
}

# Parallel-execution smoke: a mix with intra-query parallelism on must
# actually fan work out — the npdbench_exec_parallel_* family has to show
# dispatched tasks and parallel union arms.
"$BIN/mixer" -breakdown -scales 1 -seedscale 0.15 -runs 1 -warmup 0 \
    -triples=false -clients 2 -parallel 4 -metrics -queries q2,q6,q9 > "$MIXOUT"
grep -E 'npdbench_exec_parallel_tasks_total [1-9]' "$MIXOUT" > /dev/null || {
    echo "parallel smoke: no parallel tasks in metric exposition" >&2
    cat "$MIXOUT" >&2
    exit 1
}
grep -E 'npdbench_exec_parallel_union_arms_total [1-9]' "$MIXOUT" > /dev/null || {
    echo "parallel smoke: no parallel union arms in metric exposition" >&2
    cat "$MIXOUT" >&2
    exit 1
}

# Serving-telemetry smoke: a mix with the slow log and a 0s slow threshold
# must capture executions, and the exposition must carry the runtime-metrics
# family (goroutines can never be zero in a live process) plus the usage
# accounting counters.
"$BIN/mixer" -breakdown -scales 1 -seedscale 0.15 -runs 1 -warmup 0 \
    -triples=false -clients 1 -queries q2,q3 -slowlog 4 -slowthreshold 1us \
    -metrics > "$MIXOUT"
grep -E 'slow log: [1-9][0-9]* of' "$MIXOUT" > /dev/null || {
    echo "telemetry smoke: slow log captured nothing" >&2
    cat "$MIXOUT" >&2
    exit 1
}
grep -E 'npdbench_runtime_goroutines [1-9]' "$MIXOUT" > /dev/null || {
    echo "telemetry smoke: runtime-metrics family missing or zero" >&2
    cat "$MIXOUT" >&2
    exit 1
}
grep -E 'npdbench_usage_rows_scanned_total [1-9]' "$MIXOUT" > /dev/null || {
    echo "telemetry smoke: usage accounting counters missing" >&2
    cat "$MIXOUT" >&2
    exit 1
}

# The slow-query log as served over HTTP: obdaq -slowlog prints the same
# JSON document /debug/slowlog serves; it must contain a captured entry
# with a trace id.
"$BIN/obdaq" -q q2 -seedscale 0.15 -slowlog 2 -slowthreshold 1us \
    -rows 0 > "$MIXOUT"
grep -q '"trace_id"' "$MIXOUT" || {
    echo "telemetry smoke: obdaq slow log has no captured entry" >&2
    cat "$MIXOUT" >&2
    exit 1
}

# The benchmark (bench/README.md): one short real pass must answer every
# query correctly, and the differ must flag the regression planted in the
# committed results.json fixture pair (exit 1) and pass a self-diff (exit 0).
go run ./bench --workload mix_cold --seed 1 --seconds 2 --trace 0 | tee "$MIXOUT"
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
# completely differently with GOMAXPROCS=1, and results (parallel vs
# sequential, batched vs row-at-a-time) must still be bit-identical.
GOMAXPROCS=1 go test -run 'TestParallelSequentialIdentical|TestBatchRowIdentical' .

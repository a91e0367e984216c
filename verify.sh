#!/bin/sh
# Repo verification gate: formatting, static checks, build, tests, ten
# seconds each of parser and cost-file fuzzing, the benchmark on mini
# inputs, and a traced ciexp run. Every ciexp gate's quick run (chaos,
# soak, quantum, sanitize, interleave, fleet and the rest) is a golden
# that `go test` checks: cmd/ciexp TestOutputGolden.
# Run from the repo root; exits non-zero on the first failure, and
# fails if anything it started is still running when it ends.
set -eu
cd "$(dirname "$0")"

# leftovers lists the live processes a stage could have started, and a
# `go tool pprof -http` server left serving, by executable name (pid,
# state, elapsed, name). Not `pgrep -f`: its pattern also matches the
# command line of the shell that runs it. A zombie is dead and only
# waits for init to reap it, so it is not one.
leftovers() {
    ps -eo pid,stat,etime,comm | awk '$2 !~ /^Z/' |
        grep -E ' (go|compile|link|vet|pprof|ciexp|cirun|benchmark[^ ]*|[^ ]+\.test)$' || true
}
# Whatever of that kind already runs belongs to someone else.
foreign=" $(leftovers | awk '{printf "%s ", $1}')"

# On every way out, a process that outlived its stage fails the gate.
check_leftovers() {
    status=$?
    trap - EXIT
    ours=$(leftovers | while read -r pid rest; do
        case "$foreign" in *" $pid "*) ;; *) echo "$pid $rest" ;; esac
    done)
    if [ -n "$ours" ]; then
        echo "verify: processes outlived their stage:" >&2
        echo "$ours" >&2
        exit 1
    fi
    exit "$status"
}
trap check_leftovers EXIT

# stage NAME LIMIT cmd...: one stage of the gate under a time limit in
# seconds. coreutils timeout makes the stage its own process group and
# signals the whole group (TERM at the limit, KILL five seconds later),
# so the binary under `go run`, the race-test binaries and the fuzz
# workers die with their stage. A stage that has to be stopped fails.
# The stage runs as a job the script waits for, so that a signal to the
# script is handled at once (stop_stage) and not after the stage.
stage_pid=
stage() {
    name=$1
    limit=$2
    shift 2
    echo "== $name =="
    timeout -k 5 "$limit" "$@" &
    stage_pid=$!
    wait "$stage_pid"
    stage_pid=
}

# A script that is told to stop takes its running stage with it:
# timeout hands the TERM on to the stage's whole group.
stop_stage() {
    if [ -n "$stage_pid" ]; then
        kill -TERM "$stage_pid" 2>/dev/null || true
        wait "$stage_pid" 2>/dev/null || true
    fi
    exit 143
}
trap stop_stage INT TERM HUP

stage "gofmt" 120 sh -c '
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        exit 1
    fi'

stage "go vet" 600 go vet ./...

stage "go build" 600 go build ./...

stage "go test" 900 go test ./...

# The race gate keeps the parallel experiment engine honest: every
# sweep shards cells across workers sharing memoized modules and
# read-only baselines, so the whole suite must stay race-clean.
stage "go test -race" 2400 go test -race ./...

# The IR text boundary under the native fuzzer for a fixed ten seconds:
# no panic, and whatever parses must verify, print and reparse to the
# same text. A failing input lands in internal/ir/testdata/fuzz/ and
# fails every later `go test` until it is fixed and committed.
stage "parser fuzz" 300 go test ./internal/ir -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s

# The cost-file boundary (§2.6) under the same fuzzer: an imported cost
# file is rejected, or it round-trips through ExportCosts and a module
# importing every function it names compiles without a panic. A failing
# input lands in internal/ci/analysis/testdata/fuzz/.
stage "cost-file fuzz" 300 go test ./internal/ci/analysis -run '^$' -fuzz '^FuzzImportCosts$' -fuzztime 10s

# The repository benchmark on its smallest inputs: all four workloads,
# scored runs only, every operation checked (see benchmark/README.md).
# It says that the benchmark still builds and verifies, not how fast
# anything is.
stage "benchmark smoke" 600 go run ./benchmark -size mini -trace 0 -seconds 2

# Observability end-to-end: a figure run with -trace must emit a
# well-formed Chrome trace_event JSON (validated in Go; no jq needed).
trace_tmp="${TMPDIR:-/tmp}/ciexp-trace-smoke.json"
stage "trace smoke" 600 sh -c '
    go run ./cmd/ciexp -quick -trace "$1" -metrics fig10 > /dev/null &&
        go run ./cmd/ciexp tracecheck "$1"' sh "$trace_tmp"
rm -f "$trace_tmp"

echo "verify: OK"

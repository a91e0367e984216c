#!/bin/sh
# Repo verification gate: formatting, static checks, build, tests, ten
# seconds of parser fuzzing, the benchmark on mini inputs, and the
# quick smoke runs of every ciexp gate.
# Run from the repo root; exits non-zero on the first failure.
set -eu
cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race =="
# The race gate keeps the parallel experiment engine honest: every
# sweep shards cells across workers sharing memoized modules and
# read-only baselines, so the whole suite must stay race-clean.
go test -race ./...

echo "== parser fuzz =="
# The IR text boundary under the native fuzzer for a fixed ten seconds,
# in the foreground: no panic, and whatever parses must verify, print
# and reparse to the same text. A failing input lands in
# internal/ir/testdata/fuzz/ and fails every later `go test` until it is
# fixed and committed.
go test ./internal/ir -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s

echo "== benchmark smoke =="
# The repository benchmark on its smallest inputs: all four workloads,
# scored runs only, every operation checked (see benchmark/README.md).
# It says that the benchmark still builds and verifies, not how fast
# anything is.
go run ./benchmark -size mini -trace 0 -seconds 2

echo "== chaos smoke =="
go run ./cmd/ciexp -quick chaos

echo "== soak smoke =="
# Overload plane end-to-end: saturation and 2x-overload phases with
# chaos composed in must hold the SLO guard (-slo-p999us/-max-reject
# defaults); ciexp exits non-zero on any violated phase.
go run ./cmd/ciexp -quick soak

echo "== fleet smoke =="
# Fleet resilience end-to-end: a small cluster at the 1.2x soak load
# with replica 0 crashing mid-run; the conservation oracle, the
# resilience guards (goodput floor, retry amplification, tenant SLO)
# and the serial-vs-workers byte-identity check all run inside, plus
# the zone-outage headline (fixed 8-replica/4-zone shape); ciexp exits
# non-zero on any violation.
go run ./cmd/ciexp -quick -replicas 4 fleet

echo "== zone-outage smoke =="
# Correlated-outage end-to-end through the flag plumbing: the crash
# soak itself runs with replicas spread across 2 failure domains and
# migration on (queued work drains off crashed/ejected replicas and
# re-routes), so the extended oracle identities — migration
# disposition, served-once, zero stranded attempts — and the
# worker-count byte-identity check all see a migrating fleet; the
# 1-of-4-zone outage headline gates goodput at the 90% floor and
# retry amplification at 1.15.
go run ./cmd/ciexp -quick -zones 2 -migrate fleet

echo "== sanitize smoke =="
# Translation validation end-to-end: stage-by-stage semantic checks and
# the differential execution oracle over a fuzz corpus + all workloads.
go run ./cmd/ciexp -quick sanitize

echo "== tier smoke =="
# Tier differential end-to-end: the same sanitize sweep with the
# compiled tier selected additionally runs every corpus program under
# both tiers and cross-checks store streams, returns, final memory,
# fire counts, and exact Stats parity (the tier oracle). The -race
# suite above already covers the compiled tier's deopt path via the
# tier-parameterized VM conformance tests.
go run ./cmd/ciexp -quick -tier=compiled sanitize

echo "== quantum smoke =="
# Quantum adaptivity end-to-end: the handler-gap figure across interval
# policies (fixed/AIMD/feedback) and all four designs on the quick
# workload subset; ciexp exits non-zero when the feedback controller
# stops beating the fixed quantum or the CI rows leave the overhead
# budget.
go run ./cmd/ciexp -quick quantum

echo "== interleave smoke =="
# Handler interleaving verifier end-to-end: context-bound-1 exploration
# over the three app sharing-protocol models and a fuzz corpus with
# generated handlers; ciexp exits non-zero on an unclassified race or a
# non-commutative schedule.
go run ./cmd/ciexp -quick interleave

echo "== trace smoke =="
# Observability end-to-end: a figure run with -trace must emit a
# well-formed Chrome trace_event JSON (validated in Go; no jq needed).
trace_tmp="${TMPDIR:-/tmp}/ciexp-trace-smoke.json"
go run ./cmd/ciexp -quick -trace "$trace_tmp" -metrics fig10 > /dev/null
go run ./cmd/ciexp tracecheck "$trace_tmp"
rm -f "$trace_tmp"

echo "verify: OK"

#!/bin/sh
# Repository check gate: static checks, the full test suite, and the
# race-detector pass over the parallel experiment harness.
#
#   scripts/check.sh          # everything below
#
# Intended to be the single command CI runs.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== obsguard (obs zero-cost nil-guard invariant) =="
go run ./tools/analyzers/cmd/obsguard internal/pin internal/cpu internal/kernel internal/core internal/artifact internal/jit internal/telemetry

echo "== detguard (engine determinism: map ranges, time.Now, math/rand) =="
go run ./tools/analyzers/cmd/detguard internal/cpu internal/mem internal/pin internal/jit internal/core internal/sa

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race (concurrent engine packages + harness) =="
go test -race ./internal/kernel/... ./internal/core/... ./internal/jit/... \
    ./internal/mem/... ./internal/bench/... ./internal/obs/... ./internal/artifact/... \
    ./internal/telemetry/... ./internal/sa/...

echo "== benchmarks compile and run once =="
go test -run='^$' -bench=. -benchtime=1x ./...

# Differential matrix: one step per preset (see EXPERIMENTS.md,
# "Differential matrix"). A failure prints the first divergence.
echo "== observability smoke (trace invariants) =="
go run ./cmd/spbench -exp obssmoke -scale 0.02 -benchmarks gzip,mgrid

echo "== dispatch fast-path differential (fast vs -nofastpath) =="
go run ./cmd/spbench -exp fastpathdiff -scale 0.02 -benchmarks gzip,mgrid

echo "== profiler differential (serial vs SuperPin merged profiles) =="
go run ./cmd/spbench -exp profdiff -scale 0.02 -benchmarks gzip,mgrid

echo "== static-analysis differential (analysis on vs -nosa) =="
go run ./cmd/spbench -exp sadiff -scale 0.02 -benchmarks gzip,mgrid

echo "== host-parallelism differential (serial vs 1/2/4/8 workers, telemetry on) =="
go run ./cmd/spbench -exp pardiff -scale 0.02 -benchmarks gzip,mgrid -serve 127.0.0.1:0

echo "== hot-tier differential (second-tier trace compiler vs -nohottier, telemetry on) =="
go run ./cmd/spbench -exp jitdiff -scale 0.02 -benchmarks gzip,mgrid -serve 127.0.0.1:0

echo "== artifact-cache differential (cold vs warm vs disk-warm, telemetry on) =="
go run ./cmd/spbench -exp cachediff -scale 0.02 -benchmarks gzip,mgrid -serve 127.0.0.1:0

echo "== live telemetry smoke (mid-run /healthz /metrics /status /trace) =="
go run ./tools/cmd/telsmoke -- \
    go run ./cmd/spbench -exp fig3 -scale 1 -benchmarks gzip,gcc,mgrid -serve 127.0.0.1:0

echo "== serial guest-MIPS gate (fig3 vs BENCH_9) =="
# The fresh artifact goes to a temporary file: the committed results/
# artifacts are records of earlier runs, not outputs of this gate.
host_json=$(mktemp)
trap 'rm -f "$host_json"' EXIT
go run ./cmd/spbench -exp fig3 -scale 0.1 -j 1 -scaling 1,2,4,8 -warmstart \
    -serve 127.0.0.1:0 -hostjson "$host_json"
scripts/benchdiff.sh -gate -pct 80 results/BENCH_9.json "$host_json"

echo "ok"

#!/bin/sh
# bench.sh — run the repo benchmark set and record a JSON summary.
#
# Usage: scripts/bench.sh [output.json]
#
# Three passes feed one JSON file:
#
#   1. The comparison pass: the hot-path micro-benchmarks (render,
#      checkpoint encode, fault hooks, no-consumer stage dispatch, the
#      telemetry bus's no-consumer and fan-out emit paths),
#      the greenvizd service-layer benchmarks, the campaign engine's
#      sweep expansion and report aggregation over a 256-point spec,
#      and the result-store pass (warm-hit read+CRC-verify latency vs.
#      the cold durable write path, plus steady-state LRU eviction
#      throughput), at the
#      default GOMAXPROCS with a time-based benchtime so the numbers
#      are steady-state. Each benchmark runs COUNT (default 3) times and
#      the minimum ns/op is recorded — min-of-N is far more stable
#      than a single sample against scheduler noise, which is what
#      makes bench_compare's 10% gate usable. Names are recorded bare
#      (no -N suffix) so they stay comparable across BENCH_*.json
#      generations.
#   1b. The suite pass: the serial-vs-parallel full-suite pair and
#      BenchmarkTable3 (fio at the shipped 4 GiB), one iteration each
#      (the pair runs the whole 24-experiment registry at the shipped
#      config: ~31–36 s serial, ~16–19 s parallel on a 2-vCPU Xeon).
#   2. The kernel scaling pass: the real-arithmetic kernels (the
#      serial heat/ocean BenchmarkStep128, the par-engine viz
#      BenchmarkRender512 and BenchmarkCheckpointEncode, and par
#      BenchmarkFor) at -cpu 1,2,4, also min-of-COUNT. Names are
#      recorded as pkg/Benchmark-N so the per-worker-count scaling is
#      explicit. On a single-core host the -cpu 2/4 rows measure
#      oversubscription, not scaling — the recorded "cores" field says
#      whether scaling was measurable, and bench_compare treats the
#      suffixed rows as informational.
#
# Host details (cores, GOMAXPROCS) are recorded so single-core runs
# are not mistaken for regressions.
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_pr14.json}"
raw="$(mktemp)"
rawk="$(mktemp)"
trap 'rm -f "$raw" "$rawk"' EXIT

go test -run '^$' \
    -bench '^(BenchmarkRender|BenchmarkCheckpointEncode|BenchmarkHooksDisabled|BenchmarkHooksEnabled|BenchmarkDoNoConsumer|BenchmarkTelemetryNoConsumer|BenchmarkTelemetryFanout|BenchmarkServiceThroughput|BenchmarkSubmitDedup|BenchmarkSpecDigest|BenchmarkStoreGetHit|BenchmarkStorePutCold|BenchmarkStoreEvict|BenchmarkCampaignExpand|BenchmarkCampaignAggregate)$' \
    -benchmem -benchtime "${BENCHTIME:-1s}" -count "${COUNT:-3}" \
    . ./internal/fault ./internal/core/stagegraph ./internal/telemetry ./internal/service ./internal/resultstore ./internal/campaign | tee "$raw"

go test -run '^$' \
    -bench '^(BenchmarkSuiteAllSerial|BenchmarkSuiteAllParallel|BenchmarkTable3)$' \
    -benchmem -benchtime "${SUITE_BENCHTIME:-1x}" -count "${SUITE_COUNT:-1}" \
    . | tee -a "$raw"

go test -run '^$' \
    -bench '^(BenchmarkStep128|BenchmarkRender512|BenchmarkCheckpointEncode|BenchmarkFor)$' \
    -benchmem -benchtime "${KERNEL_BENCHTIME:-1s}" -count "${COUNT:-3}" \
    -cpu 1,2,4 \
    ./internal/heat ./internal/ocean ./internal/viz ./internal/checkpoint ./internal/par | tee "$rawk"

awk -v ncpu="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)" '
BEGIN { n = 0; kernel = 0 }
FNR == 1 { kernel = (FILENAME == ARGV[2]) }
/^pkg:/ { pkg = $2; sub(/^.*\//, "", pkg) }
/^cpu:/ { $1 = ""; sub(/^ /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    if (kernel) { name = pkg "/" name } else { sub(/-[0-9]+$/, "", name) }
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")     ns = $(i-1)
        if ($(i) == "B/op")      bytes = $(i-1)
        if ($(i) == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    # -count N repeats each benchmark; keep the fastest run (min ns/op).
    if (name in best && best[name] <= ns + 0) next
    if (!(name in best)) order[n++] = name
    best[name] = ns + 0
    line = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns)
    if (bytes != "")  line = line sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
    line = line "}"
    lines[name] = line
}
END {
    print "{"
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"cores\": %s,\n", (ncpu == "" ? 0 : ncpu)
    print "  \"benchmarks\": ["
    for (i = 0; i < n; i++) printf "%s%s\n", lines[order[i]], (i < n-1 ? "," : "")
    print "  ]"
    print "}"
}' "$raw" "$rawk" > "$out"

echo "wrote $out"

#!/bin/sh
# Benchmarks the streaming and sharded engines and writes JSON records at
# the repo root:
#
#   BENCH_stream.json       — the streaming-engine record: sustained
#                             events/sec under coalescing backpressure and
#                             p50/p99 per-event update latency (stepped,
#                             with re-election), against the from-scratch
#                             canonical-schedule cost per poll
#   BENCH_sharded.json      — the spatial-shard-engine record: end-to-end
#                             wall-clock over an n × shard-count grid
#                             (min-of-reps per point) plus one headline
#                             deployment at SHARD_NODES interior nodes
#                             (default 100000; SHARD_NODES=1000000 for the
#                             full million-node run)
#
# Figure 3 timing lives in perfbench (workload fig3-dense), which measures
# every end-to-end metric against a fixed parent checkout instead of a
# committed baseline. Output is byte-identical across worker counts (the
# engine's determinism contract; see DESIGN.md §9) — only wall-clock
# changes. Usage:
#
#   scripts/bench.sh [runs] [nodes]
#
# Defaults: runs=16, nodes=150 (quick preset scale).
set -e
cd "$(dirname "$0")/.."

RUNS=${1:-16}
NODES=${2:-150}
WORKERS=${WORKERS:-4}
CPUS=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

go build -o /tmp/dccsim.bench ./cmd/dccsim

echo "== bench: streaming replay, nodes=$NODES"
STREAM_LINE=$(/tmp/dccsim.bench -fig streaming -runs 2 -nodes "$NODES" -workers "$WORKERS" \
    | awk '/\[stream-bench\]/ { print }')
stream_field() {
    printf '%s\n' "$STREAM_LINE" | tr ' ' '\n' | awk -F= -v k="$1" '$1 == k { print $2 }'
}
EPS=$(stream_field events_per_sec)
P50US=$(stream_field p50_event_us)
P99US=$(stream_field p99_event_us)
BATCHUS=$(stream_field batch_schedule_us)
EVENTS=$(stream_field events)
echo "   sustained:        ${EPS} events/sec"
echo "   p99 update:       ${P99US}us (from-scratch schedule: ${BATCHUS}us)"
cat > BENCH_stream.json <<EOF
{
  "bench": "streaming-replay",
  "nodes": $NODES,
  "events": $EVENTS,
  "cpus": $CPUS,
  "events_per_sec": $EPS,
  "p50_event_us": $P50US,
  "p99_event_us": $P99US,
  "from_scratch_schedule_us": $BATCHUS
}
EOF
echo "== wrote BENCH_stream.json"

echo "== bench: spatial shard engine, SHARD_NODES=${SHARD_NODES:-100000}"
SHARD_NODES=${SHARD_NODES:-100000}
SHARD_OUT=$(/tmp/dccsim.bench -fig sharded -runs 2 -nodes "$NODES" \
    -shardnodes "$SHARD_NODES" -workers "$WORKERS")
# Each [shard-bench] line is one curve point; the [shard-headline] line is
# the scale demonstration. Both are k=v word lists — turn them into JSON.
shard_json() {
    printf '%s\n' "$SHARD_OUT" | awk -v tag="$1" '
        index($0, tag) {
            sep = ""
            printf "      { "
            for (i = 1; i <= NF; i++) {
                if (split($i, kv, "=") != 2) continue
                printf "%s\"%s\": %s", sep, kv[1], kv[2]
                sep = ", "
            }
            printf " }%s\n", (tag == "[shard-bench]" ? "," : "")
        }' | sed '$ s/,$//'
}
CURVE=$(shard_json "[shard-bench]")
HEADLINE=$(shard_json "[shard-headline]")
HEAD_SEC=$(printf '%s\n' "$SHARD_OUT" | awk '/\[shard-headline\]/ { for (i=1;i<=NF;i++) if (split($i,kv,"=")==2 && kv[1]=="seconds") print kv[2] }')
echo "   headline:         ${HEAD_SEC}s end-to-end"
cat > BENCH_sharded.json <<EOF
{
  "bench": "sharded-scaling",
  "cpus": $CPUS,
  "reps": 2,
  "tau": 4,
  "curve": [
$CURVE
  ],
  "headline":
$HEADLINE
}
EOF
echo "== wrote BENCH_sharded.json"

# Merge the per-figure records into one schema-versioned artifact
# with run metadata (the file dashboards should consume; the per-figure
# files stay for diffing). No jq on the build image, so the embed is
# plain concatenation — each BENCH_*.json is already one JSON object.
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
STAMP=$(date -u +%Y-%m-%dT%H:%M:%SZ)
{
    printf '{\n  "schema": "dcc-bench-v1",\n'
    printf '  "metadata": {\n'
    printf '    "generated_at": "%s",\n' "$STAMP"
    printf '    "commit": "%s",\n' "$COMMIT"
    printf '    "go": "%s",\n' "$(go env GOVERSION)"
    printf '    "platform": "%s/%s",\n' "$(go env GOOS)" "$(go env GOARCH)"
    printf '    "cpus": %s,\n' "$CPUS"
    printf '    "runs": %s,\n    "nodes": %s,\n    "workers": %s\n  },\n' "$RUNS" "$NODES" "$WORKERS"
    printf '  "benches": {\n    "stream": '
    cat BENCH_stream.json
    printf ',\n    "sharded": '
    cat BENCH_sharded.json
    printf '  }\n}\n'
} > BENCH_all.json
echo "== wrote BENCH_all.json"

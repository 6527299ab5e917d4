#!/usr/bin/env bash
# bench_gate.sh — performance gates for the broker's hot paths.
#
# Usage: scripts/bench_gate.sh [benchtime] [ratio-budget] [dedup-budget]
#
# Every gate compares two readings of the same run on the same machine, or a
# latency against a loose absolute budget; throughput against a recorded
# baseline is benchmark/'s job, so there is no gate 1 (DESIGN.md and README
# cite the others by number).
#
# Gate 2 (durability-cost ratio): runs the pipelined durable loopback
# benchmark under fsync=always and fsync=interval and fails if always is
# more than RATIO_BUDGET times slower. Group commit is what holds this
# ratio down (it was ~16x with one fsync per publish); the gate is relative
# to the same machine and run, so it is robust to slow CI disks.
#
# Gate 3 (WAL append batching ratio): same ratio check one layer down, on
# BenchmarkWALAppendBatched's concurrent appenders, pinning the group-commit
# mechanism itself independent of the network stack.
#
# Gate 4 (workload deduplication ratio): runs BenchmarkZipfianCompaction
# and fails if one Consolidated() of the deduplicated workload (~1k machine
# queries) is not at least DEDUP_BUDGET (3rd arg, default 3) times cheaper
# than one of the naive one-query-per-subscription workload (50k). Until
# WithQueries merged tail layers the gate compared filtering speed (50k
# layers against 1k, >= 5x); the two now filter alike, and what dedup buys
# is the cost of everything proportional to the number of compiled queries.
#
# Gate 5 (open-loop delivery latency): runs the xpushload smoke scenario
# against a real broker (or reuses a report at $XPUSHLOAD_SMOKE_JSON, e.g.
# the one scripts/load_smoke.sh just wrote in CI) and fails if the steady
# phase's coordinated-omission-safe delivery p99 exceeds
# $LOAD_P99_BUDGET_US microseconds (default 500000 — loose, because shared
# CI runners stall; locally ~10000 is realistic).
#
# Gate 6 (gated delivery latency): same check through a 2-node cluster
# behind xpushgate (or a report at $XPUSHGATE_SMOKE_JSON, e.g. the one
# scripts/cluster_smoke.sh just wrote in CI), against
# $GATE_P99_BUDGET_US microseconds (default 750000 — the ingress hop and
# fan-out merge cost something, but not an order of magnitude).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-2s}"
RATIO_BUDGET="${2:-4}"

# Gate 2: pipelined durable loopback, fsync=always within RATIO_BUDGET of
# fsync=interval.
dur=$(go test -run=NONE -bench='BenchmarkServeDurableLoopbackPipelined/fsync=(always|interval)$' \
  -benchtime="$BENCHTIME" ./server/)
echo "$dur"
always=$(echo "$dur" | awk '/fsync=always/ { for (i = 1; i < NF; i++) if ($(i+1) == "docs/sec") print $i }' | tail -1)
interval=$(echo "$dur" | awk '/fsync=interval/ { for (i = 1; i < NF; i++) if ($(i+1) == "docs/sec") print $i }' | tail -1)
if [ -z "$always" ] || [ -z "$interval" ]; then
  echo "bench_gate: durable pipelined benchmark produced no docs/sec metric" >&2
  exit 2
fi
awk -v a="$always" -v i="$interval" -v budget="$RATIO_BUDGET" 'BEGIN {
  ratio = i / a
  printf "bench_gate: durable pipelined fsync=interval %.0f docs/sec, fsync=always %.0f (%.2fx slower, budget %sx)\n",
    i, a, ratio, budget
  if (ratio > budget) {
    print "bench_gate: FAIL — fsync=always durable throughput fell out of budget vs interval (group commit regressed?)" > "/dev/stderr"
    exit 1
  }
  print "bench_gate: OK"
}'

# Gate 3: concurrent WAL appends, fsync=always within RATIO_BUDGET of
# fsync=interval (MB/s; same doc size, so ratio is ratio).
walout=$(go test -run=NONE -bench='BenchmarkWALAppendBatched' -benchtime="$BENCHTIME" ./wal/)
echo "$walout"
walways=$(echo "$walout" | awk '/WALAppendBatched\/always/ { for (i = 1; i < NF; i++) if ($(i+1) == "MB/s") print $i }' | tail -1)
winterval=$(echo "$walout" | awk '/WALAppendBatched\/interval/ { for (i = 1; i < NF; i++) if ($(i+1) == "MB/s") print $i }' | tail -1)
if [ -z "$walways" ] || [ -z "$winterval" ]; then
  echo "bench_gate: WAL batched benchmark produced no MB/s metric" >&2
  exit 2
fi
awk -v a="$walways" -v i="$winterval" -v budget="$RATIO_BUDGET" 'BEGIN {
  ratio = i / a
  printf "bench_gate: wal batched append fsync=interval %.1f MB/s, fsync=always %.1f (%.2fx slower, budget %sx)\n",
    i, a, ratio, budget
  if (ratio > budget) {
    print "bench_gate: FAIL — group-committed fsync=always append fell out of budget vs interval" > "/dev/stderr"
    exit 1
  }
  print "bench_gate: OK"
}'

# Gate 4 (workload deduplication ratio): 50k zipfian subscriptions over 1k
# distinct filters, the recompile a background compaction (or a cold boot)
# runs on the deduplicated workload vs on one machine query per
# subscription. Measured 5.7-9x on the 2-vCPU dev VM (naive 180-250 ms,
# dedup 28-32 ms; a ~25 ms share of both is the value index over the same
# 1k constants, which is why it is not the 50x sharing factor), so 3x leaves
# noise headroom while still catching a dedup layer that silently stops
# coalescing (ratio 1).
DEDUP_BUDGET="${3:-3}"
zipf=$(go test -run=NONE -bench='BenchmarkZipfianCompaction/(naive|dedup)$' -benchtime=1s -count=3 .)
echo "$zipf"
zn=$(echo "$zipf" | awk '/ZipfianCompaction\/naive/ { for (i = 1; i < NF; i++) if ($(i+1) == "ms/compaction" && (m == "" || $i < m)) m = $i } END { print m }')
zd=$(echo "$zipf" | awk '/ZipfianCompaction\/dedup/ { for (i = 1; i < NF; i++) if ($(i+1) == "ms/compaction" && (m == "" || $i < m)) m = $i } END { print m }')
if [ -z "$zn" ] || [ -z "$zd" ]; then
  echo "bench_gate: zipfian compaction benchmark produced no ms/compaction metric" >&2
  exit 2
fi
awk -v n="$zn" -v d="$zd" -v budget="$DEDUP_BUDGET" 'BEGIN {
  ratio = n / d
  printf "bench_gate: zipfian 50k-subscriber workload, one compaction: naive %.1f ms, deduped %.1f ms (best of 3; %.1fx cheaper, budget %sx)\n",
    n, d, ratio, budget
  if (ratio < budget) {
    print "bench_gate: FAIL — workload deduplication no longer pays for itself on the zipfian workload" > "/dev/stderr"
    exit 1
  }
  print "bench_gate: OK"
}'

# Gate 5 (open-loop delivery latency): steady-phase delivery p99 from the
# xpushload smoke scenario, measured from intended starts (coordinated-
# omission safe), against an absolute budget.
LOAD_P99_BUDGET_US="${LOAD_P99_BUDGET_US:-500000}"
SMOKE_JSON="${XPUSHLOAD_SMOKE_JSON:-}"
if [ -z "$SMOKE_JSON" ] || [ ! -f "$SMOKE_JSON" ]; then
  SMOKE_JSON=$(mktemp /tmp/xpushload_smoke.XXXXXX.json)
  scripts/load_smoke.sh "$SMOKE_JSON"
fi
p99=$(awk '
  /"name": "xpushload\/smoke\/steady"/ { found = 1 }
  found && /"delivery_p99_us"/ { gsub(/[^0-9.]/, "", $2); print $2; exit }
' "$SMOKE_JSON")
if [ -z "$p99" ]; then
  echo "bench_gate: no steady-phase delivery_p99_us in $SMOKE_JSON" >&2
  exit 2
fi
awk -v p="$p99" -v budget="$LOAD_P99_BUDGET_US" 'BEGIN {
  printf "bench_gate: open-loop steady delivery p99 %.0fus, budget %sus\n", p, budget
  if (p > budget + 0) {
    print "bench_gate: FAIL — open-loop delivery p99 blew the latency budget" > "/dev/stderr"
    exit 1
  }
  print "bench_gate: OK"
}'

# Gate 6 (gated delivery latency): steady-phase delivery p99 of the same
# smoke scenario run through xpushgate in front of a 2-node cluster.
GATE_P99_BUDGET_US="${GATE_P99_BUDGET_US:-750000}"
GATE_JSON="${XPUSHGATE_SMOKE_JSON:-}"
if [ -z "$GATE_JSON" ] || [ ! -f "$GATE_JSON" ]; then
  GATE_JSON=$(mktemp /tmp/xpushgate_smoke.XXXXXX.json)
  scripts/cluster_smoke.sh "$GATE_JSON"
fi
gp99=$(awk '
  /"name": "xpushload\/smoke\/steady"/ { found = 1 }
  found && /"delivery_p99_us"/ { gsub(/[^0-9.]/, "", $2); print $2; exit }
' "$GATE_JSON")
if [ -z "$gp99" ]; then
  echo "bench_gate: no steady-phase delivery_p99_us in $GATE_JSON" >&2
  exit 2
fi
awk -v p="$gp99" -v budget="$GATE_P99_BUDGET_US" 'BEGIN {
  printf "bench_gate: gated 2-node steady delivery p99 %.0fus, budget %sus\n", p, budget
  if (p > budget + 0) {
    print "bench_gate: FAIL — delivery p99 through xpushgate blew the latency budget" > "/dev/stderr"
    exit 1
  }
  print "bench_gate: OK"
}'

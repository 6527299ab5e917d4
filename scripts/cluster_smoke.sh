#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end cluster smoke: boot two WAL-backed
# xpushserve nodes and an xpushgate in front of them, drive
# workloads/smoke.props through the gate (zipfian popularity, 20% durable,
# churn + reconnect-storm phase, ~8s), and assert the run finished with
# zero errors and non-zero deliveries, that both nodes served publishes,
# and that both hold the same subscriptions.
#
# Usage: scripts/cluster_smoke.sh [json-out]
#
# The JSON report is left at json-out (default /tmp/xpushgate_smoke.json)
# for inspection.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-/tmp/xpushgate_smoke.json}"
BASE="${XPUSHGATE_PORT_BASE:-19420}"
GATE_PORT="$BASE"
N1_PORT=$((BASE + 1))
N2_PORT=$((BASE + 2))
METRICS_PORT=$((BASE + 3))
N1_METRICS=$((BASE + 4))
N2_METRICS=$((BASE + 5))
N1_DEBUG=$((BASE + 6))
N2_DEBUG=$((BASE + 7))
TMP=$(mktemp -d)
PIDS=()
trap 'for p in "${PIDS[@]}"; do kill "$p" 2>/dev/null || true; done; wait 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$TMP/" ./cmd/xpushserve ./cmd/xpushgate ./cmd/xpushload

# Nodes run with tracing sampled 1/1000 so the per-query cost profiler and
# the cross-hop trace plumbing are exercised under real load, not just in
# unit tests.
"$TMP/xpushserve" -addr "127.0.0.1:$N1_PORT" -metrics-addr "127.0.0.1:$N1_METRICS" \
  -debug-addr "127.0.0.1:$N1_DEBUG" -trace-sample 1000 -wal-dir "$TMP/wal1" >"$TMP/node1.log" 2>&1 &
PIDS+=($!)
"$TMP/xpushserve" -addr "127.0.0.1:$N2_PORT" -metrics-addr "127.0.0.1:$N2_METRICS" \
  -debug-addr "127.0.0.1:$N2_DEBUG" -trace-sample 1000 -wal-dir "$TMP/wal2" >"$TMP/node2.log" 2>&1 &
PIDS+=($!)
"$TMP/xpushgate" -addr "127.0.0.1:$GATE_PORT" -metrics-addr "127.0.0.1:$METRICS_PORT" \
  -nodes "127.0.0.1:$N1_PORT,127.0.0.1:$N2_PORT" \
  -node-debug "127.0.0.1:$N1_DEBUG,127.0.0.1:$N2_DEBUG" \
  -trace-sample 1000 >"$TMP/gate.log" 2>&1 &
PIDS+=($!)

# xpushload dials with retry/backoff, so no boot-wait is needed; a non-zero
# exit here means the run failed or a phase recorded errors.
if ! "$TMP/xpushload" -addr "127.0.0.1:$GATE_PORT" -workload workloads/smoke.props -json "$OUT"; then
  echo "cluster_smoke: xpushload through the gate failed; logs:" >&2
  tail -n 20 "$TMP/gate.log" "$TMP/node1.log" "$TMP/node2.log" >&2
  exit 1
fi

deliveries=$(awk -F: '/"deliveries"/ { gsub(/[^0-9]/, "", $2); s += $2 } END { print s + 0 }' "$OUT")
durable=$(awk -F: '/"durable_deliveries"/ { gsub(/[^0-9]/, "", $2); s += $2 } END { print s + 0 }' "$OUT")
churn=$(awk -F: '/"churn_ops"/ { gsub(/[^0-9]/, "", $2); s += $2 } END { print s + 0 }' "$OUT")
errors=$(awk -F: '/"errors"|"ack_errors"/ { gsub(/[^0-9]/, "", $2); s += $2 } END { print s + 0 }' "$OUT")
echo "cluster_smoke: $deliveries deliveries ($durable durable), $churn churn ops, $errors errors"
if [ "$errors" -ne 0 ]; then
  echo "cluster_smoke: FAIL — run recorded $errors errors" >&2
  tail -n 20 "$TMP/gate.log" >&2
  exit 1
fi
if [ "$deliveries" -eq 0 ]; then
  echo "cluster_smoke: FAIL — no deliveries measured through the gate" >&2
  exit 1
fi
if [ "$durable" -eq 0 ]; then
  echo "cluster_smoke: FAIL — no durable deliveries through the gate" >&2
  exit 1
fi
if [ "$churn" -eq 0 ]; then
  echo "cluster_smoke: FAIL — churn phase performed no subscription churn" >&2
  exit 1
fi

# The gate splits the documents: both nodes must have served publishes,
# visible in the gate's per-node ack-latency counters.
if command -v curl >/dev/null; then
  metrics=$(curl -fsS "http://127.0.0.1:$METRICS_PORT/metrics")
  for port in "$N1_PORT" "$N2_PORT"; do
    count=$(echo "$metrics" | awk -v n="node=\"127.0.0.1:$port\"" \
      '$0 ~ /^xpushgate_node_ack_latency_seconds_count/ && index($0, n) { print $2; exit }')
    if [ -z "${count:-}" ] || [ "$count" -eq 0 ]; then
      echo "cluster_smoke: FAIL — node 127.0.0.1:$port acked no publishes" >&2
      echo "$metrics" | grep '^xpushgate_' >&2
      exit 1
    fi
  done
  ups=$(echo "$metrics" | awk '/^xpushgate_node_up/ { s += $2 } END { print s + 0 }')
  if [ "$ups" -ne 2 ]; then
    echo "cluster_smoke: FAIL — expected 2 nodes up at end of run, got $ups" >&2
    exit 1
  fi
  echo "cluster_smoke: both nodes acked publishes, 2/2 up"

  # Observability assertions: the control-plane stall series and the
  # per-query cost profile must be populated on the gate and both nodes.
  # Presence checks match the always-emitted HELP/TYPE lines; families
  # that are per-connection (durable pumps) may have no samples at
  # scrape time once the load harness has disconnected.
  for want in xpushgate_subscribe_latency_seconds xpushgate_traces_started_total; do
    if ! echo "$metrics" | grep -q "$want"; then
      echo "cluster_smoke: FAIL — gate metrics missing $want" >&2
      echo "$metrics" | grep '^xpushgate_' >&2
      exit 1
    fi
  done
  node_subs=()
  for mport in "$N1_METRICS" "$N2_METRICS"; do
    nm=$(curl -fsS "http://127.0.0.1:$mport/metrics")
    for want in xpushserve_subscribe_latency_seconds xpushserve_consolidation_in_progress \
                xpush_query_filter_seconds_total xpush_durable_pump_docs_scanned_total; do
      if ! echo "$nm" | grep -q "$want"; then
        echo "cluster_smoke: FAIL — node :$mport metrics missing $want" >&2
        echo "$nm" | grep -E '^(xpushserve_|xpush_)' >&2
        exit 1
      fi
    done
    subs=$(echo "$nm" | awk '/^xpushserve_subscribe_latency_seconds_count/ { print $2; exit }')
    if [ -z "${subs:-}" ] || [ "$subs" -eq 0 ]; then
      echo "cluster_smoke: FAIL — node :$mport observed no subscribe round trips" >&2
      exit 1
    fi
    node_subs+=("$subs")
  done
  # Every subscription goes to every node, so with both nodes up for the
  # whole run they served the same subscribe round trips.
  if [ "${node_subs[0]}" -ne "${node_subs[1]}" ]; then
    echo "cluster_smoke: FAIL — nodes served ${node_subs[0]} and ${node_subs[1]} subscribes; each should hold every subscription" >&2
    exit 1
  fi
  echo "cluster_smoke: both nodes served ${node_subs[0]} subscribes"
  echo "cluster_smoke: stall + per-query series present on gate and both nodes"

  # One sampled publish is enough for the merged cross-hop trace to carry
  # node rows; with 1/1000 sampling the smoke's tens of thousands of
  # publishes guarantee several.
  merged=$(curl -fsS "http://127.0.0.1:$METRICS_PORT/debug/cluster/traces")
  if ! echo "$merged" | grep -q '"gate_publish"'; then
    echo "cluster_smoke: FAIL — merged cluster trace has no gate_publish root" >&2
    exit 1
  fi
  if ! echo "$merged" | grep -q 'deliver_write\|filter'; then
    echo "cluster_smoke: FAIL — merged cluster trace carries no node-side spans" >&2
    exit 1
  fi
  echo "cluster_smoke: merged cross-hop trace has gate and node spans"
else
  echo "cluster_smoke: curl unavailable, skipping gate metrics assertions"
fi

scripts/metric_lint.sh
echo "cluster_smoke: OK ($OUT)"

#!/usr/bin/env bash
# load_smoke.sh — end-to-end load-harness smoke: boot a WAL-backed
# xpushserve on loopback, drive workloads/smoke.props through xpushload
# (zipfian popularity, 20% durable, churn + reconnect-storm phase, ~8s),
# and assert the run finished with zero errors and non-zero deliveries.
#
# Usage: scripts/load_smoke.sh [json-out]
#
# The JSON report is left at json-out (default /tmp/xpushload_smoke.json)
# for inspection.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-/tmp/xpushload_smoke.json}"
PORT="${XPUSHLOAD_PORT:-19410}"
TMP=$(mktemp -d)
SRV_PID=""
trap '[ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$TMP/xpushserve" ./cmd/xpushserve
go build -o "$TMP/xpushload" ./cmd/xpushload

"$TMP/xpushserve" -addr "127.0.0.1:$PORT" -wal-dir "$TMP/wal" >"$TMP/server.log" 2>&1 &
SRV_PID=$!

# xpushload dials with retry/backoff, so no boot-wait is needed; a non-zero
# exit here means the run failed or a phase recorded errors.
if ! "$TMP/xpushload" -addr "127.0.0.1:$PORT" -workload workloads/smoke.props -json "$OUT"; then
  echo "load_smoke: xpushload failed; server log:" >&2
  cat "$TMP/server.log" >&2
  exit 1
fi

deliveries=$(awk -F: '/"deliveries"/ { gsub(/[^0-9]/, "", $2); s += $2 } END { print s + 0 }' "$OUT")
churn=$(awk -F: '/"churn_ops"/ { gsub(/[^0-9]/, "", $2); s += $2 } END { print s + 0 }' "$OUT")
errors=$(awk -F: '/"errors"|"ack_errors"/ { gsub(/[^0-9]/, "", $2); s += $2 } END { print s + 0 }' "$OUT")
echo "load_smoke: $deliveries deliveries, $churn churn ops, $errors errors"
if [ "$errors" -ne 0 ]; then
  echo "load_smoke: FAIL — run recorded $errors errors" >&2
  exit 1
fi
if [ "$deliveries" -eq 0 ]; then
  echo "load_smoke: FAIL — no deliveries measured" >&2
  exit 1
fi
if [ "$churn" -eq 0 ]; then
  echo "load_smoke: FAIL — churn phase performed no subscription churn" >&2
  exit 1
fi
echo "load_smoke: OK ($OUT)"

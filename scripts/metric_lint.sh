#!/usr/bin/env bash
# metric_lint.sh — static lint of the metric namespace: every name
# registered on an obs.Registry must carry the xpush prefix
# (xpushserve_/xpushgate_/xpush_...), counters (labeled or not) must end
# in _total, gauges must not, anything measuring time (latency, duration)
# must end in _seconds, and no name ends in _histogram_seconds (a latency
# is exported once, as a summary). The names come from the registration
# calls under server, internal, cmd and client, and from the engine's
# RegisterMetrics in metrics.go. Run standalone or as the tail of
# cluster_smoke.sh; exits non-zero naming each violation.
set -euo pipefail
cd "$(dirname "$0")/.."

pairs=$(grep -rhoE '\.(Counter|CounterFunc|CounterVecFunc|Gauge|GaugeFunc|GaugeVecFunc|HistogramFunc|SummaryFunc|SummaryVecFunc)\("[a-zA-Z0-9_]+"' \
    --include='*.go' --exclude='*_test.go' server internal cmd client 2>/dev/null \
  | sed -E 's/^\.([A-Za-z]+)\("([^"]+)"/\1 \2/' | sort -u)
# The root package's RegisterMetrics builds its names as p+name (p is
# "xpush_" by default) through its counter and gauge helpers and one
# SummaryFunc, so its names are read from those calls.
engine=$(grep -hoE '(\<counter|\<gauge|\.SummaryFunc)\((p\+)?"[a-zA-Z0-9_]+"' metrics.go \
  | sed -E 's/^\.?([A-Za-z]+)\((p\+)?"([^"]+)"/\1 xpush_\3/; s/^counter /CounterFunc /; s/^gauge /GaugeFunc /' | sort -u)
pairs=$(printf '%s\n%s\n' "$pairs" "$engine" | sort -u)

fail=0
while read -r call name; do
  [ -z "$name" ] && continue
  case "$name" in
    # process_* is the conventional Prometheus process namespace the obs
    # package self-registers; everything else must be ours.
    xpush_*|xpushserve_*|xpushgate_*|xpushload_*|process_*) ;;
    *) echo "metric_lint: $name (via $call) lacks the xpush namespace prefix" >&2; fail=1 ;;
  esac
  case "$call" in
    Counter|CounterFunc|CounterVecFunc)
      case "$name" in
        *_total) ;;
        *) echo "metric_lint: counter $name must end in _total" >&2; fail=1 ;;
      esac ;;
    Gauge|GaugeFunc|GaugeVecFunc)
      case "$name" in
        *_total) echo "metric_lint: gauge $name must not end in _total" >&2; fail=1 ;;
      esac ;;
  esac
  case "$name" in
    *_histogram_seconds) echo "metric_lint: $name is a histogram twin; export the latency once, as a summary" >&2; fail=1 ;;
  esac
  case "$name" in
    *latency*|*duration*)
      case "$name" in
        *_seconds) ;;
        *) echo "metric_lint: $name measures time and must end in _seconds" >&2; fail=1 ;;
      esac ;;
  esac
done <<<"$pairs"

if [ "$fail" -ne 0 ]; then
  echo "metric_lint: FAIL" >&2
  exit 1
fi
echo "metric_lint: OK ($(echo "$pairs" | wc -l) registered series checked, $(echo "$engine" | wc -l) of them the engine's)"

#!/usr/bin/env bash
# Rebuilds everything and regenerates every figure/table of EXPERIMENTS.md.
# Usage: scripts/run_experiments.sh [build-dir]
set -euo pipefail
BUILD="${1:-build}"
cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"
ctest --test-dir "$BUILD" --output-on-failure
RESULTS="$BUILD/bench-results"
mkdir -p "$RESULTS"
for b in "$BUILD"/bench/*; do
  [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "=== $name ==="
  "$b" --benchmark_min_warmup_time=0 \
    --benchmark_out="$RESULTS/$name.json" --benchmark_out_format=json
done
# Serving metrics: a CLI serve run (fig11's engine, full request path) whose
# engine metrics JSON lands next to the benchmark outputs. The same run emits
# the observability artifacts — a Perfetto-loadable trace plus a Prometheus
# scrape — and both are validated before they are published.
"$BUILD"/examples/wknng_cli --synthetic clusters:20000:32 --k 10 --serve \
  --serve-requests 2000 --serve-metrics "$RESULTS/serving_metrics.json" \
  --trace-out "$RESULTS/build_serve_trace.json" \
  --metrics-out "$RESULTS/metrics.prom" --metrics-format prom
python3 scripts/validate_trace.py "$RESULTS/build_serve_trace.json" \
  --require-launches --require-serve
python3 scripts/lint_prom.py "$RESULTS/metrics.prom" \
  --require 'wknng_build_total_seconds' 'wknng_serve_enqueued_total' \
  'wknng_kernel_backend_info'
# Fig. 15 — the online SLO & quality plane end to end: a serve run with a
# tight latency objective, sampled recall audits, and the flight recorder on.
# A 1 us p99 objective sits below any achievable read, so every read
# breaches it: that guarantees promoted flight records and at least one
# burn-rate alert edge, so every gate below exercises a non-trivial artifact.
"$BUILD"/examples/wknng_cli --synthetic clusters:20000:32 --k 10 --serve \
  --serve-requests 2000 --slo 1:0.8 \
  --audit-fraction 0.25 \
  --flight-log "$RESULTS/flight.jsonl" --slo-report "$RESULTS/slo_report.json" \
  --trace-out "$RESULTS/slo_trace.json" \
  --metrics-out "$RESULTS/slo_metrics.prom" --metrics-format prom --sample 0
python3 scripts/validate_trace.py "$RESULTS/slo_trace.json" \
  --require-serve --require-flight "$RESULTS/flight.jsonl"
python3 scripts/slo_report.py "$RESULTS/slo_report.json" --min-recall 0.9
python3 scripts/lint_prom.py "$RESULTS/slo_metrics.prom" \
  --require 'wknng_slo_latency_p99_us' 'wknng_slo_recall_estimate' \
  'wknng_slo_latency_burn_fast' 'wknng_slo_alerts_total' \
  'wknng_slo_audit_fraction'

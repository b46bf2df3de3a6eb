#!/usr/bin/env bash
# The product pass: the definition of "what the product runs" that the
# reach report (tools/reach/report.py) gates on.  It drives every
# user-facing surface for real -- each CLI subcommand, the examples, the
# paper-claim checks, the perf ledger and live clusters of all four
# protocols -- with the recorder (tools/reach/sitecustomize.py) on
# PYTHONPATH.  A src/repro function none of this runs is "unreached".
#
#   REACH_DIR=/tmp/reach tools/reach/product.sh      # ~7 min on 2 vCPUs
#   REACH_DIR=/tmp/reach python tools/reach/report.py
#
# REACH_DIR must be empty or absent: the report unions every file in it.
# bench/'s own live nodes run without the recorder (bench/common.py sets
# their PYTHONPATH); the serve/load runs below cover the node code.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/../.." && pwd)"
: "${REACH_DIR:?set REACH_DIR to an empty output directory}"
mkdir -p "$REACH_DIR"
if [ -n "$(ls -A "$REACH_DIR")" ]; then
  echo "error: REACH_DIR=$REACH_DIR is not empty" >&2
  exit 2
fi
REACH_DIR="$(cd "$REACH_DIR" && pwd)"
export REACH_DIR
export PYTHONPATH="$ROOT/src:$ROOT/tools/reach${PYTHONPATH:+:$PYTHONPATH}"
WORK="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT
cd "$ROOT"

repro() { python -m repro "$@"; }
step() { echo "== $*" >&2; }

# serve NAME ARGS...: start a controller in the background; sets
# SERVE_PID and CONTROL (its control address).
serve() {
  local name=$1
  shift
  repro serve --bind 127.0.0.1:0 "$@" >"$WORK/$name.out" 2>"$WORK/$name.err" &
  SERVE_PID=$!
  CONTROL=""
  for _ in $(seq 1 120); do
    CONTROL=$(sed -n 's/.*control listening on \([^ ]*\).*/\1/p' "$WORK/$name.err" | head -n1)
    [ -n "$CONTROL" ] && return 0
    sleep 0.25
  done
  cat "$WORK/$name.err" >&2
  return 1
}

step "help, protocols, probes"
for cmd in "" fig4 fig5 fig6 f3 f3pop suite compare scenario protocols probes serve load lint; do
  repro $cmd --help >/dev/null
done
repro protocols >/dev/null
repro probes >/dev/null
repro probes order-latency >/dev/null

step "figure sweeps"
for fig in fig4 fig5 fig6 f3 f3pop; do
  repro "$fig" --quick --jobs 2 --json-dir "$WORK/figs" >/dev/null
done

step "suite: pool + baseline gate, serial, resumed"
repro suite --quick --jobs 2 --no-progress --json-dir "$WORK/pool" \
  --baseline-dir benchmarks/baselines >/dev/null
repro suite --quick --jobs 1 --json-dir "$WORK/serial" >/dev/null 2>&1
for _ in 1 2; do
  repro suite --quick --jobs 2 --resume "$WORK/journal" --json-dir "$WORK/resumed" \
    >/dev/null 2>&1
done
for artifact in "$WORK"/pool/BENCH_*.json; do
  repro compare "$WORK/serial/$(basename "$artifact")" "$artifact" >/dev/null
done

step "scenarios"
for name in $(repro scenario --list | awk 'NR > 4 { print $1 }'); do
  repro scenario "$name" >/dev/null
  repro scenario "$name" --dump >"$WORK/$name.json"
done
repro scenario "$WORK/smr-closed-loop.json" >/dev/null
repro scenario bursty-load --seeds 1,2 --jobs 2 >/dev/null

step "lint"
repro lint >/dev/null
repro lint src tests >/dev/null
repro lint --format json src tests >/dev/null
repro lint --list >/dev/null

step "examples"
for example in examples/*.py; do
  python "$example" >/dev/null
done

step "paper-claim checks"
python -m pytest benchmarks/ -q -p no:cacheprovider >/dev/null

step "perf ledger"
python bench/run.py --seconds 2 --out "$WORK/bench" >/dev/null
python bench/run.py --workload sim-order --workload live-sc-closed --seconds 2 --trace 1 \
  --out "$WORK/bench-trace" >/dev/null

step "live clusters: serve + load per protocol"
for protocol in sc scr bft ct; do
  serve "$protocol" --protocol "$protocol" --f 1 --duration 6 --json-dir "$WORK/live"
  repro load --control "$CONTROL" --rate 40 --duration 3 >/dev/null
  wait "$SERVE_PID"
done

step "live: SC kill + restart"
serve chaos --protocol sc --duration 10 --kill-after p3:2.5 --restart-after p3:4.5 \
  --json-dir "$WORK/chaos"
repro load --control "$CONTROL" --rate 40 --duration 6 --json "$WORK/chaos-load.json" \
  >/dev/null
wait "$SERVE_PID"

step "live: SC faults, authenticated, population load"
serve faults --protocol sc --duration 8 --auth-key product-pass \
  --pause-after p3:1.5:0.5 --partition "p1,p1'|p2:3:0.5" --drop "p2:0.2:2:1" \
  --delay-jitter "p3:0.02:2:1" --json-dir "$WORK/faults"
repro load --control "$CONTROL" --auth-key product-pass --rate 40 --duration 4 \
  --population "$WORK/flash-crowd.json" --json "$WORK/faults-load.json" \
  --bench-dir "$WORK/faults-pop" >/dev/null
wait "$SERVE_PID"
repro compare --live "$WORK/faults/BENCH_live_sc.json" >/dev/null
repro compare --live "$WORK/faults/BENCH_live_sc.json" "$WORK/live/BENCH_live_sc.json" >/dev/null

step "done: recorder files in $REACH_DIR"

#!/usr/bin/env bash
# Perf-regression gate: measures every registered headline point of
# Figs. 4-8 (deterministic simulation) and compares the records against
# the committed BENCH_baseline.json. See docs/observability.md for the
# record schema and the tolerances.
#
# Usage:
#   scripts/bench_check.sh            # measure and compare; exit 1 on drift
#   scripts/bench_check.sh --bless    # rewrite BENCH_baseline.json
#
# Env:
#   GRID_TSQR_BENCH_RTOL   relative tolerance for times (default 1e-9)
#   GRID_TSQR_LEDGER       experiment-ledger JSONL every measured point is
#                          appended to (default target/ledger/runs.jsonl, a
#                          working copy first seeded from the committed
#                          ledger/runs.jsonl; set to the empty string to
#                          disable)
#
# The committed ledger/runs.jsonl is a seed no gate run appends to, so a run
# leaves the tree clean. Read a gate run's entries with
#   grid-tsqr report --ledger target/ledger/runs.jsonl
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/cargo-fn.sh

BASELINE=BENCH_baseline.json
RESULTS=BENCH_results.json
# Every gate run also extends the cross-run experiment ledger behind
# `grid-tsqr report` (docs/observability.md section 9): by default a
# gitignored working copy that starts as the committed history.
WORKING_LEDGER=target/ledger/runs.jsonl
if [[ -z "${GRID_TSQR_LEDGER+set}" && ! -e "$WORKING_LEDGER" ]]; then
  mkdir -p "$(dirname "$WORKING_LEDGER")"
  cp ledger/runs.jsonl "$WORKING_LEDGER"
fi
export GRID_TSQR_LEDGER="${GRID_TSQR_LEDGER-$WORKING_LEDGER}"

if [[ "${1:-}" == "--bless" ]]; then
  run_cargo run --release -q --bin grid-tsqr -- bench-check \
    --bless --baseline "$BASELINE"
  exit
fi

run_cargo run --release -q --bin grid-tsqr -- bench-check \
  --baseline "$BASELINE" --out "$RESULTS"

#!/usr/bin/env bash
# Full local verification: build, every test, clippy with warnings
# denied, rustdoc with warnings denied (the gridmpi/netsim crates
# enforce #![warn(missing_docs)]), the doctests on their own (they
# exercise the public examples in the API docs, e.g. the
# metrics-registry example), the archlint static analyzer,
# the commcheck happens-before gate (which also holds every fault-matrix
# scenario's recovered R to the failure-free R bitwise), every registered
# artifact of the paper with its shape checks, and the dense kernels checked
# at the wall-clock benchmark's shapes.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# One build path: the root manifest links the two stubs in third_party/ by
# path, so plain cargo resolves without a registry, a patch table or a wrapper.
METADATA=$(cargo metadata --offline --format-version 1)
if grep -qF '"source":"registry' <<<"$METADATA"; then
  echo "a registry package is back in the workspace"; exit 1
fi
if grep -n '^\[patch' Cargo.toml; then echo "a [patch] table is back in Cargo.toml"; exit 1; fi
if compgen -G 'scripts/*cargo*'; then echo "a cargo wrapper or config is back in scripts/"; exit 1; fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> cargo clippy --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test --doc --workspace"
cargo test -q --doc --workspace

echo "==> archlint (static analyzer: wall clock, HashMap iteration, wildcard"
echo "    receives, crate layering vs scripts/layering.toml, nondeterminism-taint"
echo "    propagation, tag table and message-flow model vs scripts/archlint.model;"
echo "    see docs/static-analysis.md)"
cargo run --release -q -p tsqr-lint --bin archlint
# One rank program per algorithm (crates/core/src/tile.rs): no second copy.
if grep -rnE 'fn \w*_symbolic' crates/core/src; then echo "a _symbolic twin is back"; exit 1; fi
# One owner per scenario decision (tsqr_bench::{platform_runtime, run_point,
# serve_record}, the CLI's fault_schedule): no private copy may come back.
lines_with() { grep -rF --include='*.rs' -- "$@" | wc -l; }
copy_is_back() { echo "a copy is back: $1"; exit 1; }
CLI=src/bin/grid-tsqr.rs
[ "$(lines_with 'Experiment {' $CLI)" -le 1 ] || copy_is_back "Experiment literals in $CLI"
# the --wan-slow grammar, and the brown-out schedule in check's fault matrix
[ "$(lines_with 'degrade_all_wan' $CLI)" -le 2 ] || copy_is_back "--wan-slow parsers in $CLI"
[ "$(lines_with 'cp_send_s: report.p99_sojourn_s' crates src)" -eq 1 ] \
  || copy_is_back "the serve column mapping (tsqr_bench::serve_record)"
# One record per measured point: a LedgerEntry, whose gated columns are the
# BENCH file; figure --trace-out and tune's ledger hook measure through
# measure_point, so ledger_entry has two callers (measure_point, faults).
if grep -rn 'struct Bench[R]ecord' crates src; then copy_is_back "a gate record beside LedgerEntry"; fi
if grep -rn 'GRID_TSQR_RESULT[S]' crates src tests examples; then copy_is_back "the TSV results side channel"; fi
[ "$(grep -rF --include='*.rs' 'ledger_entry(' crates src | grep -vc 'fn ledger_entry(')" -le 2 ] \
  || copy_is_back "a third ledger_entry( call site"

# One causal record, one traffic ledger, one reduction walk (ISSUE 18): the
# trace is the only place causality is recorded, the metrics registry the only
# place traffic is counted, process.rs appends events in one place, and the
# butterfly exists once (in gridmpi's collective).
GM=crates/gridmpi/src
if grep -n 'vector_clocks\|\bvc\b' $GM/process.rs $GM/runtime.rs $GM/message.rs; then
  copy_is_back "a run-time vector clock in gridmpi's message path"
fi
[ "$(grep -c 'rec.events.push' $GM/process.rs)" -eq 1 ] || copy_is_back "event pushes in process.rs"
if grep -n 'self.counters\.' $GM/process.rs; then copy_is_back "a second traffic ledger"; fi
# A reduction tree is its parent vector (ISSUE 19): no Step schedule beside it,
# nobody assembles a tree by hand, one shape -> parents rule per arm, one search.
if grep -rn 'enum Step\|Step::' crates src tests examples; then copy_is_back "the Step schedule"; fi
[ "$(grep -rl 'ReductionTree {' crates src)" = "crates/core/src/tree.rs" ] \
  || copy_is_back "a ReductionTree assembled outside tree.rs"
if grep -n 'pub parents\|pub children\|fn flat(\|fn binary_into\|fn hierarchical(' crates/core/src/tree.rs; then
  copy_is_back "a public field or a direct Step builder in tree.rs"
fi
[ "$(grep -c 'min_by' crates/core/src/tune.rs)" -eq 1 ] || copy_is_back "a second argmin in tune.rs"
if grep -n 'sent_to' crates/core/src/tsqr.rs; then copy_is_back "send bookkeeping in tsqr.rs"; fi
if grep -rn 'mask <<= 1' crates/core/src; then copy_is_back "a hand-written butterfly in crates/core"; fi
# One static analyzer (docs/static-analysis.md section 4): tsqr-lint builds archlint and
# linkcheck only, and archlint.allow is the one allowlist.
[ ! -e crates/lint/src/main.rs ] && [ ! -e crates/lint/src/bin ] \
  && [ "$(grep -A1 '^\[\[bin\]\]' crates/lint/Cargo.toml | grep -c '^name')" -eq 2 ] \
  && [ "$(echo scripts/*.allow)" = scripts/archlint.allow ] \
  || copy_is_back "a second lint binary or allowlist beside archlint"
# The greedy construction exists once (ISSUE 21): above tree.rs's tests one
# fn greedy_parents and no all-pairs scan (the cubic loop is the test oracle
# only), and tune.rs builds its greedy-cost tree through it, in one place.
TREE=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/tree.rs)
[ "$(grep -c 'fn greedy_parents' <<<"$TREE")" -eq 1 ] \
  && [ "$(grep -cF 'for b in (a + 1)..' <<<"$TREE")" -eq 0 ] \
  || copy_is_back "a second greedy construction, or the all-pairs scan, in tree.rs"
[ "$(grep -c 'ReductionTree::greedy_parents' crates/core/src/tune.rs)" -eq 1 ] \
  || copy_is_back "a second greedy construction in tune.rs"
# The Q down-sweep does the work it is charged (ISSUE 25): above its tests (the
# dense replay is their oracle) tsqr.rs expands through Tile::expand /
# expand_leaf, never a dense tpmqrt or apply_q, and qr.rs has one left-apply.
TSQR=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/tsqr.rs)
if grep -nE 'tpmqrt\(|apply_q\(' <<<"$TSQR"; then copy_is_back "a dense expansion in tsqr.rs's down-sweep"; fi
[ "$(grep -c '^fn apply_q_left(' crates/linalg/src/qr.rs)" -eq 1 ] || copy_is_back "a second apply_q_left in qr.rs"
# Placement reads the pool's own counters (ISSUE 20): outside its tests the
# scheduler never copies the catalog, builds a topology in one place (a granted
# lease), and nothing caches around it (docs/serving.md §3, ROADMAP "Settled").
SCHED=$(sed '/^#\[cfg(test)\]/,$d' crates/qcg/src/scheduler.rs)
[ "$(grep -c 'catalog\.clone()' <<<"$SCHED")" -eq 0 ] \
  && [ "$(grep -c 'GridTopology::block_placement' <<<"$SCHED")" -eq 1 ] \
  || copy_is_back "a catalog clone on the placement path"
if grep -n 'generation' crates/qcg/src/scheduler.rs crates/serve/src/engine.rs; then
  copy_is_back "a pool generation counter (the parked blocked-head memo)"
fi

# Rank programs that yield (ISSUE 22): one receive core (the mailbox's `take_async`,
# the only place a receive parks a rank), one thread spawner, one Process
# construction; symbolic points and the tuner's replay never go back to rank
# threads (the tile type picks the driver, in one place).
shipped() { for f in "$@"; do sed '/^#\[cfg(test)\]/,$d' "$f" | grep -v '^ *//'; done; }
[ "$(shipped $GM/*.rs | grep -c 'thread::scope')" -eq 1 ] || copy_is_back "a second thread spawner in gridmpi"
# One stall rule: both drivers park in the mailbox hub, whose
# break_stall decides that a wait can never end; gridmpi reads no clock and
# needs no channel crate.
[ "$(shipped $GM/*.rs | grep -c '\.recv_timeout(')" -eq 0 ] || copy_is_back "a wall-clock wait in gridmpi"
if shipped $GM/*.rs | grep -n 'Duration'; then copy_is_back "a Duration in gridmpi"; fi
if grep -n crossbeam crates/gridmpi/Cargo.toml; then copy_is_back "crossbeam in gridmpi"; fi
[ "$(shipped $GM/*.rs | grep -c 'fn break_stall')" -eq 1 ] || copy_is_back "a second stall rule in gridmpi"
[ "$(shipped $GM/*.rs | grep -c '^ *Process {$')" -eq 1 ] || copy_is_back "a second Process literal"
EXPERIMENT=$(shipped crates/core/src/experiment.rs)
[ "$(grep -c 'rt\.run(' <<<"$EXPERIMENT")" -eq 1 ] && [ "$(grep -c 'T::NUMERIC' <<<"$EXPERIMENT")" -eq 1 ] \
  || copy_is_back "a second place in experiment.rs that picks the runtime's driver"
# One rank-program form (ISSUE 26): every awaitable is `*_async`, and a blocking
# name is a `block_on` line kept for a caller that cannot await -- recv,
# recv_any, exchange, allreduce, tsqr_rank_program_with -- plus run_ranks's
# numeric arm. Outside gridmpi only experiment.rs picks a driver (tests and
# benchmark/ are not looked at).
CORE_GM=$(shipped crates/core/src/*.rs $GM/*.rs)
if grep -nE 'async fn \w+' <<<"$CORE_GM" | grep -vE 'async fn \w+_async\b'; then
  copy_is_back "an async fn in crates/{core,gridmpi}/src not named *_async"
fi
[ "$(grep -c 'block_on(' <<<"$CORE_GM")" -eq 6 ] || copy_is_back "a blocking twin of an async body"
for f in $(find crates src examples -name '*.rs' -not -path "$GM/*" -not -path '*/tests/*' \
             -not -path crates/core/src/experiment.rs); do
  if shipped "$f" | grep -nE 'Runtime::run\(|\.run\(\||run_cooperative\('; then
    copy_is_back "a driver picked outside run_ranks: $f"
  fi
done
# A data-free all-reduce is one step in a cooperative run: one predicate in
# gridmpi picks the folded path over the message path (fold::fold_hub, the one
# reader of WirePayload::SYMBOLIC), and one call site asks it.
[ "$(shipped $GM/*.rs | grep -v 'fn fold_hub' | grep -c 'fold_hub')" -eq 1 ] \
  && [ "$(shipped $GM/*.rs | grep -c '::SYMBOLIC')" -eq 1 ] \
  || copy_is_back "a second place in gridmpi that picks the folded all-reduce"
# One trace index: Trace::from_parts builds each rank's events in
# program order and the send<->recv matching once; above their tests the
# analyses read it, and no other file matches messages or groups events by rank.
for f in $(ls $GM/*.rs | grep -v "^$GM/trace.rs$"); do
  if shipped "$f" | grep -nE 'match_messages\(|\.entry\(e\.rank\)|\[e\.rank\]\.push\('; then
    copy_is_back "a private trace index in $f"
  fi
done
# The Eq. (1) ledger records only what is read (docs/observability.md section 3):
# no message-size histogram; per-rank registries fold in MetricsRegistry::merged
# alone (the one other empty registry is the Process literal's); a knob with one
# value in use is a constant; and the three "the views tile the run" tolerances
# live in gridmpi (CriticalPath/FoldedProfile::check_tiling,
# Diagnosis::check_reconciled), not in their two callers.
if grep -rn 'Histogram\|msg_bytes' $GM; then copy_is_back "a message-size histogram in gridmpi"; fi
# A folded all-reduce adds each message straight into its member's phase
# counters (gridmpi::fold): no per-message leg buffer replayed into the registry.
if grep -rnE 'struct Leg\b|record_legs|legs: Vec<' $GM; then
  copy_is_back "a leg buffer replayed into the metrics registry"
fi
for f in $(grep -rlF --include='*.rs' 'MetricsRegistry::default()' crates/*/src src examples); do
  [ "$f" = "$GM/metrics.rs" ] && continue
  allowed=0; [ "$f" = "$GM/runtime.rs" ] && allowed=1
  [ "$(shipped "$f" | grep -cF 'MetricsRegistry::default()')" -le $allowed ] \
    || copy_is_back "a hand-written registry fold in $f (MetricsRegistry::merged is the one)"
done
if grep -rn 'ScalapackQrf {' crates src tests examples docs; then copy_is_back "a settable ScalapackQrf"; fi
if shipped crates/bench/src/figures.rs $CLI | grep -nF '1e-9 *'; then
  copy_is_back "a tiling tolerance outside gridmpi's check_tiling / check_reconciled"
fi

# A figure is a row of data (ISSUE 23): tsqr-bench builds no executable, and the
# CLI's `Args` is the workspace's only argv reader.
[ ! -e crates/bench/src/bin ] || copy_is_back "crates/bench/src/bin (artifacts are rows of tsqr_bench::figures)"
if grep -rn 'std::env::args' crates/bench/src; then copy_is_back "an argv parser in crates/bench"; fi

# linalg is single-threaded on purpose (a rank is one of hundreds of threads).
if grep -n rayon crates/linalg/Cargo.toml; then echo "rayon is back in crates/linalg"; exit 1; fi

echo "==> linkcheck (markdown links + anchors across README, EXPERIMENTS, docs/)"
cargo run --release -q -p tsqr-lint --bin linkcheck

echo "==> commcheck (happens-before gate: figure scenarios + fault matrix, each"
echo "    recovered R bitwise the failure-free R, + DPOR-lite explorer + serve"
echo "    policies and serve-faults points, pinned against COMMCHECK_baseline.txt)"
./target/release/grid-tsqr check --golden COMMCHECK_baseline.txt

echo "==> paper-shape gate (all 18 registered artifacts regenerated in one process,"
echo "    ~11 s, a shared point priced once; exits 1 on any of the 115 [FAIL]-able"
echo "    checks: Properties 1-5, the Fig. 1/2 WAN counts, Tables I/II, Eq. (1), four"
echo "    sites fastest for M >= 5e5, 4-site speedup > 3.3, TSQR >= ScaLAPACK, ...)"
timeout 120 ./target/release/grid-tsqr figure --all >/dev/null
echo "    paper shapes: every check of every artifact passes"

echo "==> serve-scale smoke (complexity tripwire, not a timing gate: 50k"
echo "    requests through a 100k-deep EDF queue take ~0.5 s with the indexed"
echo "    queue and memoised job model, ~26 s with a linear scan per event)"
timeout 15 ./target/release/grid-tsqr serve --policy edf --load 4 \
  --queue 100000 --requests 50000 >/dev/null
echo "    serve scale: deep-queue run finished inside its budget"

echo "==> dense-kernel smoke at benchmark shapes (correctness, not a timing"
echo "    gate: real TSQR on 256 and 64 rank threads; R against the sequential"
echo "    replica <= 1e-9, Gram residual, QtQ and A - QR <= 1e-10), and the"
echo "    planner's: plan_tree against the replay-checked autotuner at the"
echo "    tune/fig* gate points, every plan the same plan twice"
benchmark/run.sh --quick --workload real-n64 >/dev/null
benchmark/run.sh --quick --workload real-n256-q >/dev/null
benchmark/run.sh --quick --workload tune-plan >/dev/null
echo "    benchmark smoke: both real workloads and tune-plan correct"

echo "==> report gate (experiment-ledger dashboard pinned against"
echo "    REPORT_baseline.md; --check flags anomalous model residuals)"
./target/release/grid-tsqr report --ledger ledger/runs.jsonl \
  --golden REPORT_baseline.md --check

echo "verify: all green"

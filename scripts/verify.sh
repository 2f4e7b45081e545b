#!/usr/bin/env bash
# Full local verification: build, every test, clippy with warnings
# denied, rustdoc with warnings denied (the gridmpi/netsim crates
# enforce #![warn(missing_docs)]), the doctests on their own (they
# exercise the public examples in the API docs, e.g. the
# metrics-registry example), the commlint and archlint static scans,
# the commcheck happens-before gate, every registered artifact of the
# paper with its shape checks, the fault-matrix smoke, and the dense
# kernels checked at the wall-clock benchmark's shapes.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/cargo-fn.sh

echo "==> cargo build --release --workspace"
run_cargo build --release --workspace

echo "==> cargo test --workspace"
run_cargo test -q --workspace

echo "==> cargo clippy --all-targets (warnings are errors)"
run_cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" run_cargo doc --no-deps --workspace

echo "==> cargo test --doc --workspace"
run_cargo test -q --doc --workspace

echo "==> commlint (static determinism lint: wall clock, HashMap iteration,"
echo "    wildcard receives; see docs/static-analysis.md)"
run_cargo run --release -q -p tsqr-lint --bin commlint

echo "==> archlint (workspace analyzer: crate layering vs scripts/layering.toml,"
echo "    nondeterminism-taint propagation, tag table and message-flow model vs"
echo "    scripts/archlint.model; see docs/static-analysis.md)"
run_cargo run --release -q -p tsqr-lint --bin archlint
# One rank program per algorithm (crates/core/src/tile.rs): no second copy.
if grep -rnE 'fn \w*_symbolic' crates/core/src; then echo "a _symbolic twin is back"; exit 1; fi
# One owner per scenario decision (tsqr_bench::{platform_runtime, run_point,
# serve_record}, the CLI's fault_schedule): no private copy may come back.
lines_with() { grep -rF --include='*.rs' -- "$@" | wc -l; }
copy_is_back() { echo "a copy is back: $1"; exit 1; }
CLI=src/bin/grid-tsqr.rs
[ "$(lines_with 'Experiment {' $CLI)" -le 1 ] || copy_is_back "Experiment literals in $CLI"
[ "$(lines_with 'set_recv_timeout' $CLI)" -le 1 ] || copy_is_back "set_recv_timeout in $CLI"
# the --wan-slow grammar, and the smoke's brown-out schedule in check's matrix
[ "$(lines_with 'degrade_all_wan' $CLI)" -le 2 ] || copy_is_back "--wan-slow parsers in $CLI"
[ "$(lines_with 'cp_send_s: report.p99_sojourn_s' crates src)" -eq 1 ] \
  || copy_is_back "the serve column mapping (tsqr_bench::serve_record)"

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
if grep -n 'fn lint_tag_protocol' crates/lint/src/main.rs; then copy_is_back "commlint's tag-protocol rule"; fi
# The greedy construction exists once (ISSUE 21): above tree.rs's tests one
# fn greedy_parents and no all-pairs scan (the cubic loop is the test oracle
# only), and tune.rs builds its greedy-cost tree through it, in one place.
TREE=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/tree.rs)
[ "$(grep -c 'fn greedy_parents' <<<"$TREE")" -eq 1 ] \
  && [ "$(grep -cF 'for b in (a + 1)..' <<<"$TREE")" -eq 0 ] \
  || copy_is_back "a second greedy construction, or the all-pairs scan, in tree.rs"
[ "$(grep -c 'ReductionTree::greedy_parents' crates/core/src/tune.rs)" -eq 1 ] \
  || copy_is_back "a second greedy construction in tune.rs"
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

# Rank programs that yield (ISSUE 22): one receive core (the mailbox's `take`,
# the only wall-clock wait and the only place a rank is parked), one thread
# spawner, one Process construction; symbolic points and the tuner's replay
# never go back to rank threads (the tile type picks the driver, in one place).
shipped_gm() { for f in $GM/*.rs; do sed '/^#\[cfg(test)\]/,$d' "$f" | grep -v '^ *//'; done; }
[ "$(shipped_gm | grep -c 'thread::scope')" -eq 1 ] || copy_is_back "a second thread spawner in gridmpi"
[ "$(shipped_gm | grep -c '\.recv_timeout(')" -eq 1 ] \
  || copy_is_back "a wall-clock wait outside the channel mailbox"
[ "$(shipped_gm | grep -c '^ *Process {$')" -eq 1 ] || copy_is_back "a second Process literal"
EXPERIMENT=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/experiment.rs)
[ "$(grep -c 'rt\.run(' <<<"$EXPERIMENT")" -eq 1 ] && [ "$(grep -c 'T::NUMERIC' <<<"$EXPERIMENT")" -eq 1 ] \
  || copy_is_back "a second place in experiment.rs that picks the runtime's driver"
if sed -n '/^pub fn replay_makespan/,/^}/p' crates/core/src/tune.rs | grep -n 'rt\.run('; then
  copy_is_back "rank threads under tune::replay_makespan"
fi

# A figure is a row of data (ISSUE 23): tsqr-bench builds no executable, and the
# CLI's `Args` is the workspace's only argv reader.
[ ! -e crates/bench/src/bin ] || copy_is_back "crates/bench/src/bin (artifacts are rows of tsqr_bench::figures)"
if grep -rn 'std::env::args' crates/bench/src; then copy_is_back "an argv parser in crates/bench"; fi

# linalg is single-threaded on purpose (a rank is one of hundreds of threads).
if grep -n rayon crates/linalg/Cargo.toml; then echo "rayon is back in crates/linalg"; exit 1; fi

echo "==> linkcheck (markdown links + anchors across README, EXPERIMENTS, docs/)"
run_cargo run --release -q -p tsqr-lint --bin linkcheck

echo "==> commcheck (happens-before gate: figure scenarios + fault matrix"
echo "    + DPOR-lite explorer, pinned against COMMCHECK_baseline.txt)"
./target/release/grid-tsqr check --recv-timeout 60 --golden COMMCHECK_baseline.txt

echo "==> paper-shape gate (all 18 registered artifacts regenerated in one process,"
echo "    ~40 s, a shared point priced once; exits 1 on any of the 115 [FAIL]-able"
echo "    checks: Properties 1-5, the Fig. 1/2 WAN counts, Tables I/II, Eq. (1), four"
echo "    sites fastest for M >= 5e5, 4-site speedup > 3.3, TSQR >= ScaLAPACK, ...)"
timeout 120 ./target/release/grid-tsqr figure --all >/dev/null
echo "    paper shapes: every check of every artifact passes"

echo "==> fault-matrix smoke (self-healing TSQR via the CLI)"
# Crash one representative rank of every tree level on the 4-site grid
# (256 ranks, GridHierarchical): leaf, intra-cluster combiner, cluster
# root, WAN-phase combiner, global root. Each run verifies the
# recovered R bitwise against the failure-free reference and exits
# nonzero otherwise. The last run also shows the plain program's typed
# failure report (--baseline); a final run mixes transient loss with a
# WAN brown-out.
FAULTS="./target/release/grid-tsqr faults --m 65536 --n 32 --sites 4 --recv-timeout 30"
for spec in 255@0.5 2@2 64@2 128@6 0@6; do
  $FAULTS --crash "$spec" >/dev/null
done
$FAULTS --crash 0@2 --crash 1@4 --baseline >/dev/null
$FAULTS --drop-prob 64:0:0.4 --wan-slow 0:50:4:4 --fault-seed 7 >/dev/null
echo "    fault smoke: all scenarios recovered bitwise"

echo "==> serving-layer smoke (multi-tenant scheduler: every policy on one"
echo "    seeded trace, plus the batched same-shape burst; docs/serving.md)"
SERVE="./target/release/grid-tsqr serve --requests 40 --seed 11"
$SERVE --policy all --load 1.5 >/dev/null
$SERVE --policy fifo --load 4.0 --shape 3 --batch >/dev/null
$SERVE --policy sjf --sweep 0.5,1.0,2.0 >/dev/null
echo "    serve smoke: all policies scored, batch and sweep render"

echo "==> serve-scale smoke (complexity tripwire, not a timing gate: 50k"
echo "    requests through a 100k-deep EDF queue take ~0.5 s with the indexed"
echo "    queue and memoised job model, ~26 s with a linear scan per event)"
timeout 15 ./target/release/grid-tsqr serve --policy edf --load 4 \
  --queue 100000 --requests 50000 >/dev/null
echo "    serve scale: deep-queue run finished inside its budget"

echo "==> serving chaos smoke (failure schedules in the serve engine:"
echo "    crash + checkpointed retry, crash + elastic re-plan, degraded"
echo "    WAN + brownout shed; docs/serving.md §Failures)"
$SERVE --load 1.0 --crash 2@100 >/dev/null
$SERVE --load 1.0 --crash 2@100 --shape 3 --no-checkpoint >/dev/null
$SERVE --load 0.5 --wan-slow 50:5000:1:8 \
  --drop-flow 0:2:0 --drop-flow 0:2:1 --drop-flow 0:2:2 \
  --drop-flow 0:2:3 --drop-flow 0:2:4 --drop-flow 0:2:5 \
  --backoff 200 --brownout 1:0 >/dev/null
echo "    chaos smoke: crashed, re-planned, browned out, recovered"

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

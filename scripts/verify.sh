#!/usr/bin/env bash
# Full local verification: build, every test, rustfmt on the formatted
# code, clippy with warnings denied, rustdoc with warnings denied (the
# gridmpi/netsim crates enforce #![warn(missing_docs)]), the doctests on
# their own (they exercise the public examples in the API docs, e.g. the
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
# path, so plain cargo resolves without a registry (archlint's owners table
# denies a patch table and a wrapper).
METADATA=$(cargo metadata --offline --format-version 1)
if grep -qF '"source":"registry' <<<"$METADATA"; then
  echo "a registry package is back in the workspace"; exit 1
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> rustfmt --check on what is formatted (crates/gridmpi, crates/bench, crates/netsim,"
echo "    crates/obs, crates/qcg, the root package)"
cargo fmt -p tsqr-gridmpi --check
cargo fmt -p tsqr-bench --check
cargo fmt -p tsqr-netsim --check
cargo fmt -p tsqr-obs --check
cargo fmt -p tsqr-qcg --check
cargo fmt -p grid-tsqr --check

echo "==> cargo clippy --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test --doc --workspace"
cargo test -q --doc --workspace

echo "==> archlint (static analyzer: direct rules, crate layering vs scripts/layering.toml,"
echo "    nondeterminism-taint propagation, message-flow model vs scripts/archlint.model,"
echo "    one owner per decision vs scripts/archlint.owners; see docs/static-analysis.md)"
cargo run --release -q -p tsqr-lint --bin archlint

echo "==> linkcheck (markdown links + anchors across README, EXPERIMENTS, docs/)"
cargo run --release -q -p tsqr-lint --bin linkcheck

echo "==> commcheck (happens-before gate: figure scenarios + fault matrix, each"
echo "    recovered R bitwise the failure-free R, + DPOR-lite explorer + serve"
echo "    policies and serve-faults points, pinned against COMMCHECK_baseline.txt)"
./target/release/grid-tsqr check --golden COMMCHECK_baseline.txt

echo "==> paper-shape gate (all 18 registered artifacts regenerated in one process,"
echo "    ~6 s, their points declared, then priced on every core; exits 1 on any of"
echo "    the 115 [FAIL]-able checks: Properties 1-5, the Fig. 1/2 WAN counts, Tables"
echo "    I/II, Eq. (1), four sites fastest for M >= 5e5, 4-site speedup > 3.3,"
echo "    TSQR >= ScaLAPACK, ...)"
timeout 120 ./target/release/grid-tsqr figure --all >/dev/null
echo "    paper shapes: every check of every artifact passes"

echo "==> serve-scale smoke (complexity tripwire, not a timing gate: 50k"
echo "    requests through a 100k-deep EDF, SJF and Fair queue take ~0.2 s each"
echo "    with the one ordered index and memoised job model, ~26 s with a"
echo "    linear scan per event; 200k SJF requests at load 1.5 take ~0.5 s with"
echo "    the slab's amortised compaction, quadratic if every hole compacted)"
for policy in edf sjf fair; do
  timeout 15 ./target/release/grid-tsqr serve --policy "$policy" --load 4 \
    --queue 100000 --requests 50000 >/dev/null
done
timeout 15 ./target/release/grid-tsqr serve --policy sjf --load 1.5 \
  --queue 100000 --requests 200000 >/dev/null
echo "    serve scale: every deep-queue run finished inside its budget"

echo "==> benchmark smoke (correctness, not a timing gate): real TSQR on 256"
echo "    and 64 rank threads (R against the sequential replica <= 1e-9, Gram"
echo "    residual, QtQ and A - QR <= 1e-10); the planner's plan_tree against"
echo "    the replay-checked autotuner at the tune/fig* gate points, every plan"
echo "    the same plan twice; and both serving workloads, which lease and"
echo "    release through SlotPool (one disposition per generated request, the"
echo "    same outcome every sample, a light reference run that completes every"
echo "    request, and serve()'s own panic on a pool that does not end idle)"
for workload in real-n64 real-n256-q tune-plan serve-overload serve-deepq; do
  benchmark/run.sh --quick --workload "$workload" >/dev/null
done
echo "    benchmark smoke: both real workloads, tune-plan and both serve workloads correct"

echo "==> report gate (experiment-ledger dashboard pinned against"
echo "    REPORT_baseline.md; --check flags anomalous model residuals)"
./target/release/grid-tsqr report --ledger ledger/runs.jsonl \
  --golden REPORT_baseline.md --check

echo "verify: all green"

#!/usr/bin/env bash
# Byte-for-byte CLI comparison of this tree against another revision: the
# step for any PR that claims byte-identical CLI behaviour (the simulation is
# deterministic, so any byte of difference is real). Builds `grid-tsqr` at
# <rev> and here, runs every line of the cases file with both binaries and
# compares stdout, stderr, the exit code and every file the line writes.
#
# Usage: scripts/cli_diff.sh <rev> [cases-file]     (default scripts/cli_cases.txt)
#
# A case is the argument list after `grid-tsqr`, split on whitespace; blank
# lines and `#` comments are skipped. Both binaries run a case in a fresh
# directory of their own with GRID_TSQR_LEDGER empty, so files named by
# relative paths (`--out`, `--trace-out`, `--folded-out`) are compared too.
# Prints each differing case and `runs=N differing=K`; exits 1 when K > 0.
#
# <rev> is exported with `git archive` into a directory under ${TMPDIR:-/tmp}
# (nothing is registered in .git, so nothing leaks if the script is killed)
# and built there with its own target directory; the directory is removed on
# exit. Deliberately not part of verify.sh or CI: a PR that re-blesses
# behaviour must be able to differ.
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 1 ] || { echo "usage: scripts/cli_diff.sh <rev> [cases-file]"; exit 2; }
rev=$1
cases=$(realpath "${2:-scripts/cli_cases.txt}")
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || { echo "cli_diff: no such revision: $rev"; exit 2; }

work=$(mktemp -d "${TMPDIR:-/tmp}/cli_diff.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree" "$work/old" "$work/new"
git archive "$rev" | tar -x -C "$work/tree"

echo "==> build $rev"
(cd "$work/tree" && . scripts/cargo-fn.sh \
  && CARGO_TARGET_DIR="$work/target" run_cargo build --release -q --bin grid-tsqr)
echo "==> build the working tree"
. scripts/cargo-fn.sh
run_cargo build --release -q --bin grid-tsqr
new_bin=$(realpath "${CARGO_TARGET_DIR:-target}/release/grid-tsqr")

run_case() { # <binary> <directory> <args...>: outputs and exit code land in the directory
  local bin=$1 dir=$2 code=0
  shift 2
  mkdir "$dir"
  (cd "$dir" && GRID_TSQR_LEDGER='' "$bin" "$@" >stdout 2>stderr) || code=$?
  echo "$code" >"$dir/exit-code"
}

set -f # a case is split on whitespace, never globbed
runs=0 differing=0
while IFS= read -r line; do
  case "$line" in '' | '#'*) continue ;; esac
  runs=$((runs + 1))
  # shellcheck disable=SC2086
  run_case "$work/target/release/grid-tsqr" "$work/old/$runs" $line
  # shellcheck disable=SC2086
  run_case "$new_bin" "$work/new/$runs" $line
  if ! diff -r "$work/old/$runs" "$work/new/$runs" >"$work/diff"; then
    differing=$((differing + 1))
    echo "DIFFERS: grid-tsqr $line"
    sed -e 's/^/    /' -e '40q' "$work/diff"
  fi
done <"$cases"

echo "runs=$runs differing=$differing"
[ "$differing" -eq 0 ]

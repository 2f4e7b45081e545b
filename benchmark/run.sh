#!/usr/bin/env bash
# One command for the wall-clock benchmark; see benchmark/README.md.
# Builds offline against the repo's third_party stubs (patched in by
# benchmark/Cargo.toml) and forwards every argument to the binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export TSQR_BENCH_DIR="$here"
exec cargo run --quiet --release --offline --manifest-path "$here/Cargo.toml" -- "$@"

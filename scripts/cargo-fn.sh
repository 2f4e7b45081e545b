# Sourced by verify.sh and bench_check.sh (from the repo root): defines
# `run_cargo`. It is plain cargo when the real crates.io dependencies resolve
# from what is already on disk (a warm registry; CI after `cargo fetch`), and
# scripts/cargo-offline.sh (the third_party/ stubs) when they do not (a bare
# offline container). Observed here, once per script run; not a switch.
if cargo metadata --offline --format-version 1 >/dev/null 2>&1; then
  run_cargo() { cargo "$@"; }
else
  run_cargo() { scripts/cargo-offline.sh "$@"; }
fi

#!/usr/bin/env bash
# Runs cargo against the third_party/ stubs with no network, e.g.
# `scripts/cargo-offline.sh test -q --workspace` (Tier-1 in a bare container).
# The flags follow the subcommand because an external subcommand forwards only
# its own arguments (`cargo clippy` re-invokes `cargo check` with them), and
# CARGO_NET_OFFLINE keeps every nested cargo off the network as well.
sub="$1"
shift
export CARGO_NET_OFFLINE=true
exec cargo "$sub" --config "$(dirname "$0")/offline-cargo.toml" --offline "$@"

#!/usr/bin/env bash
# Runs cargo against the third_party/ stubs with no network, e.g.
# `scripts/cargo-offline.sh test -q --workspace` (Tier-1 in a bare container).
exec cargo --config "$(dirname "$0")/offline-cargo.toml" --offline "$@"

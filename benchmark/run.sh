#!/usr/bin/env bash
# Builds the ledger offline and runs the full set: the end-to-end set
# (passes interleaved over the four workloads), then one traced run per
# workload; prints the table, writes out/last.json and appends the
# record to history.jsonl.
#
#   benchmark/run.sh            full set (about four minutes)
#   benchmark/run.sh --quick    1 pass x 1 s per workload, smoke use;
#                               nothing is appended to the history
#
# Build products go to the root target/ unless CARGO_TARGET_DIR is set.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/ledger" set "$@"

#!/usr/bin/env bash
# Builds the daemon under test and the benchmark harness from source, then
# runs one workload:
#
#   bash perfbench/run.sh --workload batch_report|query_steady|live_churn \
#       --seed N --seconds S --trace 0|1 [--smoke]
#
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p netclust-serve --bin netclustd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --daemon "$CARGO_TARGET_DIR/release/netclustd" "$@"

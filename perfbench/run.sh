#!/usr/bin/env bash
# Builds the `qld` daemon from the repository's workspace and the benchmark
# package, then runs the benchmark.  Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-reask --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --all --seed 1 --seconds 15 --trace 0
#
# `--all` runs hot-reask and cold-solve one after the other.
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); build logs go
# to stderr, so the last line of stdout stays the benchmark's result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet -p qld-front --bin qld >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2
bench=("$CARGO_TARGET_DIR/release/qld-perfbench" --qld "$CARGO_TARGET_DIR/release/qld")
if [ "${1:-}" = "--all" ]; then
    shift
    for workload in hot-reask cold-solve; do
        "${bench[@]}" --workload "$workload" "$@"
    done
    exit 0
fi
exec "${bench[@]}" "$@"

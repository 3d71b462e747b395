#!/usr/bin/env bash
# Build the shipped binaries and the benchmark, then run one benchmark
# sample. Run from the repository root:
#
#   bash retrobench/run.sh --workload resweep --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# input cache, checkpoints and traces go to $CARGO_TARGET_DIR/retrobench.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet --manifest-path "$root/Cargo.toml" \
    --bin retrodns --bin retrodns-serve >&2
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/retrobench" "$@" \
    --bin-dir "$CARGO_TARGET_DIR/release" --work-dir "$CARGO_TARGET_DIR/retrobench"

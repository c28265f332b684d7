#!/usr/bin/env bash
# The end-to-end benchmark's one command. Run from the repository root:
#
#   bash e2ebench/run.sh --workload delta_stream --seed 1 --seconds 20 --trace 0
#
# Builds the release `serve` binary (the repository's workspace) and the
# benchmark (its own workspace, e2ebench/Cargo.toml) into
# $CARGO_TARGET_DIR (default .bench_build), then runs the benchmark with
# the given arguments. Build output goes to stderr; the last stdout line
# is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p ttsv-serve --bin serve >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" --serve-bin "$CARGO_TARGET_DIR/release/serve" "$@"

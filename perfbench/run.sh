#!/usr/bin/env bash
# Build the `busytime` daemon and the benchmark from source, then run the benchmark.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build output goes to $CARGO_TARGET_DIR (default
# `target`); build logs go to standard error, so the last line of standard output
# is the benchmark's JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p busytime-cli --bin busytime >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --serve-bin "$target/release/busytime" "$@"

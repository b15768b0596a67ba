#!/usr/bin/env bash
# Builds the `serve` binary and this benchmark from source, then runs one
# benchmark invocation:
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root.  Build output goes to stderr, so the last
# stdout line is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p bitwave-serve --bin serve >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" --serve-bin "$CARGO_TARGET_DIR/release/serve" "$@"

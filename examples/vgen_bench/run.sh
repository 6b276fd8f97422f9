#!/usr/bin/env bash
# Builds the `vgen` binary and the benchmark in release mode from this
# checkout, then runs the benchmark with every argument passed through:
#
#   bash examples/vgen_bench/run.sh --workload check_stream --seed 42 --seconds 15 --trace 0
#
# Both binaries land in $CARGO_TARGET_DIR (default: .bench_build, apart
# from the development build in target/); the benchmark finds `vgen` next
# to itself.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --bin vgen
cargo build --release --quiet --manifest-path examples/vgen_bench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/vgen_bench" "$@"

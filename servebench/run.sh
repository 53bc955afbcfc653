#!/usr/bin/env bash
# Build the `chemcost` daemon and the benchmark harness from this checkout,
# then run one benchmark invocation:
#
#   bash servebench/run.sh --workload advise_cold --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the result is the last line of stdout.
# Both builds share CARGO_TARGET_DIR (default `.bench_build`), which also
# holds the run's model file, spans and run records.
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --bin chemcost >&2
cargo build --release --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/chemcost-servebench" \
    --chemcost "$CARGO_TARGET_DIR/release/chemcost" \
    --work "$CARGO_TARGET_DIR/servebench" \
    "$@"

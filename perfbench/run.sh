#!/usr/bin/env bash
# Build the benchmark from source, then run it; every argument is passed on.
#
#   bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR
# (default: .bench_build under the current directory); cargo output goes
# to stderr so the last stdout line stays the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"

#!/usr/bin/env bash
# Builds the pnp_serve daemon (from the repository workspace) and the
# benchmark (its own workspace) from source, then runs one benchmark pass:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the last line of standard output is the JSON
# result.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/serve || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (crates/ not found)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p pnp-serve --bin pnp_serve >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --daemon "$CARGO_TARGET_DIR/release/pnp_serve" "$@"

#!/usr/bin/env bash
# Builds the load benchmark together with the coqld and coqld-router
# binaries it drives (all from this checkout's sources), then runs it with
# the given arguments. Run from the repository root, e.g.
#
#   bash loadbench/run.sh --workload dup_hot --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the benchmark's result is the last line of
# stdout. The target directory is $CARGO_TARGET_DIR, else loadbench/target.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/co-load" "$@"

#!/usr/bin/env bash
# Builds `sachi` and `perf_e2e` into one target directory (so the
# benchmark finds `sachi` next to itself) and runs `perf_e2e run` with
# the given arguments, e.g.
#
#   bash crates/bench/src/bin/perf_e2e/run.sh --workload serve-small --seed 1
#   bash crates/bench/src/bin/perf_e2e/run.sh --trace 1 --smoke
#
# Build output goes to $CARGO_TARGET_DIR, `.bench_build` at the
# repository root by default; cargo's messages go to stderr.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --offline --quiet --release --manifest-path "$root/Cargo.toml" -p sachi-cli >&2
cargo build --offline --quiet --release --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perf_e2e" run "$@"

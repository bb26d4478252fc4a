#!/usr/bin/env bash
# Builds isomit-serve and the benchmark from the checkout this script
# sits in, then makes one benchmark run. All arguments go to the
# benchmark, e.g.
#
#   bash servebench/run.sh --workload cold_rid --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates/service ]; then
    echo "servebench: $root is not an isomit checkout" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p isomit-service --bin isomit-serve >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$target/release/servebench" --serve-bin "$target/release/isomit-serve" "$@"

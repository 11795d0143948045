#!/usr/bin/env bash
# Builds the harness once, in release, into the repository's shared target/
# directory, then runs every workload in its own process, one after the
# other and never two at once. Each process removes its own scratch
# directory; this script removes what is left (trace files) afterwards.
#
#   benchmark/run.sh                 untraced: the end-to-end metrics
#   benchmark/run.sh --trace 1       traced: spans and per-layer metrics
#   benchmark/run.sh --seed 7 --quick
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
status=0
for workload in embedded_update embedded_read_mostly net_mixed crash_recover; do
    echo "== $workload"
    "$CARGO_TARGET_DIR/release/mmdb-benchmark" --workload "$workload" "$@" || status=$?
done
rm -rf benchmark/scratch
exit "$status"

#!/usr/bin/env bash
# Build the benchmark offline, run every workload (`run`), then the
# traced run that gives the per-layer numbers (`trace`). Leaves in
# benchmark/out/ (git-ignored): result-<seed>.json, layers-<seed>.json
# and trace-<workload>.json for each of the four workloads.
#
#   benchmark/run.sh [--seed <n>] [--seconds <s>]
#
# Builds into the repo's shared target/ unless CARGO_TARGET_DIR is set.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"

# A run that is killed cannot remove its temporary checkpoint store:
# do it here, so repeated runs do not grow the disk.
trap 'rm -rf "$here"/out/store-*' EXIT

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/sph-benchmark"

"$bin" run "$@"
"$bin" trace "$@"

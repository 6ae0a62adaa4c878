#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it in place of
# this shell. Every argument is passed through, e.g.:
#
#   bash e2ebench/run.sh --workload train-paper --seed 1 --seconds 10 --trace 0
#
# The build honours CARGO_TARGET_DIR (default: e2ebench/target). Cargo's
# output goes to standard error, so the last line of standard output is
# the benchmark's JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/pitot-e2e-bench" "$@"

#!/usr/bin/env bash
# The benchmark's one command: build in release, then run. With no
# arguments it runs every workload, checks outputs and prints every
# metric; `--help` lists the other modes. Run from the repository root.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
# Offline: the package depends only on the workspace's own crates.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
export ELASTIC_BENCH_DIR="$here"
exec "${CARGO_TARGET_DIR:-$here/target}/release/elastic-bench" "$@"

#!/usr/bin/env bash
# The whole gate, runnable anywhere the toolchain is: no arguments, no
# environment switches, no network. .github/workflows/ci.yml runs exactly
# this script; what is not in here is not gated.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo build --release --offline
cargo test -q --offline
target/release/orex analyze
# Every workload's end-to-end half twice, each metric held to its
# BENCHMARK.json bound; also fails on any wrong answer or non-200.
bash crates/bench/src/bin/perf/run.sh --repeat-check

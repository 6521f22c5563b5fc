#!/usr/bin/env bash
# The whole stable-toolchain gate, runnable anywhere the toolchain is: no
# arguments, no environment switches, no network. .github/workflows/ci.yml
# runs this script as its `check` job; its only other jobs are `miri` and
# `tsan`, the Miri and ThreadSanitizer runs, which need a nightly
# toolchain and are not in here.
#
# clippy carries the unsafe, panic, exit, sleep, `#[allow]` and print
# rules (levels in the root Cargo.toml and at the crate roots, the sleep
# entry in clippy.toml); `orex analyze` keeps the rules that need
# comments, the call graph or the lock model: ORX003, ORX004, ORX006
# (the TODO/FIXME census) and ORX008-ORX010.
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

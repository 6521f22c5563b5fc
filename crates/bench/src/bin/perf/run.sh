#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the server under test and
# the benchmark from source, then runs the benchmark with the arguments
# given. Run it from the root of a checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --target-dir "$target" --manifest-path "$root/Cargo.toml" -p orex-cli --bin orex >&2
cargo build --release --offline --quiet --target-dir "$target" --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perf" "$@"

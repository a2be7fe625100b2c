#!/usr/bin/env bash
# Everything a CI job needs for this package: format, lints, unit tests, and
# the smoke run (every workload and the layer drives at toy size, < 20 s).
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"
cargo build --release --offline --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/anton-benchmark"
"$bin" run --all --smoke --seed 42 --out benchmark/out/smoke
"$bin" layers --smoke
"$bin" compare benchmark/out/smoke/result.json benchmark/out/smoke/result.json

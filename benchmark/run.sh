#!/usr/bin/env bash
# The one command: builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh
#       every workload, untraced then traced, at seed 42; prints every metric
#       by name with its unit and writes benchmark/out/result.json plus one
#       trace-<workload>.json per workload. Exits non-zero if a check fails.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one invocation, as BENCHMARK.json's `command` is run; the last line of
#       standard output is the result object.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/anton-benchmark"
if [ "$#" -eq 0 ]; then
    exec "$bin" run --all --seed 42
fi
exec "$bin" run "$@"

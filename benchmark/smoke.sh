#!/usr/bin/env bash
# Every workload, untraced and traced, on a tiny economy with 0.2 s windows:
# checks that each named metric comes out with its unit and that every
# correctness check ran and passed. A few seconds once built.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --smoke --trace --out benchmark/out/smoke.json "$@"

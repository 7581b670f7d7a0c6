#!/usr/bin/env bash
# The whole CI gate as one script: `.github/workflows/ci.yml` runs exactly
# this, so a green `./ci.sh` on a laptop means a green CI job.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# Every unit, integration, differential and golden-transcript suite, plus
# the doctests.
cargo test -q
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
cargo clippy --workspace --all-targets -- -D warnings
cargo run --release --example serve_roundtrip

# benchmark/ is a package of its own that path-depends on the library
# crates, so nothing above builds it: unit-test it, then run every
# workload once at smoke size.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/smoke.sh

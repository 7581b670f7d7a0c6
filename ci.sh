#!/usr/bin/env bash
# The whole CI gate as one script: `.github/workflows/ci.yml` runs exactly
# this, so a green `./ci.sh` on a laptop means a green CI job.
set -euo pipefail
cd "$(dirname "$0")"

# `--locked` on every cargo call: a Cargo.lock that no longer matches the
# manifests fails here instead of being rewritten silently.
cargo build --release --locked
# Every unit, integration, differential and golden-transcript suite, plus
# the doctests.
cargo test -q --locked
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --locked
cargo clippy --locked --workspace --all-targets -- -D warnings
# Every example, so none of them rots unbuilt and unrun.
for example in quickstart fp_refinement serve_roundtrip \
    silkroad_trace theft_tracking; do
    cargo run --release --locked --example "$example"
done

# benchmark/ is a package of its own that path-depends on the library
# crates, so nothing above builds or lints it: unit-test it, lint it, then
# run every workload once at smoke size.
cargo test -q --locked --offline --manifest-path benchmark/Cargo.toml
cargo clippy --locked --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
benchmark/smoke.sh

#!/bin/sh
# Lint and test this package. It is outside the root workspace, so the root's
# `cargo fmt --all`, `cargo clippy --workspace` and `cargo test --workspace`
# do not reach it.
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- check
cargo run --offline --release --quiet -- selfcheck

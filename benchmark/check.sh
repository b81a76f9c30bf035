#!/usr/bin/env bash
# The benchmark package's own gate: formatting, lints, unit tests and a
# smoke run of every workload (1 round, a tenth of the operations, every
# result still checked). Everything is --offline; the package has no
# external dependencies. Does not touch the root workspace.
set -euo pipefail
cd "$(dirname "$0")"
manifest=(--offline --manifest-path Cargo.toml)

echo "== cargo fmt --check =="
cargo fmt --manifest-path Cargo.toml -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy "${manifest[@]}" --all-targets -- -D warnings

echo "== unit tests =="
cargo test "${manifest[@]}" -q

echo "== wjbench run --smoke =="
cargo run "${manifest[@]}" --release -q --bin wjbench -- run --smoke

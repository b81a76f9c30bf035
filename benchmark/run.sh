#!/usr/bin/env bash
# The benchmark's single command (see ../BENCHMARK.json): build both
# binaries from source, then hand the driver's flags to wjbench, which
# runs the workload itself (--trace 0) or passes it to wjlayers (--trace 1).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/wjbench" "$@"

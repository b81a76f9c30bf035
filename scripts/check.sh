#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the tier-1 build + test pass.
# Everything runs --offline; the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc (-D warnings: a doc link to a deleted item fails here) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== tier-1: release build + tests =="
cargo build --release --offline
cargo test -q --offline

echo "== workspace tests =="
cargo test --workspace -q --offline

echo "== exec tests again in release: overflow checks are off there, so a  =="
echo "==   decoder's unchecked offset+len fails on a different line (or     =="
echo "==   not at all) than in the debug run above                          =="
cargo test --release --offline -q -p exec

echo "== fold against its reference, optimized: the 4k-vs-32k scaling ratio  =="
echo "==   is only meaningful with the optimizer on (the debug run above keeps =="
echo "==   the differential half)                                              =="
cargo test --release --offline -q -p nir --test opt_properties

echo "== workspace tests again on real OS threads (WJ_EXECUTOR=threads; =="
echo "==   every assertion must hold bit-for-bit)                       =="
WJ_EXECUTOR=threads cargo test -q --offline

echo "== pass-profile smoke run (a cold compile stage by stage, front end  =="
echo "==   included; asserts parallel-lowering profile parity)              =="
cargo run --release --offline -q -p bench --bin repro -- pass-profile --quick

echo "== fault-matrix smoke run =="
cargo run --release --offline -q -p bench --bin repro -- fault-matrix --quick

echo "== restart-cost smoke run (asserts delta < full ckpt bytes at cadence 1) =="
cargo run --release --offline -q -p bench --bin repro -- restart-cost --quick

echo "== chaos soak (fault storms x cadence x rebase; bit-identical or typed) =="
cargo run --release --offline -q -p bench --bin repro -- chaos --quick

echo "== backend-matrix smoke run (fails on cross-backend divergence) =="
cargo run --release --offline -q -p bench --bin repro -- backend-matrix --quick

echo "== wallclock smoke run (executor seam: OS-thread bit-identity   =="
echo "==   with faults+restarts, 4-vs-1-worker speedup gate)           =="
cargo run --release --offline -q -p bench --bin repro -- wallclock --quick

echo "== dist smoke run (socket ranks: threads + OS processes vs mpi-sim, =="
echo "==   ephemeral loopback ports, every wire wait deadline-bounded)    =="
cargo run --release --offline -q -p bench --bin repro -- dist --quick

echo "== service smoke run (jitd daemon: in-process boot, seeded client  =="
echo "==   storm; every request ends in a reply or typed shed in-deadline) =="
cargo run --release --offline -q -p bench --bin repro -- service --quick

echo "== incremental re-JIT smoke run (asserts >=6x body-edit speedup   =="
echo "==   outside the optimizer, strictly fewer queries than cold,     =="
echo "==   bit-identical artifacts)                                     =="
cargo run --release --offline -q -p bench --bin repro -- incremental --quick

echo "== the ruler: benchmark/ is frozen and builds against layer-internal =="
echo "==   names, so a source-incompatible change must fail here, not in   =="
echo "==   the driver; then one smoke pass over all seven workloads        =="
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline -q --manifest-path benchmark/Cargo.toml --bin wjbench -- run --smoke

echo "== disk-cache round-trip smoke =="
# jit once (cold, persists the artifact), then re-jit from a fresh
# process and assert zero translator work (--expect-warm exits nonzero
# if anything translated).
CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR"' EXIT
cargo run --release --offline -q --example warm_start -- "$CACHE_DIR"
cargo run --release --offline -q --example warm_start -- "$CACHE_DIR" --expect-warm

echo "OK"

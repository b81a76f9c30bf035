#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the tier-1 build + test pass.
# Everything runs --offline; the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

# crates/bench/tests/emitted_c.rs compiles the emitted C and skips without
# a C compiler; here a missing one must fail, not hide that gate.
command -v cc >/dev/null || { echo "check.sh: no cc on PATH (the emitted-C gate needs one)"; exit 1; }

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

echo "== exec, gpu-sim, mpi-sim and dist tests again in release: overflow  =="
echo "==   checks are off there, so a decoder's unchecked offset+len (the    =="
echo "==   WFR1 frame reader and the dist Wire fuzzer included), or a        =="
echo "==   launch's wrapped dimension product, fails on a different line (or =="
echo "==   not at all) than in the debug run above                           =="
cargo test --release --offline -q -p exec -p gpu-sim
cargo test --release --offline -q -p mpi-sim -p dist

echo "== jlang and querydb tests again in release: the never-panic harness =="
echo "==   runs its release budget (20 000 mutants), the nesting limits hold =="
echo "==   on a 2 MB stack at optimized frame sizes too, and body            =="
echo "==   fingerprints are checked on the optimized build                   =="
cargo test --release --offline -q -p jlang
cargo test --release --offline -q -p querydb

echo "== translator tests again in release: the WJAR never-panic harness  =="
echo "==   runs its release budget, with overflow checks off                =="
cargo test --release --offline -q -p translator

echo "== nir tests again in release: the 4k-vs-32k scaling ratios are only   =="
echo "==   meaningful with the optimizer on (the debug run above keeps the     =="
echo "==   differential half), and the optimizer's own unit tests run on the   =="
echo "==   optimized build too                                                 =="
cargo test --release --offline -q -p nir

echo "== workspace tests again on real OS threads (WJ_EXECUTOR=threads; =="
echo "==   every assertion must hold bit-for-bit)                       =="
WJ_EXECUTOR=threads cargo test -q --offline

echo "== pass-profile smoke run (a cold compile stage by stage, front end  =="
echo "==   included)                                                         =="
cargo run --release --offline -q -p bench --bin repro -- pass-profile --quick

echo "== fault-matrix smoke run =="
cargo run --release --offline -q -p bench --bin repro -- fault-matrix --quick

echo "== restart-cost smoke run (asserts delta < full ckpt bytes at cadence 1) =="
cargo run --release --offline -q -p bench --bin repro -- restart-cost --quick

echo "== restart example (exits nonzero unless both recovered answers match =="
echo "==   the fault-free run bit for bit and the delta chain writes fewer bytes) =="
cargo run --release --offline -q --example restart

echo "== quickstart and incremental examples (each prints counters through =="
echo "==   the stats surface: translation stats, query deltas)              =="
cargo run --release --offline -q --example quickstart
cargo run --release --offline -q --example incremental

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

echo "== where exec::run landed in wjbench, and its size: builds whose     =="
echo "==   exec::run starts at different offsets mod 64 read up to +-10%   =="
echo "==   apart on exec-bound workloads with identical code, so report it =="
echo "==   beside any such drift                                           =="
wjbench="${CARGO_TARGET_DIR:-benchmark/target}/release/wjbench"
read -r addr size < <(nm -S -C "$wjbench" | awk '$4 == "exec::run" { a = $1; s = $2 } END { print a, s }')
if [ -n "$addr" ]; then
    echo "exec::run at 0x$addr: $((0x$addr % 64)) mod 64, $((0x$size)) bytes"
else
    echo "exec::run: no symbol in $wjbench (inlined?)"
fi
cargo run --release --offline -q --manifest-path benchmark/Cargo.toml --bin wjbench -- run --smoke

echo "== the ruler's own checks, traced: the decomposed cold translation   =="
echo "==   must equal the facade's, the incremental one the cold one; a     =="
echo "==   named workload exits 0 either way, so read its result line       =="
for w in compile-cold edit-rejit; do
    last="$(cargo run --release --offline -q --manifest-path benchmark/Cargo.toml --bin wjlayers -- trace --workload "$w" --seconds 1 | tail -n 1)"
    case "$last" in
        '{"correct":true,'*) echo "wjlayers $w: correct" ;;
        *) echo "wjlayers $w: not correct: ${last:0:200}"; exit 1 ;;
    esac
done

echo "== disk-cache round-trip smoke =="
# jit once (cold, persists the artifact), then re-jit from a fresh
# process and assert zero translator work (--expect-warm exits nonzero
# if anything translated).
CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR"' EXIT
cargo run --release --offline -q --example warm_start -- "$CACHE_DIR"
cargo run --release --offline -q --example warm_start -- "$CACHE_DIR" --expect-warm

echo "OK"

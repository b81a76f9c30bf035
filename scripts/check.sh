#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the tier-1 build + test pass.
# Everything runs --offline; the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

# crates/bench/tests/emitted_c.rs compiles the emitted C and skips without
# a C compiler; here a missing one must fail, not hide that gate.
command -v cc >/dev/null || { echo "check.sh: no cc on PATH (the emitted-C gate needs one)"; exit 1; }

echo "== no caller of Program::validate (a forward kept only for the frozen =="
echo "==   benchmark until ROADMAP item 4 (e) deletes it; call verify)        =="
if grep -rn --include='*.rs' '\.validate()' crates src tests examples; then
    echo "check.sh: the lines above call .validate(); call Program::verify"
    exit 1
fi

echo "== one body walk: a loop or a numeric cast is lowered in walk.rs only =="
echo "==   (lower.rs's const_eval folds constants)                          =="
stray="$(grep -rn --include='*.rs' -e 'TStmt::For' -e 'TExpr::NumCast' crates/translator/src \
    | grep -v -e '^crates/translator/src/walk\.rs:' || true)"
read -r from to < <(awk '/^pub fn const_eval\(/ { f = NR } f && !t && /^}/ { t = NR } END { print f + 0, t + 0 }' \
    crates/translator/src/lower.rs)
stray="$(printf '%s\n' "$stray" | awk -F: -v f="$from" -v t="$to" \
    '$0 != "" && !($1 == "crates/translator/src/lower.rs" && $2 >= f && $2 <= t)')"
if [ -n "$stray" ]; then
    echo "$stray"
    echo "check.sh: the lines above lower a statement or expression outside walk.rs"
    exit 1
fi

echo "== one shaped walk: sheval.rs holds no second walk of a body; the  =="
echo "==   lowering learns each return shape from the body's returns      =="
stray="$(grep -n -E 'fn (method_return|ctor_shape|ctor_chain|stmt|expr|block)\b' \
    crates/translator/src/sheval.rs || true)"
if [ -n "$stray" ]; then
    echo "$stray"
    echo "check.sh: the lines above walk a body in sheval.rs; lower it in walk.rs"
    exit 1
fi

echo "== one constructor run: a constructor chain is read in walk.rs (the   =="
echo "==   lowerers' walk::ctor) and sheval.rs (ctor_rule) only             =="
stray="$(grep -rn --include='*.rs' -e '\.superclass' -e 'ctor\.typed_body()' crates/translator/src \
    | grep -v -e '^crates/translator/src/walk\.rs:' -e '^crates/translator/src/sheval\.rs:' || true)"
if [ -n "$stray" ]; then
    echo "$stray"
    echo "check.sh: the lines above read a constructor chain outside walk.rs and sheval.rs"
    exit 1
fi

echo "== one resolve per warm start: mpi-sim resolves a chain's bytes only  =="
echo "==   in CkptState::warm_start, probe_chain and the test-only          =="
echo "==   restore_world; a rollback restores the cached snapshot           =="
stray="$(awk '
    match($0, /fn [a-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
    /resolve_(prefix|all)\(/ && f != "warm_start" && f != "probe_chain" && f != "restore_world" {
        print FILENAME ":" FNR ": " $0
    }' crates/mpi-sim/src/*.rs)"
if [ -n "$stray" ]; then
    echo "$stray"
    echo "check.sh: the lines above resolve a checkpoint chain outside the warm start"
    exit 1
fi

echo "== one workspace per connection: jitd builds a Workspace only in   =="
echo "==   check_out, which fills or refills a connection's slot          =="
stray="$(awk '
    FNR == 1 { t = 0 }
    /^#\[cfg\(test\)\]/ { t = 1 }
    match($0, /fn [a-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
    !t && /Workspace::(new|default)\(/ && f != "check_out" {
        print FILENAME ":" FNR ": " $0
    }' crates/jitd/src/*.rs crates/jitd/src/bin/*.rs)"
if [ -n "$stray" ]; then
    echo "$stray"
    echo "check.sh: the lines above build a Workspace per request; check one out of the slot"
    exit 1
fi

echo "== one integrity digest: artifacts, checkpoints and frames close with =="
echo "==   nir::hash::digest64 and one container version; no second digest, =="
echo "==   container version or seal pair comes back                        =="
stray="$( (grep -rn --include='*.rs' -E \
        'digest64_words|fnv1a64_avalanche|seal_ckpt|unseal_ckpt|CKPT_CONTAINER_VERSION|SealDigest' \
        crates/*/src || true
    grep -rn --include='*.rs' -E 'fn digest64\b' crates/*/src \
        | grep -v '^crates/nir/src/hash\.rs:' || true) )"
if [ -n "$stray" ]; then
    echo "$stray"
    echo "check.sh: the lines above name a second integrity digest, container version or seal"
    exit 1
fi

echo "== one entry check per launch: gpu-sim re-arms kernel threads from  =="
echo "==   the launch's exec::Entry (Thread::arm, Machine::next_position);   =="
echo "==   it builds or resets no thread from arguments, and exec has no     =="
echo "==   per-thread argument check left                                    =="
stray="$( (grep -rn --include='*.rs' -E 'Thread::new|\.reset\(' crates/gpu-sim/src || true
    grep -rn --include='*.rs' -E 'fn reset\b' crates/exec/src || true) )"
if [ -n "$stray" ]; then
    echo "$stray"
    echo "check.sh: the lines above check a kernel's arguments per thread; arm from the launch's Entry"
    exit 1
fi

echo "== one worker crew per world: exec::pool opens one thread scope (the =="
echo "==   crew's) and has no per-batch run_batch; mpi-sim starts no thread  =="
echo "==   and opens no scope of its own, it maps batches on that crew       =="
scopes="$(grep -n 'thread::scope' crates/exec/src/pool.rs | grep -v -E '^[0-9]+: *//' || true)"
stray="$( ( [ "$(printf '%s' "$scopes" | grep -c .)" -le 1 ] || printf '%s\n' "$scopes"
    grep -n -E 'fn run_batch\b' crates/exec/src/pool.rs || true
    grep -rn --include='*.rs' -E 'thread::(spawn|scope|Builder)|\.spawn\(' crates/mpi-sim/src || true) )"
if [ -n "$stray" ]; then
    echo "$stray"
    echo "check.sh: the lines above spawn workers per batch or outside exec::pool's one crew"
    exit 1
fi

echo "== one control-flow graph: nir's leader rule, block numbering and  =="
echo "==   successor table live in cfg.rs; no other file of crates/nir/src =="
echo "==   finds leaders, numbers blocks or builds a successor table       =="
stray="$(grep -rn --include='*.rs' -E \
        'fn (leaders|blocks_on_cycles)\b|let (mut )?succs\b|\bsuccs *:|leaders?\[pc \+ 1\] *=[^=]' \
        crates/nir/src | grep -v '^crates/nir/src/cfg\.rs:' || true)"
if [ -n "$stray" ]; then
    echo "$stray"
    echo "check.sh: the lines above work out a function's blocks outside nir::cfg; read a Cfg"
    exit 1
fi

echo "== one optimizer switch: OptConfig::local runs fold and dce together; =="
echo "==   no switch turns one local rewrite on without the others, and     =="
echo "==   local_fold takes the function and nothing else                   =="
stray="$( (grep -rnw --include='*.rs' -E 'const_fold|copy_prop|with_dce' crates/*/src || true
    grep -rn --include='*.rs' 'config\.dce' crates/*/src || true
    grep -rn --include='*.rs' -E 'fn local_fold\b' crates/*/src \
        | grep -v -E 'fn local_fold\([a-z_]+: &mut Function\)' || true) )"
if [ -n "$stray" ]; then
    echo "$stray"
    echo "check.sh: the lines above configure fold's rewrites one by one; use OptConfig::local"
    exit 1
fi

echo "== one rendezvous: a collective meets in RankCtl's state, with no     =="
echo "==   waiter list or AllOp of drive's own; RankCtl holds one state, not =="
echo "==   blocked/done/crashed, and only RankCtl's methods move its clocks  =="
stray="$( (grep -rn --include='*.rs' -E '_waiters|\bAllOp\b' crates/mpi-sim/src || true
    awk '
        /^pub struct RankCtl \{/ { s = 1; next }
        s && /^\}/ { s = 0 }
        s && /^ *(pub )?(blocked|done|crashed):/ { print FILENAME ":" FNR ": " $0 }
    ' crates/mpi-sim/src/runtime.rs
    awk '
        FNR == 1 { m = 0 }
        /^impl RankCtl \{/ { m = 1 }
        m && /^\}/ { m = 0 }
        /\.(vclock|compute_cycles|comm_cycles) *[-+*]?=[^=]/ &&
            !(m && /self\.(vclock|compute_cycles|comm_cycles)/) {
            print FILENAME ":" FNR ": " $0
        }
    ' crates/mpi-sim/src/*.rs crates/dist/src/*.rs) )"
if [ -n "$stray" ]; then
    echo "$stray"
    echo "check.sh: the lines above keep rank state outside RankCtl or move its clocks by hand"
    exit 1
fi

echo "== non-test lines under crates/*/src (aim 2's cost; scripts/loc.sh) =="
scripts/loc.sh

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

echo "== restart example (exits nonzero unless both recovered answers match =="
echo "==   the fault-free run bit for bit and the delta chain writes fewer bytes) =="
cargo run --release --offline -q --example restart

echo "== quickstart and incremental examples (each prints counters through =="
echo "==   the stats surface: translation stats, query deltas)              =="
cargo run --release --offline -q --example quickstart
cargo run --release --offline -q --example incremental

# Every experiment, smoke-sized: the paper's figures and tables, and the
# gates, each of which panics (so repro exits nonzero) on a broken claim:
#   fault-matrix    no cell ends in an untyped failure (outcome code 0);
#   restart-cost    delta chains write fewer bytes than full snapshots at
#                   cadence 1, and never change a run's outcome;
#   chaos           every storm world completes bit-identically or fails
#                   typed; at cadence 1 deltas beat full snapshots on bytes
#                   and on virtual time lost; a damaged chain warm-restarts
#                   from its deepest valid link;
#   backend-matrix  every registered platform returns the exact f64, with
#                   and without crashes, and device platforms agree on a
#                   kernel checksum;
#   wallclock       threads-replay equals sim bit for bit, faults and
#                   restarts included (the 4-vs-1-worker speedup gate arms
#                   only on >= 4 cores);
#   incremental     a body edit runs strictly fewer queries than cold, its
#                   artifact equals a from-scratch build, and it is >= 6x
#                   faster than cold outside the optimizer;
#   dist            socket ranks, as threads and as OS processes, equal
#                   mpi-sim bit for bit, and recover from crashes (ports
#                   are ephemeral, every wire wait deadline-bounded);
#   service         every jitd request ends in a reply or a typed shed in
#                   its deadline, and same-key clients share one translation.
# pass-profile profiles a cold compile stage by stage, front end included.
echo "== repro all --quick: every figure, table and gate =="
cargo run --release --offline -q -p bench --bin repro -- all --quick

echo "== BENCH_figures.json: the pinned figures, regenerated in release and =="
echo "==   on real OS threads, must equal the committed file byte for byte  =="
cargo run --release --offline -q -p bench --bin repro -- figures --write
git diff --exit-code -- BENCH_figures.json
WJ_EXECUTOR=threads cargo run --release --offline -q -p bench --bin repro -- figures \
    | diff BENCH_figures.json -

echo "== BENCH_counts.json: what each ruler program retires and counts,    =="
echo "==   regenerated in release and on real OS threads, byte for byte     =="
cargo run --release --offline -q -p bench --bin repro -- counts --write
git diff --exit-code -- BENCH_counts.json
WJ_EXECUTOR=threads cargo run --release --offline -q -p bench --bin repro -- counts \
    | diff BENCH_counts.json -

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

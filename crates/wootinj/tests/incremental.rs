//! Incremental recompilation through `Workspace`: invalidation
//! granularity, early cutoff, and the determinism contract.
//!
//! The counters are deterministic (no wall-clock assertions here — the
//! enforced latency bound lives in `bench repro incremental`):
//!
//! * a value-only body edit re-typechecks exactly the edited body and
//!   replays every untouched function memo;
//! * a whitespace/comment edit early-cutoffs at the item tree — zero
//!   typeck, zero lowering, same source fingerprint;
//! * a signature edit (new method on a class) invalidates exactly the
//!   edited class's bodies plus bodies that reference it — callers —
//!   and nothing else;
//! * appending a new class keeps existing class ids (and so item
//!   fingerprints) stable, reusing every existing typeck memo;
//! * a seeded property test applies random edit scripts and asserts the
//!   incremental artifact is bit-identical (`encode`) to a
//!   from-scratch build of the same sources at every step;
//! * bodies are shared between revisions, not copied: an edit that
//!   changes nothing semantic leaves the snapshot alone, and after a
//!   failed edit and its fix every body of the rebuilt table is the
//!   allocation the previous good revision held;
//! * replacing a file's whole text, program after program (a class
//!   renamed, failed compiles in between), keys and translates each
//!   program as a workspace that only ever held it.

use std::sync::Arc;

use jvm::Value;
use wootinj::{JitOptions, QueryStats, Val, Workspace};

/// `Scale.unit` is a helper small enough to be spliced into `f`, and `f`
/// into `App.run`, so edits to it reach a callee inlined two levels deep.
const OPS: &str = "
    @WootinJ final class Scale {
      float k;
      Scale(float k0) { k = k0; }
      float unit(float x) { return x * 1f; }
      float f(float x) { return unit(k * x); }
    }
    @WootinJ final class Square {
      Square() { }
      float g(float x) { return x * x; }
    }";

const APP: &str = "
    @WootinJ final class App {
      Scale s; Square q;
      App(Scale s0, Square q0) { s = s0; q = q0; }
      float run(float[] data) {
        float acc = 0f;
        for (int i = 0; i < data.length; i++) {
          acc += s.f(data[i]) + q.g(data[i]);
        }
        return acc;
      }
    }";

/// Build a workspace holding `sources` (applied in order).
fn workspace(sources: &[(&str, &str)]) -> Workspace {
    let mut ws = Workspace::new();
    for (name, text) in sources {
        ws.set_source(name, text).unwrap();
    }
    ws
}

/// JIT `App.run([1, 2, 3])` in a fresh env over `ws` and return the
/// result value plus the artifact bytes and the per-jit query
/// delta.
fn jit_app(ws: &Workspace) -> (Option<Val>, Vec<u8>, QueryStats) {
    let mut env = ws.env().unwrap();
    let s = env.new_instance("Scale", &[Value::Float(3.0)]).unwrap();
    let q = env.new_instance("Square", &[]).unwrap();
    let app = env.new_instance("App", &[s, q]).unwrap();
    let data = env.new_f32_array(&[1.0, 2.0, 3.0]);
    let code = env
        .jit(&app, "run", &[data], JitOptions::wootinj())
        .unwrap();
    let result = code.invoke(&env).unwrap().result;
    (result, code.translated.encode(), code.query_stats())
}

/// From-scratch reference: a brand-new workspace over the same sources.
fn scratch_artifact(sources: &[(&str, &str)]) -> Vec<u8> {
    let ws = workspace(sources);
    jit_app(&ws).1
}

#[test]
fn value_edit_retypechecks_only_the_edited_body() {
    let mut ws = workspace(&[("ops.jl", OPS), ("app.jl", APP)]);
    let (cold, _, _) = jit_app(&ws);
    assert_eq!(cold, Some(Val::F32(3.0 + 1.0 + 6.0 + 4.0 + 9.0 + 9.0)));

    // Change only the *body* of Square.g; the item tree is untouched.
    let edited = OPS.replace("return x * x;", "return x * x + 0.5f;");
    let before = ws.query_stats();
    ws.edit("ops.jl", &edited).unwrap();
    let delta = ws.query_stats().since(&before);

    assert_eq!(delta.parse_executed, 1, "only ops.jl re-parsed");
    assert_eq!(
        delta.typeck_executed, 1,
        "exactly the edited body (Square.g) re-typechecks"
    );
    assert!(
        delta.typeck_reused >= 3,
        "Scale.f, Scale ctor and Square ctor replay their memos: {delta:?}"
    );

    // The re-jit replays every function memo except Square.g (and its
    // caller App.run, whose callee edge changed).
    let (warm, warm_bytes, jit_delta) = jit_app(&ws);
    assert_eq!(warm, Some(Val::F32(3.0 + 1.5 + 6.0 + 4.5 + 9.0 + 9.5)));
    assert!(
        jit_delta.lower_reused > 0,
        "untouched functions replay from memos: {jit_delta:?}"
    );
    assert!(
        jit_delta.lower_executed < jit_delta.lower_executed + jit_delta.lower_reused,
        "not everything re-lowers"
    );

    // Determinism contract: bit-identical to a from-scratch build.
    let scratch = scratch_artifact(&[("ops.jl", &edited), ("app.jl", APP)]);
    assert_eq!(warm_bytes, scratch, "incremental artifact diverged");
}

#[test]
fn whitespace_edit_early_cutoffs_everything_downstream() {
    let mut ws = workspace(&[("ops.jl", OPS), ("app.jl", APP)]);
    let (_, cold_bytes, _) = jit_app(&ws);
    let fp = ws.db().source_fingerprint();

    let before = ws.query_stats();
    let commented = format!("{APP}\n// a trailing comment, spans shift\n");
    ws.edit("app.jl", &commented).unwrap();
    let delta = ws.query_stats().since(&before);

    assert_eq!(delta.parse_executed, 1, "the edited file re-parses");
    assert_eq!(delta.typeck_executed, 0, "nothing re-typechecks");
    assert!(
        delta.early_cutoffs >= 1,
        "cutoff at the item tree: {delta:?}"
    );
    assert_eq!(
        ws.db().source_fingerprint(),
        fp,
        "semantic fingerprint is whitespace-insensitive"
    );

    // Re-jit: pure replay — zero fresh lowering, one program query.
    let (_, warm_bytes, jit_delta) = jit_app(&ws);
    assert_eq!(jit_delta.typeck_executed, 0);
    assert_eq!(
        jit_delta.lower_executed, 0,
        "all memos replayed: {jit_delta:?}"
    );
    assert_eq!(jit_delta.translates, 1);
    assert_eq!(warm_bytes, cold_bytes, "artifact unchanged by whitespace");
}

#[test]
fn the_first_set_source_builds_prelude_and_file_in_one_rebuild() {
    let mut ws = Workspace::new();
    ws.set_source("ops.jl", OPS).unwrap();
    assert_eq!(ws.rebuild_laps().rebuilds, 1);
    let stats = ws.query_stats();
    assert_eq!((stats.parse_executed, stats.parse_reused), (2, 0));
    assert_eq!(stats.typeck_reused, 0, "nothing was checked twice");

    // Same work, same class ids, as the prelude compiled on its own first.
    let mut db = wootinj::Database::new();
    db.set_source("<prelude>", wootinj::prelude::PRELUDE)
        .unwrap();
    db.set_source("ops.jl", OPS).unwrap();
    assert_eq!(stats.executed(), db.stats().executed());
    assert_eq!(ws.revision(), db.revision());
    let table = wootinj::build_table(&[("ops.jl", OPS)]).unwrap();
    let names = |t: &jlang::table::ClassTable| -> Vec<String> {
        t.iter().map(|c| format!("{:?} {}", c.id, c.name)).collect()
    };
    assert_eq!(names(ws.db().table().unwrap()), names(&table));
    assert_eq!(names(db.table().unwrap()), names(&table));
}

#[test]
fn whitespace_edit_leaves_the_snapshot_untouched() {
    let mut ws = workspace(&[("ops.jl", OPS), ("app.jl", APP)]);
    assert!(ws.db().table().unwrap().classes.len() >= 8);
    let before = ws.db().typed_blocks();
    let laps = ws.rebuild_laps();

    ws.edit("ops.jl", &format!("\n  // moved down a line\n{OPS}"))
        .unwrap();

    // The rebuild stopped at the item tree: no unit was handed over, no
    // table built, no snapshot installed.
    let d = ws.rebuild_laps().since(&laps);
    assert_eq!(d.rebuilds, 1);
    assert!(d.parse_ns > 0 && d.item_tree_ns > 0, "{d:?}");
    assert_eq!(
        (
            d.hand_over_ns,
            d.table_build_ns,
            d.typeck_ns,
            d.write_back_ns,
            d.install_ns
        ),
        (0, 0, 0, 0, 0),
        "{d:?}"
    );
    let after = ws.db().typed_blocks();
    assert_eq!(after.len(), before.len());
    for ((bid, body), (_, old)) in after.iter().zip(&before) {
        assert!(Arc::ptr_eq(body, old), "{bid:?} moved");
    }
}

#[test]
fn a_failed_edit_and_its_fix_restore_sharing_and_the_cold_artifact() {
    let mut ws = workspace(&[("ops.jl", OPS), ("app.jl", APP)]);
    let (_, cold_bytes, _) = jit_app(&ws);
    let before = ws.db().typed_blocks();
    assert!(before.len() >= 8, "{} bodies", before.len());

    assert!(ws.edit("ops.jl", "final class Scale {").is_err());
    assert!(ws.db().table().is_none(), "no snapshot of a broken program");
    assert!(ws.db().typed_blocks().is_empty());

    // The fix re-parses ops.jl — new untyped bodies — and builds a new
    // table, whose every typed body is the one the memos kept.
    let stats = ws.query_stats();
    ws.edit("ops.jl", OPS).unwrap();
    let d = ws.query_stats().since(&stats);
    assert_eq!((d.parse_executed, d.typeck_executed), (1, 0), "{d:?}");
    let after = ws.db().typed_blocks();
    assert_eq!(after.len(), before.len());
    for ((bid, body), (old_bid, old)) in after.iter().zip(&before) {
        assert_eq!(bid, old_bid);
        assert!(
            Arc::ptr_eq(body, old),
            "{bid:?} was checked or copied again"
        );
    }

    let (_, warm_bytes, _) = jit_app(&ws);
    assert_eq!(warm_bytes, cold_bytes);
    assert_eq!(
        warm_bytes,
        scratch_artifact(&[("ops.jl", OPS), ("app.jl", APP)]),
        "not the artifact of a cold build"
    );
}

#[test]
fn signature_edit_invalidates_exactly_the_callers() {
    let mut ws = workspace(&[("ops.jl", OPS), ("app.jl", APP)]);
    jit_app(&ws);

    // Add a method to Scale: its item fingerprint changes, so Scale's
    // own bodies (ctor, unit, f, h) and every body referencing Scale
    // (App's ctor and run) re-typecheck. Square's bodies never mention
    // Scale and must replay their memos untouched.
    let edited = OPS.replace(
        "float f(float x) { return unit(k * x); }",
        "float f(float x) { return unit(k * x); }\n      float h(float x) { return x; }",
    );
    let before = ws.query_stats();
    ws.edit("ops.jl", &edited).unwrap();
    let delta = ws.query_stats().since(&before);

    assert_eq!(
        delta.typeck_executed, 6,
        "Scale {{ctor, unit, f, h}} + App {{ctor, run}} re-typecheck, nothing else: {delta:?}"
    );
    assert!(
        delta.typeck_reused >= 2,
        "Square's ctor and g replay their memos: {delta:?}"
    );

    let (_, warm_bytes, _) = jit_app(&ws);
    let scratch = scratch_artifact(&[("ops.jl", &edited), ("app.jl", APP)]);
    assert_eq!(warm_bytes, scratch, "incremental artifact diverged");
}

#[test]
fn new_class_append_keeps_existing_memos() {
    let mut ws = workspace(&[("ops.jl", OPS), ("app.jl", APP)]);
    jit_app(&ws);

    // A new class in a new trailing file: existing class ids (assigned
    // in declaration order across files) are stable, so every existing
    // item fingerprint — and with it every typeck memo — stays valid.
    let extra = "@WootinJ final class Extra { Extra() { } float e(float x) { return x + 1f; } }";
    let before = ws.query_stats();
    ws.set_source("extra.jl", extra).unwrap();
    let delta = ws.query_stats().since(&before);

    assert_eq!(
        delta.typeck_executed, 2,
        "only the new class's ctor and e typecheck: {delta:?}"
    );
    assert!(
        delta.typeck_reused >= 6,
        "existing bodies replay: {delta:?}"
    );

    let (warm, warm_bytes, _) = jit_app(&ws);
    assert_eq!(warm, Some(Val::F32(3.0 + 1.0 + 6.0 + 4.0 + 9.0 + 9.0)));
    let scratch = scratch_artifact(&[("ops.jl", OPS), ("app.jl", APP), ("extra.jl", extra)]);
    assert_eq!(warm_bytes, scratch, "incremental artifact diverged");
}

/// xorshift64* — deterministic, dependency-free PRNG for the edit
/// scripts (same idiom as `tests/property_tests.rs`).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[test]
fn seeded_edit_scripts_stay_bit_identical_to_scratch() {
    for seed in [0x5eed_0001_u64, 0xdead_beef, 0x0bad_cafe] {
        let mut rng = Rng(seed);
        // Mutable source model mirrored into the incremental workspace.
        // Insertion order matters: class ids are assigned in file order,
        // so the scratch reference must replay the same order.
        let mut sources: Vec<(String, String)> =
            vec![("ops.jl".into(), OPS.into()), ("app.jl".into(), APP.into())];
        let upsert = |sources: &mut Vec<(String, String)>, name: &str, text: &str| match sources
            .iter_mut()
            .find(|(n, _)| n == name)
        {
            Some((_, t)) => *t = text.to_string(),
            None => sources.push((name.to_string(), text.to_string())),
        };
        let mut ws = Workspace::new();
        for (name, text) in &sources {
            ws.set_source(name, text).unwrap();
        }
        let mut extras = 0u32;

        for step in 0..6 {
            let before = ws.query_stats();
            match rng.below(5) {
                // Value edit: retune Square.g's constant offset.
                0 => {
                    let c = rng.below(9);
                    let text = OPS.replace("return x * x;", &format!("return x * x + {c}f;"));
                    upsert(&mut sources, "ops.jl", &text);
                    ws.edit("ops.jl", &text).unwrap();
                }
                // Value edit of the helper spliced into a spliced callee.
                4 => {
                    let c = 1 + rng.below(3);
                    let text = OPS.replace("return x * 1f;", &format!("return x * {c}f;"));
                    upsert(&mut sources, "ops.jl", &text);
                    ws.edit("ops.jl", &text).unwrap();
                }
                // Body edit: restructure App.run's accumulation.
                1 => {
                    let c = rng.below(5);
                    let text = APP.replace(
                        "acc += s.f(data[i]) + q.g(data[i]);",
                        &format!("acc += q.g(data[i]) + s.f(data[i]) * {c}f;"),
                    );
                    upsert(&mut sources, "app.jl", &text);
                    ws.edit("app.jl", &text).unwrap();
                }
                // Whitespace edit: append a comment to app.jl. Must be
                // a pure early cutoff regardless of history.
                2 => {
                    let cur = sources
                        .iter()
                        .find(|(n, _)| n == "app.jl")
                        .unwrap()
                        .1
                        .clone();
                    let text = format!("{cur}\n// step {step}\n");
                    upsert(&mut sources, "app.jl", &text);
                    ws.edit("app.jl", &text).unwrap();
                    let delta = ws.query_stats().since(&before);
                    assert_eq!(
                        delta.typeck_executed, 0,
                        "seed {seed:#x} step {step}: whitespace re-typechecked"
                    );
                }
                // New-class append: a fresh trailing file.
                3 => {
                    extras += 1;
                    let name = format!("extra{extras}.jl");
                    let text = format!(
                        "@WootinJ final class Extra{extras} {{ Extra{extras}() {{ }} \
                         float e(float x) {{ return x + {extras}f; }} }}"
                    );
                    upsert(&mut sources, &name, &text);
                    ws.set_source(&name, &text).unwrap();
                }
                _ => unreachable!(),
            }

            // Determinism contract, every step: the incremental artifact
            // is bit-identical to a from-scratch build of the same
            // sources at this revision.
            let (incr_result, incr_bytes, _) = jit_app(&ws);
            let pairs: Vec<(&str, &str)> = sources
                .iter()
                .map(|(n, t)| (n.as_str(), t.as_str()))
                .collect();
            let scratch_ws = workspace(&pairs);
            let (scratch_result, scratch_bytes, _) = jit_app(&scratch_ws);
            assert_eq!(
                incr_bytes, scratch_bytes,
                "seed {seed:#x} step {step}: artifact diverged from scratch"
            );
            assert_eq!(incr_result, scratch_result, "seed {seed:#x} step {step}");
        }
    }
}

/// The entry argument of a program in
/// [`whole_file_replacement_keys_and_translates_as_a_fresh_workspace`].
enum Arg {
    Int(i32),
    Floats(&'static [f32]),
}

/// One text that replaces the whole of `svc.jl`: a program whose entry
/// is `class.run(arg)`, or a text that fails to compile.
enum Text {
    Program {
        text: String,
        class: &'static str,
        arg: Arg,
    },
    Fails(&'static str),
}

/// The cache key and encoded artifact of `class.run(arg)`, jitted in a
/// fresh env (an empty memory tier) over `ws`, and the jit's query delta.
fn key_and_artifact(
    ws: &Workspace,
    class: &str,
    arg: &Arg,
) -> (wootinj::cache::CacheKey, Vec<u8>, QueryStats) {
    let mut env = ws.env().unwrap();
    let recv = env.new_instance(class, &[]).unwrap();
    let arg = match arg {
        Arg::Int(x) => Value::Int(*x),
        Arg::Floats(xs) => env.new_f32_array(xs),
    };
    let options = JitOptions::wootinj();
    let key = env
        .cache_key(&recv, "run", std::slice::from_ref(&arg), options.config, 0)
        .unwrap();
    let code = env.jit(&recv, "run", &[arg], options).unwrap();
    (key, code.translated.encode(), code.query_stats())
}

/// A daemon connection replaces one file's whole text request after
/// request. After every successful `set_source`, the workspace keys and
/// translates the program exactly as a fresh workspace holding only
/// that text does.
#[test]
fn whole_file_replacement_keys_and_translates_as_a_fresh_workspace() {
    let a = "
        final class Step {
          Step() { }
          int next(int s, int i) { return s + i * 3; }
        }
        @WootinJ final class Svc {
          Step st;
          Svc() { st = new Step(); }
          int run(int x) {
            int s = 0;
            for (int i = 0; i < x; i++) { s = st.next(s, i); }
            return s;
          }
        }";
    let program = |text: &str, class, arg| Text::Program {
        text: text.to_string(),
        class,
        arg,
    };
    let script = [
        program(a, "Svc", Arg::Int(6)),
        // A body edit: `Step.next`'s memo replays.
        program(&a.replace("i < x", "i <= x"), "Svc", Arg::Int(6)),
        // The class renamed; `Step` unchanged at the same class id.
        program(
            &a.replace("Svc", "Job").replace("i < x", "i < x + 1"),
            "Job",
            Arg::Int(6),
        ),
        Text::Fails("@WootinJ final class Svc { Svc() { } int run(int x) { return x * ; } }"),
        program(
            "final class Scale {
              final float k;
              Scale(float f) { k = f; }
              float apply(float v) { return v * k; }
            }
            @WootinJ final class Svc {
              final Scale s;
              Svc() { s = new Scale(0.5f); }
              float run(float[] a) {
                float t = 0f;
                for (int i = 0; i < a.length; i++) { t += s.apply(a[i]); }
                return t;
              }
            }",
            "Svc",
            Arg::Floats(&[1.5, -2.25, 3.0]),
        ),
        Text::Fails("@WootinJ final class Svc { Svc() { } int run(int x) { return y; } }"),
        program(a, "Svc", Arg::Int(9)),
        // `Step` changed and moved behind a new class, so ids shift.
        program(
            &format!(
                "final class Pad {{ Pad() {{ }} }} {}",
                a.replace("i * 3", "i * 5")
            ),
            "Svc",
            Arg::Int(6),
        ),
    ];

    let mut ws = Workspace::new();
    let (mut checked, mut replayed) = (0, 0);
    for (step, t) in script.iter().enumerate() {
        let (text, class, arg) = match t {
            Text::Fails(text) => {
                assert!(ws.set_source("svc.jl", text).is_err(), "step {step}");
                continue;
            }
            Text::Program { text, class, arg } => (text.as_str(), *class, arg),
        };
        ws.set_source("svc.jl", text).unwrap();
        let (key, bytes, delta) = key_and_artifact(&ws, class, arg);
        let fresh = workspace(&[("svc.jl", text)]);
        let (fresh_key, fresh_bytes, _) = key_and_artifact(&fresh, class, arg);
        assert!(key == fresh_key, "step {step}: the cache key diverged");
        assert!(bytes == fresh_bytes, "step {step}: the artifact diverged");
        checked += 1;
        replayed += delta.lower_reused;
    }
    assert_eq!(checked, 6);
    assert!(replayed > 0, "the body edit replays `Step.next`'s memo");
}

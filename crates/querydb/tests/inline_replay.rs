//! Replay under function inlining: a `lower_fn` memo holds its
//! function's *optimized* body, with its spliced callees inside, so it
//! may replay only while every callee it could splice splices as it did.
//! Each test compares the incremental artifact with a fresh `Database`'s
//! and with the classic `translator::translate`.

use jvm::{Jvm, Value};
use querydb::Database;
use translator::{TransConfig, Translated};

const SRC: &str = "
    @WootinJ final class Scale {
      float k;
      Scale(float k0) { k = k0; }
      float apply(float x) { return k * x; }
      float twice(float x) { return x * 2f; }
    }
    @WootinJ final class App {
      Scale s;
      App(Scale s0) { s = s0; }
      float run(float x) { return s.apply(x) + 1.0f; }
    }";

/// The `JitOptions::wootinj()` preset: Full, with function inlining.
fn preset() -> TransConfig {
    let mut config = TransConfig::full();
    config.opt.inline_limit = nir::OptConfig::aggressive().inline_limit;
    config
}

fn jit(db: &Database) -> Translated {
    let table = db.table().unwrap();
    let mut jvm = Jvm::new(table).unwrap();
    let s = jvm.new_instance("Scale", &[Value::Float(2.0)]).unwrap();
    let app = jvm.new_instance("App", &[s]).unwrap();
    db.translate(&jvm, &app, "run", &[Value::Float(3.0)], preset())
        .unwrap()
}

/// `src` built from scratch, incrementally and classically, which must
/// agree; returns the artifact.
fn from_scratch(src: &str) -> Vec<u8> {
    let mut db = Database::new();
    db.set_source("app.jl", src).unwrap();
    let bytes = jit(&db).encode();
    let table = jlang::compile_str(src).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let s = jvm.new_instance("Scale", &[Value::Float(2.0)]).unwrap();
    let app = jvm.new_instance("App", &[s]).unwrap();
    let classic =
        translator::translate(&table, &jvm, &app, "run", &[Value::Float(3.0)], preset()).unwrap();
    assert_eq!(bytes, classic.encode(), "diverged from classic");
    bytes
}

/// Calls left in the entry function.
fn calls(t: &Translated) -> usize {
    let run = &t.program.funcs[t.entry.0 as usize];
    (run.code.iter())
        .filter(|i| matches!(i, nir::Instr::Call { .. }))
        .count()
}

#[test]
fn an_edit_of_a_spliced_callee_never_replays_its_stale_caller() {
    let mut db = Database::new();
    db.set_source("app.jl", SRC).unwrap();
    assert_eq!(calls(&jit(&db)), 0, "apply is spliced into run");

    // `run`'s memo holds `apply`'s old body: it must re-lower with `apply`.
    let edited = SRC.replace("k * x", "k * x + 0.5f");
    db.edit("app.jl", &edited).unwrap();
    let before = db.stats();
    let warm = jit(&db).encode();
    let d = db.stats().since(&before);
    assert_eq!((d.lower_executed, d.lower_reused), (2, 0), "{d:?}");
    assert_eq!(warm, from_scratch(&edited));

    // An edit to a body neither function read replays both.
    let unrelated = edited.replace("x * 2f", "x * 3f");
    db.edit("app.jl", &unrelated).unwrap();
    let before = db.stats();
    let again = jit(&db).encode();
    let d = db.stats().since(&before);
    assert_eq!((d.lower_executed, d.lower_reused), (0, 2), "{d:?}");
    assert_eq!(again, from_scratch(&unrelated));
}

#[test]
fn a_callee_that_shrinks_under_the_limit_is_spliced_after_the_edit() {
    let steps: String = (1..=60).map(|i| format!("a = a + x * {i}.5f; ")).collect();
    let big = SRC.replace(
        "return k * x;",
        &format!("float a = k * x; {steps}return a;"),
    );
    let mut db = Database::new();
    db.set_source("app.jl", &big).unwrap();
    assert_eq!(calls(&jit(&db)), 1, "apply is over the limit");

    // `run`'s own lowering is unchanged, but its splice decision is not.
    db.edit("app.jl", SRC).unwrap();
    let t = jit(&db);
    assert_eq!(calls(&t), 0, "apply is spliced now");
    assert_eq!(t.encode(), from_scratch(SRC));
}

/// `split` returns a two-leaf `Pair`, so Full mode splices it into `run`
/// and counts what its body does (a devirtualized call of `apply`, a
/// constructor run) as `run`'s own. A replayed `run` adds the counts its
/// memo recorded, so the artifact, statistics included, must equal a
/// fresh build's whichever functions replay.
#[test]
fn a_spliced_composite_return_replays_with_its_callers_counts() {
    let src = SRC.replace(
        "float twice(float x)",
        "Pair split(float x) { return new Pair(apply(x), x - 1f); }
         float twice(float x)",
    )
    .replace("return s.apply(x) + 1.0f;", "Pair p = s.split(x); return p.a + p.b;")
        + "@WootinJ final class Pair { float a; float b; Pair(float a0, float b0) { a = a0; b = b0; } }";
    let mut db = Database::new();
    db.set_source("app.jl", &src).unwrap();
    let cold = jit(&db);
    assert_eq!(cold.stats.inlined_calls, 1, "split is spliced into run");
    assert_eq!(cold.encode(), from_scratch(&src));

    // An edit to a body neither function read replays both, the counts
    // of the splice included.
    let unrelated = src.replace("x * 2f", "x * 3f");
    db.edit("app.jl", &unrelated).unwrap();
    let before = db.stats();
    let warm = jit(&db).encode();
    let d = db.stats().since(&before);
    assert_eq!((d.lower_executed, d.lower_reused), (0, 2), "{d:?}");
    assert_eq!(warm, from_scratch(&unrelated));

    // `run` read the spliced body: an edit there re-lowers `run` alone.
    let edited = unrelated.replace("x - 1f", "x - 2f");
    db.edit("app.jl", &edited).unwrap();
    let before = db.stats();
    let warm = jit(&db).encode();
    let d = db.stats().since(&before);
    assert_eq!((d.lower_executed, d.lower_reused), (1, 1), "{d:?}");
    assert_eq!(warm, from_scratch(&edited));
}

//! JIT code-cache semantics: what must hit, what must miss, how the LRU
//! bound evicts, and what the counters read after each `jit`.
//!
//! The correctness hinge (ISSUE 1): the key incorporates everything
//! translation reads. Two live object graphs differing only in field
//! *values* share a cache entry; graphs differing in exact types, array
//! shapes, `OptConfig`/`Mode`, rule-check mode, or the host-FFI registry
//! do not.

use std::sync::Arc;
use std::time::{Duration, Instant};

use jvm::Value;
use wootinj::{build_table, JitOptions, OptConfig, Val, WootinJ, Workspace};

const APP: &str = "
    @WootinJ interface Op { float f(float x); }
    @WootinJ final class Dbl implements Op { Dbl() { } float f(float x) { return x * 2f; } }
    @WootinJ final class Sqr implements Op { Sqr() { } float f(float x) { return x * x; } }
    @WootinJ final class Runner {
      Op op; float bias;
      Runner(Op o, float b) { op = o; bias = b; }
      float run(float[] data) {
        float s = bias;
        for (int i = 0; i < data.length; i++) { s += op.f(data[i]); }
        return s;
      }
    }";

#[test]
fn value_only_changes_share_a_cache_entry() {
    let table = build_table(&[("app.jl", APP)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    // Two graphs with identical exact-type structure but different field
    // values and different array contents (same length is not required —
    // shapes track element type, not length).
    let d1 = env.new_instance("Dbl", &[]).unwrap();
    let r1 = env
        .new_instance("Runner", &[d1, Value::Float(1.0)])
        .unwrap();
    let a1 = env.new_f32_array(&[1.0, 2.0]);
    let d2 = env.new_instance("Dbl", &[]).unwrap();
    let r2 = env
        .new_instance("Runner", &[d2, Value::Float(-7.5)])
        .unwrap();
    let a2 = env.new_f32_array(&[10.0, 20.0, 30.0]);

    let c1 = env.jit(&r1, "run", &[a1], JitOptions::wootinj()).unwrap();
    let c2 = env.jit(&r2, "run", &[a2], JitOptions::wootinj()).unwrap();

    assert_eq!(env.cache_stats().misses, 1, "first jit translates");
    assert_eq!(env.cache_stats().hits, 1, "second jit is a pure cache hit");
    assert!(
        Arc::ptr_eq(&c1.translated, &c2.translated),
        "both codes share one translated program"
    );

    // The shared program still computes per-invocation results: the
    // bias/data are bound at invoke time, not baked into the code.
    assert_eq!(
        c1.invoke(&env).unwrap().result,
        Some(Val::F32(1.0 + 2.0 + 4.0))
    );
    assert_eq!(
        c2.invoke(&env).unwrap().result,
        Some(Val::F32(-7.5 + 20.0 + 40.0 + 60.0))
    );
}

#[test]
fn type_changes_miss() {
    let table = build_table(&[("app.jl", APP)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let d = env.new_instance("Dbl", &[]).unwrap();
    let rd = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
    let s = env.new_instance("Sqr", &[]).unwrap();
    let rs = env.new_instance("Runner", &[s, Value::Float(0.0)]).unwrap();
    let a = env.new_f32_array(&[3.0]);

    let cd = env
        .jit(&rd, "run", std::slice::from_ref(&a), JitOptions::wootinj())
        .unwrap();
    let cs = env.jit(&rs, "run", &[a], JitOptions::wootinj()).unwrap();
    assert_eq!(
        env.cache_stats().misses,
        2,
        "different exact field types are different keys"
    );
    assert_eq!(env.cache_stats().hits, 0);
    assert_eq!(cd.invoke(&env).unwrap().result, Some(Val::F32(6.0)));
    assert_eq!(cs.invoke(&env).unwrap().result, Some(Val::F32(9.0)));
}

#[test]
fn array_shape_changes_miss() {
    const A: &str = "
        @WootinJ final class Sum {
          Sum() { }
          float runF(float[] a) { float s = 0f; for (int i = 0; i < a.length; i++) { s += a[i]; } return s; }
        }";
    let table = build_table(&[("a.jl", A)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let sum = env.new_instance("Sum", &[]).unwrap();
    let f = env.new_f32_array(&[1.0, 2.0]);
    env.jit(
        &sum,
        "runF",
        std::slice::from_ref(&f),
        JitOptions::wootinj(),
    )
    .unwrap();
    // Same element type, different length: same shape, must hit.
    let f2 = env.new_f32_array(&[5.0, 6.0, 7.0]);
    env.jit(&sum, "runF", &[f2], JitOptions::wootinj()).unwrap();
    assert_eq!(
        env.cache_stats().hits,
        1,
        "array length is not part of the shape"
    );
    assert_eq!(env.cache_stats().misses, 1);
}

#[test]
fn opt_config_and_mode_changes_miss() {
    let table = build_table(&[("app.jl", APP)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let d = env.new_instance("Dbl", &[]).unwrap();
    let r = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
    let a = env.new_f32_array(&[1.0]);

    env.jit(&r, "run", std::slice::from_ref(&a), JitOptions::wootinj())
        .unwrap();
    env.jit(
        &r,
        "run",
        std::slice::from_ref(&a),
        JitOptions::wootinj().with_opt(OptConfig::aggressive()),
    )
    .unwrap();
    env.jit(&r, "run", std::slice::from_ref(&a), JitOptions::template())
        .unwrap();
    env.jit(&r, "run", std::slice::from_ref(&a), JitOptions::cpp())
        .unwrap();
    // Same graph, same method — but every config difference is a distinct key.
    assert_eq!(env.cache_stats().misses, 4);
    assert_eq!(env.cache_stats().hits, 0);
    // And re-running the first config is a hit again.
    env.jit(&r, "run", &[a], JitOptions::wootinj()).unwrap();
    assert_eq!(env.cache_stats().hits, 1);
}

#[test]
fn rule_check_mode_changes_miss() {
    let table = build_table(&[("app.jl", APP)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let d = env.new_instance("Dbl", &[]).unwrap();
    let r = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
    let a = env.new_f32_array(&[1.0]);
    env.jit(&r, "run", std::slice::from_ref(&a), JitOptions::wootinj())
        .unwrap();
    env.jit(&r, "run", &[a], JitOptions::wootinj().unchecked())
        .unwrap();
    assert_eq!(
        env.cache_stats().misses,
        2,
        "check_rules is part of the key"
    );
}

#[test]
fn host_registry_changes_miss() {
    const FFI: &str = "
        @WootinJ final class H {
          H() { }
          @Native(\"ext.id\") static double idNative(double x);
          double run(double x) { return idNative(x); }
        }";
    let table = build_table(&[("h.jl", FFI)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    env.register_scalar_fn("ext.id", |x| x);
    let h = env.new_instance("H", &[]).unwrap();
    let code = env
        .jit(&h, "run", &[Value::Double(2.5)], JitOptions::wootinj())
        .unwrap();
    assert_eq!(code.invoke(&env).unwrap().result, Some(Val::F64(2.5)));
    assert_eq!(env.cache_stats().misses, 1);

    // Registering another FFI function changes the registry fingerprint:
    // the old entry no longer matches.
    env.register_scalar_fn("ext.other", |x| x + 1.0);
    env.jit(&h, "run", &[Value::Double(2.5)], JitOptions::wootinj())
        .unwrap();
    assert_eq!(
        env.cache_stats().misses,
        2,
        "registry contents are part of the key"
    );
    assert_eq!(env.cache_stats().hits, 0);
}

#[test]
fn failed_translation_creates_no_cache_entry() {
    // `knob` is a non-final static (rule-5 violation): every checked
    // translation of this table refuses, and none of those failures may
    // leave a cache entry behind.
    const BAD: &str = "
        @WootinJ final class Calc {
          static int knob = 2;
          Calc() { }
          float run(float x) { return x * knob; }
        }";
    let table = build_table(&[("calc.jl", BAD)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let c = env.new_instance("Calc", &[]).unwrap();
    for _ in 0..3 {
        assert!(env
            .jit(&c, "run", &[Value::Float(1.0)], JitOptions::wootinj())
            .is_err());
    }
    assert_eq!(env.cache_len(), 0, "failures never populate the cache");
    assert_eq!(env.cache_stats().hits, 0, "and can never be hit later");

    // The corrected program — same class name, same method, same key shape
    // (one float receiver field path, one float arg) — translates cleanly
    // in a fresh env: a genuine miss first, then a pure hit.
    const GOOD: &str = "
        @WootinJ final class Calc {
          static final int knob = 2;
          Calc() { }
          float run(float x) { return x * knob; }
        }";
    let table = build_table(&[("calc.jl", GOOD)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let c = env.new_instance("Calc", &[]).unwrap();
    let code = env
        .jit(&c, "run", &[Value::Float(3.0)], JitOptions::wootinj())
        .unwrap();
    assert_eq!(
        env.cache_stats().misses,
        1,
        "corrected graph translates once"
    );
    assert_eq!(code.invoke(&env).unwrap().result, Some(Val::F32(6.0)));
    env.jit(&c, "run", &[Value::Float(3.0)], JitOptions::wootinj())
        .unwrap();
    assert_eq!(env.cache_stats().hits, 1, "and is a cache hit afterwards");
    assert_eq!(env.cache_len(), 1);
}

#[test]
fn lru_evicts_least_recently_used_first() {
    let table = build_table(&[("app.jl", APP)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    env.set_cache_capacity(2);
    let d = env.new_instance("Dbl", &[]).unwrap();
    let r = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
    let a = env.new_f32_array(&[1.0]);

    let full = JitOptions::wootinj(); // key A
    let aggr = JitOptions::wootinj().with_opt(OptConfig::aggressive()); // key B
    let cpp = JitOptions::cpp(); // key C

    env.jit(&r, "run", std::slice::from_ref(&a), full.clone())
        .unwrap(); // insert A
    env.jit(&r, "run", std::slice::from_ref(&a), aggr.clone())
        .unwrap(); // insert B (cache: A, B)
    env.jit(&r, "run", std::slice::from_ref(&a), full.clone())
        .unwrap(); // hit A (B is now LRU)
    env.jit(&r, "run", std::slice::from_ref(&a), cpp.clone())
        .unwrap(); // insert C -> evicts B
    assert_eq!(env.cache_stats().evictions, 1);
    assert_eq!(env.cache_len(), 2);

    // A must still be resident (it was more recently used than B)...
    env.jit(&r, "run", std::slice::from_ref(&a), full.clone())
        .unwrap();
    assert_eq!(env.cache_stats().hits, 2);
    // ...while B was evicted and re-translates.
    let misses_before = env.cache_stats().misses;
    env.jit(&r, "run", &[a], aggr).unwrap();
    assert_eq!(
        env.cache_stats().misses,
        misses_before + 1,
        "LRU victim was B"
    );
}

#[test]
fn capacity_zero_disables_caching() {
    let table = build_table(&[("app.jl", APP)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    env.set_cache_capacity(0);
    let d = env.new_instance("Dbl", &[]).unwrap();
    let r = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
    let a = env.new_f32_array(&[1.0]);
    env.jit(&r, "run", std::slice::from_ref(&a), JitOptions::wootinj())
        .unwrap();
    env.jit(&r, "run", &[a], JitOptions::wootinj()).unwrap();
    assert_eq!(env.cache_stats().hits, 0, "capacity 0 never hits");
    assert_eq!(env.cache_stats().misses, 2);
    assert_eq!(env.cache_len(), 0);
}

#[test]
fn cache_counters_and_pass_profiles_surface_per_jit() {
    let table = build_table(&[("app.jl", APP)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let d = env.new_instance("Dbl", &[]).unwrap();
    let r = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
    let a = env.new_f32_array(&[1.0]);

    let cold = env
        .jit(&r, "run", std::slice::from_ref(&a), JitOptions::wootinj())
        .unwrap();
    assert_eq!(env.cache_stats().hits, 0);
    assert_eq!(env.cache_stats().misses, 1);
    // The preset runs inline + fold + dce: the optimizer profile is
    // recorded per pass with before/after instruction counts.
    let passes = &cold.translated.stats.passes;
    let names: Vec<&str> = passes.iter().map(|p| p.pass).collect();
    assert_eq!(names, ["inline", "fold", "dce"], "{passes:?}");
    for p in passes.iter().filter(|p| p.pass != "inline") {
        assert!(
            p.instrs_after <= p.instrs_before,
            "{}: a local pass must not add code",
            p.pass
        );
    }

    let warm = env
        .jit(&r, "run", std::slice::from_ref(&a), JitOptions::wootinj())
        .unwrap();
    assert_eq!(env.cache_stats().hits, 1);
    assert_eq!(env.cache_stats().misses, 1);
    // The shared translated program's own stats are identical.
    assert_eq!(warm.translated.stats, cold.translated.stats);

    // Inlining grows static code by design; what it must not grow is
    // the work a run does.
    let standard = env
        .jit(
            &r,
            "run",
            &[a],
            JitOptions::wootinj().with_opt(OptConfig::standard()),
        )
        .unwrap();
    let cycles = |code: &wootinj::JitCode| code.invoke(&env).unwrap().vtime_cycles;
    assert!(cycles(&cold) <= cycles(&standard), "inlining added work");
}

#[test]
fn warm_jit_does_zero_translation_work_and_is_much_faster() {
    // Build a deliberately wide object graph so cold translation has
    // real work to do.
    let table = build_table(&[("app.jl", APP)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let d = env.new_instance("Dbl", &[]).unwrap();
    let r = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
    let a = env.new_f32_array(&[1.0; 64]);

    let t0 = Instant::now();
    let cold = env
        .jit(&r, "run", std::slice::from_ref(&a), JitOptions::wootinj())
        .unwrap();
    let cold_wall = t0.elapsed();

    // Median of several warm calls (robust against scheduler noise).
    let mut warm_walls: Vec<Duration> = (0..15)
        .map(|_| {
            let t = Instant::now();
            env.jit(&r, "run", std::slice::from_ref(&a), JitOptions::wootinj())
                .unwrap();
            t.elapsed()
        })
        .collect();
    warm_walls.sort();
    let warm_wall = warm_walls[warm_walls.len() / 2];

    assert_eq!(env.cache_stats().hits, 15, "every warm call hit");
    assert_eq!(env.cache_stats().misses, 1);
    assert!(
        cold_wall >= warm_wall * 10,
        "warm jit must be >= 10x faster: cold {cold_wall:?}, warm {warm_wall:?}"
    );
    // The warm code is the same program object — zero translator/NIR work.
    let warm = env.jit(&r, "run", &[a], JitOptions::wootinj()).unwrap();
    assert!(Arc::ptr_eq(&cold.translated, &warm.translated));
}

/// Scratch dir for the disk-tier tests (removed on drop).
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "wootinj-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Database-backed cache keys must be stable across a process restart:
/// the key's source fingerprint is derived from query fingerprints of
/// the source text (not table addresses or revision numbers), so a
/// brand-new `Workspace` over the same sources finds the artifact a
/// previous "process" persisted to the disk tier — and a whitespace
/// edit, which leaves every query fingerprint unchanged, keeps hitting
/// it, while a semantic edit moves to a fresh key namespace.
#[test]
fn db_backed_disk_artifacts_survive_restart_and_whitespace_edits() {
    const SRC: &str = "@WootinJ final class Calc {
          float k; Calc(float k0) { k = k0; }
          float run(float x) { return k * x + 1f; }
        }";
    let tmp = TempDir::new("db-restart");
    let opts = || JitOptions::wootinj().with_disk_cache(&tmp.0);
    let jit = |ws: &Workspace, expect_translations: u64, expect_disk_hits: u64| {
        let mut env = ws.env().unwrap();
        let c = env.new_instance("Calc", &[Value::Float(3.0)]).unwrap();
        let code = env.jit(&c, "run", &[Value::Float(2.0)], opts()).unwrap();
        let stats = env.cache_stats();
        assert_eq!(stats.translations, expect_translations);
        assert_eq!(stats.disk_hits, expect_disk_hits);
        code.invoke(&env).unwrap().result
    };

    // "Process" 1: cold translate, artifact persisted.
    let mut ws1 = Workspace::new();
    ws1.set_source("calc.jl", SRC).unwrap();
    let cold = jit(&ws1, 1, 0);
    assert_eq!(cold, Some(Val::F32(7.0)));

    // "Process" 2: a brand-new workspace over the same sources decodes
    // the persisted artifact — zero translator work after the restart.
    let mut ws2 = Workspace::new();
    ws2.set_source("calc.jl", SRC).unwrap();
    assert_eq!(
        ws2.db().source_fingerprint(),
        ws1.db().source_fingerprint(),
        "source fingerprint must be process-independent"
    );
    assert_eq!(jit(&ws2, 0, 1), cold);

    // A whitespace edit keeps every fingerprint — still a disk hit.
    ws2.edit("calc.jl", &format!("{SRC}\n// formatting only\n"))
        .unwrap();
    assert_eq!(jit(&ws2, 0, 1), cold);

    // A semantic edit changes the source fingerprint: new namespace,
    // cold translate, and the old artifact stays behind for rollbacks.
    ws2.edit("calc.jl", &SRC.replace("+ 1f", "+ 2f")).unwrap();
    assert_eq!(jit(&ws2, 1, 0), Some(Val::F32(8.0)));
    let artifacts = std::fs::read_dir(&tmp.0)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("wjar"))
        .count();
    assert_eq!(artifacts, 2, "edit writes beside the old artifact");

    // Rolling the edit back returns to the original namespace: the
    // first artifact is still served without retranslation.
    ws2.edit("calc.jl", SRC).unwrap();
    assert_eq!(jit(&ws2, 0, 1), cold);
}

/// Legacy (table-built) envs and database-backed envs must not collide
/// in the artifact store: the legacy path keys with source fingerprint
/// 0, the db path with the real query fingerprint.
#[test]
fn db_and_legacy_envs_use_disjoint_key_namespaces() {
    const SRC: &str = "@WootinJ final class Calc {
          Calc() { }
          float run(float x) { return x + 41f; }
        }";
    let tmp = TempDir::new("db-namespaces");
    let opts = || JitOptions::wootinj().with_disk_cache(&tmp.0);

    let table = build_table(&[("calc.jl", SRC)]).unwrap();
    let mut legacy = WootinJ::new(&table).unwrap();
    let c = legacy.new_instance("Calc", &[]).unwrap();
    let legacy_code = legacy.jit(&c, "run", &[Value::Float(1.0)], opts()).unwrap();
    assert_eq!(legacy.cache_stats().translations, 1);

    let mut ws = Workspace::new();
    ws.set_source("calc.jl", SRC).unwrap();
    let mut env = ws.env().unwrap();
    let c = env.new_instance("Calc", &[]).unwrap();
    let db_code = env.jit(&c, "run", &[Value::Float(1.0)], opts()).unwrap();
    let stats = env.cache_stats();
    assert_eq!(
        (stats.translations, stats.disk_hits),
        (1, 0),
        "db-backed env must not decode the legacy artifact"
    );

    // Different namespaces, identical semantics.
    assert_eq!(
        legacy_code.translated.encode_semantic(),
        db_code.translated.encode_semantic()
    );
    assert_eq!(
        legacy_code.invoke(&legacy).unwrap().result,
        db_code.invoke(&env).unwrap().result
    );
}

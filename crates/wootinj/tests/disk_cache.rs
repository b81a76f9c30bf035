//! Two-tier artifact-store acceptance: a fresh env against a populated
//! `DiskStore` performs zero translator/NIR work (asserted on the cache's
//! own counters) and is faster than a cold translate; corrupted / truncated / version-skewed artifacts
//! degrade to a cold translate (never panic); memory fronts disk
//! (promotion); the disk tier is size-bounded; and a shared-cache
//! `jit4mpi` world translates each key exactly once regardless of size.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jvm::Value;
use wootinj::cache::{DiskStore, MemoryLru, Tiered};
use wootinj::{build_table, JitOptions, MpiCostModel, SharedCache, Val, WootinJ};

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

/// A heavier pipeline for the warm-start timing test: under `Mode::Full`
/// every `stage` call inlines four `Op` bodies, so the cold translate
/// pays for inlining plus fixed-point fold/dce/sroa over the expanded
/// program, while the warm path only decodes the sealed artifact.
const BIG_APP: &str = "
    @WootinJ interface Op { float f(float x); }
    @WootinJ final class Scale implements Op {
      Scale() { } float f(float x) { return x * 2f + 1f; }
    }
    @WootinJ final class Square implements Op {
      Square() { } float f(float x) { return x * x - x * 0.25f; }
    }
    @WootinJ final class Mix implements Op {
      Mix() { } float f(float x) { return x * 0.5f + x * x * 0.125f + 3f; }
    }
    @WootinJ final class Shift implements Op {
      Shift() { } float f(float x) { return x + 7f - x * 0.0625f; }
    }
    @WootinJ final class Pipe {
      Op a; Op b; Op c; Op d;
      Pipe(Op a0, Op b0, Op c0, Op d0) { a = a0; b = b0; c = c0; d = d0; }
      float stage(float x) { return a.f(b.f(c.f(d.f(x)))); }
      float stage2(float x) { return stage(stage(x)); }
      float stage4(float x) { return stage2(stage2(x)); }
      float stage8(float x) { return stage4(stage4(x)); }
      float run(float[] data) {
        float s = 0f;
        for (int i = 0; i < data.length; i++) {
          float x = data[i];
          float y = stage(x) + stage(x * 0.5f) + stage(x + 1f);
          s += y + stage(y);
        }
        s += stage8(1f) + stage8(2f) + stage8(3f) + stage8(4f);
        s += stage8(5f) + stage8(6f) + stage8(7f) + stage8(8f);
        s += stage8(9f) + stage8(10f) + stage8(11f) + stage8(12f);
        s += stage8(13f) + stage8(14f) + stage8(15f) + stage8(16f);
        return s;
      }
    }";

/// A unique temp dir per test (plain std — no tempfile dep), removed on
/// drop so failed runs do not leak across invocations.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "wootinj-disk-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn artifact_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("wjar"))
        .collect();
    v.sort();
    v
}

/// Build the `BIG_APP` receiver graph inside `env` and return
/// `(receiver, data)` handles valid for that env.
fn big_pipe(env: &mut WootinJ) -> (Value, Value) {
    let a = env.new_instance("Scale", &[]).unwrap();
    let b = env.new_instance("Square", &[]).unwrap();
    let c = env.new_instance("Mix", &[]).unwrap();
    let d = env.new_instance("Shift", &[]).unwrap();
    let pipe = env.new_instance("Pipe", &[a, b, c, d]).unwrap();
    let data = env.new_f32_array(&[0.5, 1.0, 1.5, 2.0]);
    (pipe, data)
}

#[test]
fn fresh_env_warm_starts_from_disk_with_zero_translator_work() {
    let table = build_table(&[("app.jl", BIG_APP)]).unwrap();
    let tmp = TempDir::new("warm-start");
    let opts = || JitOptions::wootinj().with_disk_cache(tmp.path());

    // Baseline: median cold translate across fresh envs with no disk
    // tier, so every probe pays the full translator + optimizer cost.
    let mut cold_walls: Vec<Duration> = (0..5)
        .map(|_| {
            let mut env = WootinJ::new(&table).unwrap();
            let (pipe, data) = big_pipe(&mut env);
            let t0 = Instant::now();
            env.jit(&pipe, "run", &[data], JitOptions::wootinj())
                .unwrap();
            let w = t0.elapsed();
            assert_eq!(env.cache_stats().translations, 1);
            w
        })
        .collect();
    cold_walls.sort();
    let cold_wall = cold_walls[cold_walls.len() / 2];

    // Process 1: cold translate with the disk tier enabled — persists
    // the artifact.
    let cold_result = {
        let mut env = WootinJ::new(&table).unwrap();
        let (pipe, data) = big_pipe(&mut env);
        let code = env.jit(&pipe, "run", &[data], opts()).unwrap();
        let stats = env.cache_stats();
        assert_eq!(stats.translations, 1, "cold env translates once");
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(artifact_files(tmp.path()).len(), 1, "artifact persisted");
        code.invoke(&env).unwrap().result
    };

    // Processes 2..n (brand-new envs over the same directory): decode
    // only. Median of several warm-start probes (each through a fresh
    // env, so the memory tier never helps) — robust against scheduler
    // noise.
    let mut warm_walls: Vec<Duration> = (0..9)
        .map(|_| {
            let mut fresh = WootinJ::new(&table).unwrap();
            let (pipe, data) = big_pipe(&mut fresh);
            let t0 = Instant::now();
            fresh.jit(&pipe, "run", &[data], opts()).unwrap();
            let w = t0.elapsed();
            let s = fresh.cache_stats();
            assert_eq!(s.translations, 0, "warm start must not translate");
            assert_eq!(s.disk_hits, 1, "served from the disk tier");
            assert_eq!(s.decode_failures, 0);
            w
        })
        .collect();
    warm_walls.sort();
    let warm_wall = warm_walls[warm_walls.len() / 2];
    // That no translator work happened is what the counters above say.
    // The clock only has to agree in direction: how many times faster a
    // decode is than a translate measures how slow the translator is (the
    // bar here was 10x until the translator stopped copying the program
    // it compiles), so the margin asked for is one scheduler noise cannot
    // eat, not one a faster translator fails.
    assert!(
        cold_wall >= warm_wall * 2,
        "disk warm start must be faster than a cold translate: \
         cold {cold_wall:?}, warm {warm_wall:?}"
    );

    // And the decoded artifact computes the same result.
    let mut env = WootinJ::new(&table).unwrap();
    let (pipe, data) = big_pipe(&mut env);
    let code = env.jit(&pipe, "run", &[data], opts()).unwrap();
    assert_eq!(env.cache_stats().translations, 0);
    let warm_result = code.invoke(&env).unwrap().result;
    // Bit-level comparison: the deep pipeline overflows f32 by design,
    // and NaN != NaN under `==`.
    match (cold_result, warm_result) {
        (Some(Val::F32(c)), Some(Val::F32(w))) => {
            assert_eq!(c.to_bits(), w.to_bits(), "decoded artifact diverged")
        }
        other => panic!("expected F32 results, got {other:?}"),
    }
}

#[test]
fn corrupted_artifacts_degrade_to_cold_translate_never_panic() {
    let table = build_table(&[("app.jl", APP)]).unwrap();
    let tmp = TempDir::new("corrupt");
    let opts = || JitOptions::wootinj().with_disk_cache(tmp.path());

    // Populate, then vandalize the artifact three ways.
    {
        let mut env = WootinJ::new(&table).unwrap();
        let d = env.new_instance("Dbl", &[]).unwrap();
        let r = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
        let a = env.new_f32_array(&[1.0]);
        env.jit(&r, "run", &[a], opts()).unwrap();
    }
    let original = std::fs::read(&artifact_files(tmp.path())[0]).unwrap();

    fn truncate(b: &[u8]) -> Vec<u8> {
        b[..b.len() / 2].to_vec()
    }
    fn bit_flip(b: &[u8]) -> Vec<u8> {
        let mut v = b.to_vec();
        let mid = v.len() / 2;
        v[mid] ^= 0x20;
        v
    }
    fn version_skew(b: &[u8]) -> Vec<u8> {
        let mut v = b.to_vec();
        v[4] = v[4].wrapping_add(1);
        v
    }
    type Damage = fn(&[u8]) -> Vec<u8>;
    let vandalize: [(&str, Damage); 3] = [
        ("truncated", truncate),
        ("bit-flipped", bit_flip),
        ("version-skewed", version_skew),
    ];

    for (what, damage) in &vandalize {
        let path = artifact_files(tmp.path())
            .into_iter()
            .next()
            .unwrap_or_else(|| tmp.path().join("regenerated.wjar"));
        std::fs::write(&path, damage(&original)).unwrap();

        // A fresh env must fall back to a cold translate — no panic, no
        // error — and repair the store by re-persisting a good artifact.
        let mut env = WootinJ::new(&table).unwrap();
        let d = env.new_instance("Dbl", &[]).unwrap();
        let r = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
        let a = env.new_f32_array(&[2.0]);
        let code = env
            .jit(&r, "run", &[a], opts())
            .unwrap_or_else(|e| panic!("{what} artifact must degrade, got error: {e}"));
        let stats = env.cache_stats();
        assert_eq!(stats.translations, 1, "{what}: cold translate happened");
        assert_eq!(stats.disk_hits, 0, "{what}: vandalized artifact not served");
        assert!(
            stats.decode_failures >= 1,
            "{what}: rejection counted ({stats:?})"
        );
        assert_eq!(
            code.invoke(&env).unwrap().result,
            Some(Val::F32(4.0)),
            "{what}: fallback artifact still computes correctly"
        );
        // The bad file was replaced by the fresh translation's artifact.
        // (Not byte-identical to `original` — pass-profile timings vary —
        // but it must decode cleanly again.)
        let files = artifact_files(tmp.path());
        assert_eq!(files.len(), 1, "{what}: store holds one artifact again");
        let repaired = std::fs::read(&files[0]).unwrap();
        assert_ne!(repaired, damage(&original), "{what}: bad bytes replaced");
        assert!(
            translator::Translated::decode(&repaired).is_ok(),
            "{what}: store repaired with a decodable artifact"
        );
    }
}

#[test]
fn disk_hits_promote_into_the_memory_tier() {
    let table = build_table(&[("app.jl", APP)]).unwrap();
    let tmp = TempDir::new("promotion");
    let opts = || JitOptions::wootinj().with_disk_cache(tmp.path());

    {
        let mut env = WootinJ::new(&table).unwrap();
        let d = env.new_instance("Dbl", &[]).unwrap();
        let r = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
        let a = env.new_f32_array(&[1.0]);
        env.jit(&r, "run", &[a], opts()).unwrap();
    }

    let mut env = WootinJ::new(&table).unwrap();
    let d = env.new_instance("Dbl", &[]).unwrap();
    let r = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
    let a = env.new_f32_array(&[1.0]);
    let first = env
        .jit(&r, "run", std::slice::from_ref(&a), opts())
        .unwrap();
    let second = env.jit(&r, "run", &[a], opts()).unwrap();
    let stats = env.cache_stats();
    assert_eq!(stats.disk_hits, 1, "disk read exactly once");
    assert_eq!(stats.promotions, 1, "decoded artifact promoted to memory");
    assert_eq!(stats.hits, 1, "second jit served by the memory tier");
    assert_eq!(stats.translations, 0);
    assert!(
        Arc::ptr_eq(&first.translated, &second.translated),
        "promotion shares the decoded program via Arc"
    );
}

#[test]
fn disk_store_evicts_oldest_artifacts_beyond_the_byte_budget() {
    let table = build_table(&[("app.jl", APP)]).unwrap();
    let tmp = TempDir::new("eviction");

    let mut env = WootinJ::new(&table).unwrap();
    // Budget fits roughly one artifact (the Runner artifact encodes to
    // well under 1 KiB), so inserting a second key must evict the first.
    let disk = DiskStore::open(tmp.path()).unwrap().with_max_bytes(1_000);
    env.set_cache_backend(Box::new(Tiered::new(MemoryLru::default(), disk)));
    let d = env.new_instance("Dbl", &[]).unwrap();
    let rd = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
    let s = env.new_instance("Sqr", &[]).unwrap();
    let rs = env.new_instance("Runner", &[s, Value::Float(0.0)]).unwrap();
    let a = env.new_f32_array(&[1.0]);

    env.jit(&rd, "run", std::slice::from_ref(&a), JitOptions::wootinj())
        .unwrap();
    let after_first = artifact_files(tmp.path());
    assert_eq!(after_first.len(), 1);
    // Ensure a strictly older mtime for the first artifact even on
    // coarse-grained filesystems.
    std::thread::sleep(Duration::from_millis(20));
    env.jit(&rs, "run", &[a], JitOptions::wootinj()).unwrap();

    let remaining = artifact_files(tmp.path());
    assert_eq!(
        remaining.len(),
        1,
        "byte budget keeps one artifact resident"
    );
    assert_ne!(
        remaining[0], after_first[0],
        "the older artifact was the eviction victim"
    );
    assert!(env.cache_stats().disk_evictions >= 1);
}

#[test]
fn shared_cache_world_translates_each_key_exactly_once() {
    let table = build_table(&[("app.jl", APP)]).unwrap();
    let mut shared = SharedCache::new();

    // World 1: 4 ranks, fresh job-wide cache. Rank 0 translates, ranks
    // 1..4 decode the broadcast.
    let result4 = {
        let mut env = WootinJ::new(&table).unwrap();
        let d = env.new_instance("Dbl", &[]).unwrap();
        let r = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
        let a = env.new_f32_array(&[1.0, 2.0]);
        let mut code = env
            .jit4mpi(&r, "run", &[a], JitOptions::wootinj(), 4, &mut shared)
            .unwrap();
        code.set_mpi(4, MpiCostModel::default());
        let report = code.invoke(&env).unwrap();
        assert_eq!(report.worlds.shared_jit.translations, 1);
        assert_eq!(report.worlds.shared_jit.broadcast_decodes, 3);
        assert!(report.worlds.shared_jit.broadcast_bytes > 0);
        assert_eq!(report.results.len(), 4);
        report.result
    };

    // World 2: a *different env* (independently composed object graph,
    // identical specialization key) at a different size. No rank
    // translates — all 8 decode.
    let mut env = WootinJ::new(&table).unwrap();
    let d = env.new_instance("Dbl", &[]).unwrap();
    let r = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
    let a = env.new_f32_array(&[1.0, 2.0]);
    let mut code = env
        .jit4mpi(&r, "run", &[a], JitOptions::wootinj(), 8, &mut shared)
        .unwrap();
    code.set_mpi(8, MpiCostModel::default());
    let report = code.invoke(&env).unwrap();
    let stats = report.worlds.shared_jit;
    assert_eq!(
        stats.translations, 1,
        "one translation across both worlds, regardless of world size"
    );
    assert_eq!(stats.broadcast_decodes, 3 + 8);
    assert_eq!(
        env.cache_stats().translations,
        0,
        "the second world's env never ran the translator"
    );
    assert_eq!(
        report.result, result4,
        "broadcast artifact computes the same"
    );

    // A *different* key (other receiver graph) translates once more.
    let s = env.new_instance("Sqr", &[]).unwrap();
    let rs = env.new_instance("Runner", &[s, Value::Float(0.0)]).unwrap();
    let a2 = env.new_f32_array(&[3.0]);
    env.jit4mpi(&rs, "run", &[a2], JitOptions::wootinj(), 8, &mut shared)
        .unwrap();
    assert_eq!(shared.stats().translations, 2);
    assert_eq!(shared.len(), 2);
}

#[test]
fn jit4mpi_composes_with_a_disk_cache() {
    // The two tiers of sharing compose: job-wide broadcast (SharedCache)
    // over process-lifetime persistence (DiskStore).
    let table = build_table(&[("app.jl", APP)]).unwrap();
    let tmp = TempDir::new("mpi-disk");
    let opts = || JitOptions::wootinj().with_disk_cache(tmp.path());

    {
        let mut shared = SharedCache::new();
        let mut env = WootinJ::new(&table).unwrap();
        let d = env.new_instance("Dbl", &[]).unwrap();
        let r = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
        let a = env.new_f32_array(&[1.0]);
        env.jit4mpi(&r, "run", &[a], opts(), 4, &mut shared)
            .unwrap();
        assert_eq!(shared.stats().translations, 1);
        assert_eq!(artifact_files(tmp.path()).len(), 1);
    }

    // A fresh job (new SharedCache, new env) warm-starts from disk: the
    // "rank 0 translate" is itself served by the disk tier, so the whole
    // job does zero translator work.
    let mut shared = SharedCache::new();
    let mut env = WootinJ::new(&table).unwrap();
    let d = env.new_instance("Dbl", &[]).unwrap();
    let r = env.new_instance("Runner", &[d, Value::Float(0.0)]).unwrap();
    let a = env.new_f32_array(&[1.0]);
    env.jit4mpi(&r, "run", &[a], opts(), 6, &mut shared)
        .unwrap();
    let stats = env.cache_stats();
    assert_eq!(
        stats.translations, 0,
        "served from disk, not the translator"
    );
    assert_eq!(stats.disk_hits, 1);
}

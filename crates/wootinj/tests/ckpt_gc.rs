//! Persisted-checkpoint garbage collection: `.wckpt` files live beside
//! the sealed artifacts but are transient restart state, so the
//! `DiskStore` ages them out under their own byte budget. A long-lived
//! cache directory must stay bounded no matter how many distinct
//! checkpointed workloads churn through it.

use std::path::Path;

use wootinj::cache::{CacheBackend, DiskStore, MemoryLru, Tiered, DEFAULT_CKPT_BUDGET};
use wootinj::{build_table, CheckpointPolicy, JitOptions, WootinJ};

use jvm::Value;

fn ckpt_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("wckpt"))
        .map(|e| e.metadata().map(|m| m.len()).unwrap_or(0))
        .sum()
}

fn write_ckpt(dir: &Path, name: &str, len: usize) {
    std::fs::write(dir.join(format!("{name}.wckpt")), vec![0xCCu8; len]).unwrap();
}

#[test]
fn opening_a_store_sweeps_stale_checkpoints_to_the_budget() {
    let dir = std::env::temp_dir().join(format!("wj-ckpt-gc-open-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // A long-lived directory accumulated checkpoint debris…
    for i in 0..16 {
        write_ckpt(&dir, &format!("wj01-stale-{i}"), 1024);
    }
    assert_eq!(ckpt_bytes(&dir), 16 * 1024);

    // …and merely *opening* a store bounded at 4 KiB sweeps it down.
    let store = DiskStore::open(&dir).unwrap().with_ckpt_budget(4 * 1024);
    assert!(
        ckpt_bytes(&dir) <= 4 * 1024,
        "open + budget must bound the checkpoint bytes"
    );
    assert!(store.stats().ckpt_evictions >= 12);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn long_lived_cache_dir_stays_bounded_under_checkpoint_churn() {
    let dir = std::env::temp_dir().join(format!("wj-ckpt-gc-churn-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    const BUDGET: u64 = 8 * 1024;
    let table = build_table(&[(
        "probe.jl",
        "@WootinJ final class Probe { Probe() { } int run(int x) { return x + 1; } }",
    )])
    .unwrap();

    // Simulate a job mix: every round some restart machinery drops a
    // fresh checkpoint (distinct fingerprints — distinct workloads), and
    // a JIT insert lands. The insert is the GC hook: after each one, the
    // checkpoint bytes must be back under budget.
    for round in 0..12u32 {
        for k in 0..4u32 {
            write_ckpt(&dir, &format!("wj01-churn-{round}-{k}"), 1024);
        }
        let mut env = WootinJ::new(&table).unwrap();
        let app = env.new_instance("Probe", &[]).unwrap();
        let store = DiskStore::open(&dir).unwrap().with_ckpt_budget(BUDGET);
        env.set_cache_backend(Box::new(Tiered::new(MemoryLru::default(), store)));
        env.jit(
            &app,
            "run",
            &[Value::Int(round as i32)],
            JitOptions::wootinj(),
        )
        .unwrap();
        assert!(
            ckpt_bytes(&dir) <= BUDGET,
            "round {round}: checkpoint bytes exceeded the budget"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chains_are_evicted_wholesale_never_orphaning_deltas() {
    let dir = std::env::temp_dir().join(format!("wj-ckpt-gc-chain-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // Three delta chains of different ages, each base + two deltas. The
    // budget forces eviction; a delta whose base is gone is unreadable,
    // so the sweep must take (or keep) each chain as a unit.
    for (age, stem) in ["old", "mid", "new"].iter().enumerate() {
        write_ckpt(&dir, &format!("wj01-{stem}"), 1024);
        write_ckpt(&dir, &format!("wj01-{stem}.d1"), 256);
        write_ckpt(&dir, &format!("wj01-{stem}.d2"), 256);
        // Order recency via mtime: rewrite the newest chain's newest
        // member last after a beat so mtimes are distinguishable.
        std::thread::sleep(std::time::Duration::from_millis(20 * (age as u64 + 1)));
    }

    // Budget fits two chains (2 * 1536 = 3072) but not three.
    let _store = DiskStore::open(&dir).unwrap().with_ckpt_budget(3 * 1024);
    assert!(ckpt_bytes(&dir) <= 3 * 1024);

    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter_map(|e| e.file_name().to_str().map(str::to_string))
        .filter(|n| n.ends_with(".wckpt"))
        .collect();
    // Wholesale invariant: any surviving delta implies its base survived,
    // and any surviving base kept all of its deltas.
    for stem in ["old", "mid", "new"] {
        let base = names.iter().any(|n| n == &format!("wj01-{stem}.wckpt"));
        let d1 = names.iter().any(|n| n == &format!("wj01-{stem}.d1.wckpt"));
        let d2 = names.iter().any(|n| n == &format!("wj01-{stem}.d2.wckpt"));
        assert_eq!(base, d1, "chain {stem} split: base={base} d1={d1}");
        assert_eq!(base, d2, "chain {stem} split: base={base} d2={d2}");
    }
    // At least one chain was evicted, and at least one survived.
    let bases = names.iter().filter(|n| !n.contains(".d")).count();
    assert!(
        (1..=2).contains(&bases),
        "expected 1–2 surviving chains, got {bases}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A budget that falls inside a chain still takes the chain whole: one
/// delta's bytes over the budget evict every link of the coldest chain,
/// not only its oldest file.
#[test]
fn a_budget_inside_a_chain_takes_the_whole_chain() {
    let dir = std::env::temp_dir().join(format!("wj-ckpt-gc-inside-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    write_ckpt(&dir, "wj01-cold", 1024);
    write_ckpt(&dir, "wj01-cold.d1", 256);
    write_ckpt(&dir, "wj01-cold.d2", 256);
    std::thread::sleep(std::time::Duration::from_millis(20));
    write_ckpt(&dir, "wj01-warm", 1024);

    // 100 bytes short of all four files: per file, removing any one link
    // of the cold chain would fit.
    let store = DiskStore::open(&dir).unwrap().with_ckpt_budget(2560 - 100);
    assert_eq!(store.stats().ckpt_evictions, 3, "the whole cold chain");
    assert_eq!(ckpt_bytes(&dir), 1024, "only the warm chain is left");
    assert!(dir.join("wj01-warm.wckpt").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn facade_checkpoints_stay_within_the_default_budget_and_artifacts_survive() {
    // End-to-end: a checkpointed facade run persists a `.wckpt`; the
    // sweep must not touch it (it is far under the default budget), and
    // must never count `.wjar` artifacts against the checkpoint budget.
    let dir = std::env::temp_dir().join(format!("wj-ckpt-gc-facade-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let table = build_table(&[(
        "probe.jl",
        "@WootinJ final class Probe { Probe() { } int run(int x) { return x * 2; } }",
    )])
    .unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let app = env.new_instance("Probe", &[]).unwrap();
    let opts = JitOptions::wootinj()
        .with_disk_cache(&dir)
        .with_checkpointing(CheckpointPolicy::every(1));
    let code = env.jit(&app, "run", &[Value::Int(21)], opts).unwrap();
    code.invoke(&env).unwrap();

    assert!(
        ckpt_bytes(&dir) <= DEFAULT_CKPT_BUDGET,
        "a single run's checkpoint must sit far under the default budget"
    );
    let exts: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter_map(|e| {
            e.path()
                .extension()
                .and_then(|x| x.to_str())
                .map(str::to_string)
        })
        .collect();
    assert!(exts.iter().any(|e| e == "wjar"), "artifact must persist");

    std::fs::remove_dir_all(&dir).ok();
}

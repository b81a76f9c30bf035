//! Concurrent-writer stress for the on-disk artifact store: many threads
//! inserting, looking up, and evicting against ONE directory. The
//! temp-then-rename discipline must hold up — no torn reads (every
//! observed artifact decodes), no panics, and the byte budget is enforced
//! once the dust settles.
//!
//! `DiskStore` itself is single-threaded state (counters, temp-file
//! sequence); the shared resource is the *directory*. Each thread opens
//! its own store over the same path — exactly the multi-process layout
//! the store is documented to survive.

use std::sync::Arc;

use jvm::Value;
use translator::{CacheKey, EntrySpec, TransConfig, Translated};
use wootinj::cache::{CacheBackend, DiskStore};
use wootinj::{build_table, JitOptions, WootinJ};

const APP: &str = "
    @WootinJ final class Doubler {
      Doubler() { }
      float run(float x) { return x * 2f; }
    }";

/// A real sealed artifact to shuttle through the store (the store never
/// inspects which key an artifact belongs to, so one payload serves all).
fn artifact_bytes() -> Vec<u8> {
    let table = build_table(&[("app.jl", APP)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let d = env.new_instance("Doubler", &[]).unwrap();
    let code = env
        .jit(&d, "run", &[Value::Float(1.0)], JitOptions::wootinj())
        .unwrap();
    code.translated.encode()
}

/// Distinct, stable fingerprints without a jvm: Virtual-mode keys are
/// (class, method, arity) — no shape analysis involved.
fn key(id: u32) -> CacheKey {
    CacheKey::new(
        EntrySpec::Opaque {
            class: jlang::types::ClassId(id),
            method: 0,
            arity: 1,
        },
        TransConfig::virtual_dispatch(),
        vec![],
    )
}

#[test]
fn many_writers_one_directory_no_torn_reads_and_budget_holds() {
    let dir = std::env::temp_dir().join(format!("wj-stress-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let bytes = Arc::new(artifact_bytes());
    let artifact_len = bytes.len() as u64;
    // Budget fits ~6 artifacts; 24 contended keys force constant eviction.
    let budget = artifact_len * 6;
    const THREADS: u32 = 8;
    const ITERS: u32 = 60;
    const KEYS: u32 = 24;

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let dir = dir.clone();
            let bytes = Arc::clone(&bytes);
            std::thread::spawn(move || {
                let translated =
                    Arc::new(Translated::decode(&bytes).expect("seed artifact must decode"));
                let mut store = DiskStore::open(&dir).unwrap().with_max_bytes(budget);
                for i in 0..ITERS {
                    let k = key((t.wrapping_mul(7).wrapping_add(i * 5)) % KEYS);
                    if (t + i) % 3 == 0 {
                        // A hit must be a complete artifact (decode already
                        // verified by lookup); a miss is fine — an evictor
                        // or a not-yet-writer got there first.
                        let _ = store.lookup(&k);
                    } else {
                        store.insert(&k, &translated);
                    }
                }
                store.stats()
            })
        })
        .collect();

    let mut decode_failures = 0;
    let mut disk_hits = 0;
    for h in handles {
        let stats = h.join().expect("no panics under contention");
        decode_failures += stats.decode_failures;
        disk_hits += stats.disk_hits;
    }
    // Torn or half-renamed files would surface as decode failures.
    assert_eq!(decode_failures, 0, "observed torn/corrupt artifacts");
    assert!(
        disk_hits > 0,
        "contention sweep never hit — test is vacuous"
    );

    // Quiesced: every surviving artifact decodes, and one more insert
    // sweeps the directory back under the byte budget.
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("wjar") {
            let on_disk = std::fs::read(&path).unwrap();
            assert!(
                Translated::decode(&on_disk).is_ok(),
                "torn artifact survived at {path:?}"
            );
        }
        assert!(
            path.extension().and_then(|e| e.to_str()) != Some("tmp"),
            "leaked staging file {path:?}"
        );
    }
    let mut store = DiskStore::open(&dir).unwrap().with_max_bytes(budget);
    let translated = Arc::new(Translated::decode(&bytes).unwrap());
    store.insert(&key(KEYS), &translated);
    let total: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("wjar"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    assert!(
        total <= budget,
        "eviction bound violated: {total} > {budget}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Another writer's in-flight staging file — for an artifact or for a
/// checkpoint — is not yet part of the store: it is neither counted by
/// `len()` or the byte budget nor removed by either sweep.
#[test]
fn staging_files_are_neither_counted_nor_swept() {
    let dir = std::env::temp_dir().join(format!("wj-staging-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let bytes = artifact_bytes();
    let artifact_len = bytes.len() as u64;
    let in_flight = [
        mpi_sim::staging_path(&dir.join("wj01-elsewhere.wjar")).unwrap(),
        mpi_sim::staging_path(&dir.join("wj01-elsewhere.wckpt")).unwrap(),
        mpi_sim::staging_path(&dir.join("wj01-elsewhere.d4.wckpt")).unwrap(),
    ];
    for path in &in_flight {
        std::fs::write(path, &bytes).unwrap();
    }

    // A budget of one artifact, and none for checkpoints: every insert
    // sweeps both kinds of file.
    let mut store = DiskStore::open(&dir)
        .unwrap()
        .with_max_bytes(artifact_len)
        .with_ckpt_budget(0);
    let translated = Arc::new(Translated::decode(&bytes).unwrap());
    store.insert(&key(1), &translated);
    store.insert(&key(2), &translated);
    assert_eq!(store.len(), 1, "staging files are not resident artifacts");
    assert_eq!(wootinj::cache::artifact_bytes(&dir), artifact_len);
    assert_eq!(store.stats().disk_evictions, 1, "only key 1 was swept");
    assert_eq!(store.stats().ckpt_evictions, 0);
    for path in &in_flight {
        assert!(
            path.exists(),
            "swept another writer's staging file {path:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A writer killed between its write and its rename leaves a staging
/// file no one will rename. Opening the store removes one older than
/// `STALE_STAGING_AGE`; a younger one may still be in flight, so it is
/// kept, and it is not counted as an artifact either way.
#[test]
fn open_sweeps_only_stale_staging_files() {
    use std::time::{Duration, SystemTime};
    use wootinj::cache::STALE_STAGING_AGE;

    let dir = std::env::temp_dir().join(format!("wj-stale-staging-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let bytes = artifact_bytes();
    let stale = mpi_sim::staging_path(&dir.join("wj01-dead.wjar")).unwrap();
    let fresh = mpi_sim::staging_path(&dir.join("wj01-live.wjar")).unwrap();
    let old_ckpt = mpi_sim::staging_path(&dir.join("wj01-dead.d3.wckpt")).unwrap();
    for path in [&stale, &fresh, &old_ckpt] {
        std::fs::write(path, &bytes).unwrap();
    }
    let long_ago = SystemTime::now() - STALE_STAGING_AGE - Duration::from_secs(60);
    let just_now = SystemTime::now() - Duration::from_secs(1);
    for (path, mtime) in [
        (&stale, long_ago),
        (&fresh, just_now),
        (&old_ckpt, long_ago),
    ] {
        std::fs::File::options()
            .write(true)
            .open(path)
            .unwrap()
            .set_modified(mtime)
            .unwrap();
    }
    // A resident artifact as old as the stale staging file is not one.
    let resident = dir.join(format!("{}.wjar", key(1).fingerprint()));
    std::fs::write(&resident, &bytes).unwrap();
    std::fs::File::options()
        .write(true)
        .open(&resident)
        .unwrap()
        .set_modified(long_ago)
        .unwrap();

    let store = DiskStore::open(&dir).unwrap();
    assert!(!stale.exists(), "stale artifact staging file kept");
    assert!(!old_ckpt.exists(), "stale checkpoint staging file kept");
    assert!(fresh.exists(), "swept a staging file that may be in flight");
    assert!(resident.exists(), "swept a resident artifact");
    assert_eq!(store.len(), 1, "a staging file is not a resident artifact");
    assert_eq!(
        wootinj::cache::artifact_bytes(&dir),
        bytes.len() as u64,
        "a staging file is not counted in the artifact bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

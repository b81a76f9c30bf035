//! Rank-0-owned shared JIT artifact cache — the cross-rank half of the
//! two-tier artifact store.
//!
//! A production MPI job compiles a kernel once (on rank 0, or on one rank
//! per node) and broadcasts the compiled object; every other rank loads
//! the bytes instead of invoking the compiler. This module models that
//! pattern for WootinJ worlds whose ranks compose their object graphs
//! independently: identical specialization keys must translate **once
//! per world**, not once per rank.
//!
//! The cache itself is deliberately simulator-shaped: a map from the
//! cross-process key fingerprint (`CacheKey::fingerprint()` — stable
//! across processes, so also across simulated ranks) to the sealed
//! artifact bytes a real job would put on the wire. The `wootinj` facade
//! drives it from `jit4mpi`: rank 0 translates a missing key and
//! [`publish`](SharedCache::publish)es the encoded artifact; every other
//! rank [`lookup`](SharedCache::lookup)s the bytes and decodes — no
//! translator or NIR-optimizer work anywhere but rank 0.
//!
//! With [`SharedCache::persistent`], published artifacts also land on
//! disk as `<fingerprint>.wjar` files (the same sealed encoding the JIT
//! disk store writes), and a *fresh* cache in a *fresh* process reloads
//! them on lookup. Pointed at the JIT disk-cache directory, this puts the
//! broadcast artifacts beside the `.wckpt` world checkpoints, so a killed
//! job warm-restarts fully warm: no rank translates, and the world
//! resumes from its last persisted checkpoint.

use std::collections::HashMap;
use std::path::PathBuf;

nir::counters! {
    /// Per-world translate-once counters, surfaced on
    /// [`WorldRun`](crate::WorldRun) so scalability experiments can assert
    /// the broadcast pattern held.
    pub struct SharedCacheStats [merge] {
        /// Cold translations performed against this cache (exactly one per
        /// distinct key, regardless of world size).
        translations,
        /// Artifact decodes served from broadcast bytes instead of
        /// translating (≥ `world size − 1` per key in a fanned-out world).
        broadcast_decodes,
        /// Total artifact bytes "on the wire" (encoded size × receiving
        /// ranks) — what a real job's broadcast would move.
        broadcast_bytes,
        /// Entries reloaded from a persistent directory by a fresh cache —
        /// each one is a translation a process warm-restart did *not* redo.
        disk_loads,
    }
}

/// A rank-0-owned map from key fingerprint to sealed artifact bytes.
/// Outlives any single world (pass `&mut` to every `jit4mpi` call that
/// should share), mirroring a job-lifetime broadcast cache.
#[derive(Debug, Default)]
pub struct SharedCache {
    entries: HashMap<String, Vec<u8>>,
    stats: SharedCacheStats,
    /// When set, published artifacts persist here as `<fp>.wjar` and
    /// lookups fall back to the directory on a memory miss.
    persist_dir: Option<PathBuf>,
}

impl SharedCache {
    pub fn new() -> Self {
        SharedCache::default()
    }

    /// A cache that persists published artifacts under `dir` and reloads
    /// them across processes. Point it at the JIT disk-cache directory to
    /// keep broadcast artifacts beside the `.wckpt` world checkpoints.
    pub fn persistent(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SharedCache {
            persist_dir: Some(dir),
            ..SharedCache::default()
        })
    }

    /// The persistence directory, when this cache has one.
    pub fn persist_dir(&self) -> Option<&std::path::Path> {
        self.persist_dir.as_deref()
    }

    /// The sealed artifact for `fingerprint`, if some world already
    /// translated it — in this process, or (for a persistent cache) in a
    /// previous one. Disk reloads are byte-level; the caller's decode
    /// gate rejects corruption exactly as it does for broadcast bytes.
    pub fn lookup(&mut self, fingerprint: &str) -> Option<&[u8]> {
        if !self.entries.contains_key(fingerprint) {
            if let Some(dir) = &self.persist_dir {
                if let Ok(bytes) = std::fs::read(dir.join(format!("{fingerprint}.wjar"))) {
                    self.stats.disk_loads += 1;
                    self.entries.insert(fingerprint.to_string(), bytes);
                }
            }
        }
        self.entries.get(fingerprint).map(Vec::as_slice)
    }

    /// Store the encoded artifact rank 0 just translated. Counts one
    /// translation; later worlds (any size) hit [`Self::lookup`] instead.
    /// Persistent caches also write the artifact to disk (temp-then-
    /// rename, best-effort: IO failure only costs cross-process reuse).
    pub fn publish(&mut self, fingerprint: impl Into<String>, artifact: Vec<u8>) {
        let fingerprint = fingerprint.into();
        self.stats.translations += 1;
        if let Some(dir) = &self.persist_dir {
            let path = dir.join(format!("{fingerprint}.wjar"));
            if !path.exists() {
                // PID separates processes sharing the cache dir; the
                // process-wide counter separates threads within one.
                static TMP_UNIQ: std::sync::atomic::AtomicU64 =
                    std::sync::atomic::AtomicU64::new(0);
                let uniq = TMP_UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let tmp = dir.join(format!(
                    ".tmp-shared-{}-{uniq}-{fingerprint}",
                    std::process::id()
                ));
                if std::fs::write(&tmp, &artifact).is_ok() && std::fs::rename(&tmp, &path).is_err()
                {
                    let _ = std::fs::remove_file(&tmp);
                }
            }
        }
        self.entries.insert(fingerprint, artifact);
    }

    /// Record that `ranks` ranks decoded `bytes_each` broadcast bytes
    /// instead of translating.
    pub fn record_broadcast(&mut self, ranks: u64, bytes_each: u64) {
        self.stats.broadcast_decodes += ranks;
        self.stats.broadcast_bytes += ranks * bytes_each;
    }

    pub fn stats(&self) -> SharedCacheStats {
        self.stats
    }

    /// Distinct keys resident in memory.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_then_lookup_counts_one_translation() {
        let mut c = SharedCache::new();
        assert!(c.lookup("wj01-abc").is_none());
        c.publish("wj01-abc", vec![1, 2, 3]);
        assert_eq!(c.lookup("wj01-abc"), Some(&[1u8, 2, 3][..]));
        c.record_broadcast(7, 3);
        let s = c.stats();
        assert_eq!(s.translations, 1);
        assert_eq!(s.broadcast_decodes, 7);
        assert_eq!(s.broadcast_bytes, 21);
        assert_eq!(s.disk_loads, 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = SharedCacheStats {
            translations: 1,
            broadcast_decodes: 3,
            broadcast_bytes: 300,
            disk_loads: 2,
        };
        a.merge(&SharedCacheStats {
            translations: 2,
            broadcast_decodes: 5,
            broadcast_bytes: 11,
            disk_loads: 1,
        });
        assert_eq!(a.translations, 3);
        assert_eq!(a.broadcast_decodes, 8);
        assert_eq!(a.broadcast_bytes, 311);
        assert_eq!(a.disk_loads, 3);
    }

    #[test]
    fn persistent_cache_reloads_across_instances() {
        let dir = std::env::temp_dir().join(format!("wj-shared-persist-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let mut a = SharedCache::persistent(&dir).unwrap();
        a.publish("wj01-feed", vec![9, 8, 7]);

        // A fresh cache (fresh "process") sees the artifact on lookup.
        let mut b = SharedCache::persistent(&dir).unwrap();
        assert!(b.is_empty());
        assert_eq!(b.lookup("wj01-feed"), Some(&[9u8, 8, 7][..]));
        assert_eq!(b.stats().disk_loads, 1);
        assert_eq!(b.stats().translations, 0, "reload is not a translation");
        // Unknown keys still miss.
        assert!(b.lookup("wj01-none").is_none());

        std::fs::remove_dir_all(&dir).ok();
    }
}

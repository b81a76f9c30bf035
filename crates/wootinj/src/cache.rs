//! The two-tier, specialization-keyed JIT artifact store.
//!
//! `WootinJ::jit` memoizes translation end-to-end behind the
//! [`CacheBackend`] trait. The key ([`CacheKey`], defined in `translator`)
//! canonicalizes *everything the translation pipeline reads* — the exact
//! dynamic type tuple of the live receiver/argument object graph
//! ([`EntrySpec`](translator::EntrySpec), the same analysis that drives
//! devirtualization), the full translator configuration, and the
//! (sorted) host-FFI registry key set.
//!
//! Three backends:
//!
//! * [`MemoryLru`] — the classic in-process LRU memo table. Hits are
//!   `Arc` clones: zero translator/NIR work. Capacity 0 disables caching
//!   (the "uncached" series of `repro tab3-amortized`).
//! * [`DiskStore`] — a directory of sealed artifacts, one
//!   `<fingerprint>.wjar` file per key, written temp-then-rename so
//!   readers never observe a half-written artifact. Size-bounded with
//!   LRU-by-mtime eviction (hits refresh the file's mtime). Artifacts
//!   that fail to decode — truncated, corrupted, version-skewed — count
//!   as misses, are deleted, and the caller falls back to a cold
//!   translate; decode never panics.
//! * [`Tiered`] — memory in front of disk. A disk hit is decoded once and
//!   *promoted* into the memory tier, so the decode cost is paid at most
//!   once per process. This is what `JitOptions::with_disk_cache` wires
//!   up, and what makes a second process warm-start.
//!
//! Failed translations never populate any tier: the facade only inserts
//! after `translate` returns `Ok`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use translator::Translated;

pub use translator::CacheKey;

nir::counters! {
    /// Cumulative counters across both tiers, read through
    /// [`crate::WootinJ::cache_stats`]. Hits are counted per tier:
    /// `hits`/`misses`/`evictions` are the in-process memory tier's, the
    /// `disk_*` counters the persistent store's, which a lookup reaches
    /// only after a memory miss. `promotions` and `decode_failures` say
    /// what became of disk hits, `translations` counts the translates
    /// run after both tiers missed, and `ckpt_evictions` the checkpoints
    /// the store swept.
    pub struct CacheStats [merge] {
        /// Memory-tier hits (an `Arc` clone; zero translator/NIR work).
        hits,
        /// Memory-tier misses.
        misses,
        /// Memory-tier LRU evictions.
        evictions,
        /// Disk-tier hits (artifact decoded from a `.wjar` file).
        disk_hits,
        /// Disk-tier misses (no artifact file for the fingerprint).
        disk_misses,
        /// Artifact files removed by the size-bounded LRU-by-mtime sweep.
        disk_evictions,
        /// Disk hits promoted into the memory tier (decode paid once).
        promotions,
        /// Artifacts rejected at decode time (corrupt/truncated/version-skew)
        /// — each one degraded to a cold translate instead of panicking.
        decode_failures,
        /// Actual `translate` runs this environment performed (the
        /// zero-translator-work assertions key off this).
        translations,
        /// Persisted world checkpoints (`.wckpt`) removed by the
        /// checkpoint-budget sweep — aged out oldest-mtime-first so a
        /// long-lived cache directory stays bounded.
        ckpt_evictions,
    }
}

/// Where `WootinJ::jit` keeps translated artifacts. Object-safe so the
/// facade can swap backends at runtime (`with_disk_cache`).
pub trait CacheBackend {
    /// Probe for `key`, updating recency and counters.
    fn lookup(&mut self, key: &CacheKey) -> Option<Arc<Translated>>;

    /// Store a *successful* translation under `key`. Backends may drop it
    /// (capacity 0) or evict others to make room.
    fn insert(&mut self, key: &CacheKey, translated: &Arc<Translated>);

    /// Cumulative counters (merged across tiers for [`Tiered`]).
    fn stats(&self) -> CacheStats;

    /// Entries currently resident (memory entries for tiered backends).
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory-tier LRU bound.
    fn capacity(&self) -> usize;

    /// Rebound the memory-tier LRU, evicting down immediately. Capacity 0
    /// drops every entry and disables memory caching (counters are kept).
    fn set_capacity(&mut self, cap: usize);

    /// The disk directory this backend persists to, if any — the facade
    /// uses it to recognize an already-configured `with_disk_cache` path.
    fn disk_path(&self) -> Option<&Path> {
        None
    }

    /// Record that the facade ran a real (cold) translation.
    fn record_translation(&mut self);
}

/// Default memory-tier LRU bound: enough for every (figure × mode ×
/// shape) tuple the bench harness cycles through, small enough to bound
/// memory.
pub const DEFAULT_CAPACITY: usize = 64;

/// An LRU-bounded in-memory memo table from [`CacheKey`] to translated
/// programs. Entries are `Arc`-shared, so a hit is a pointer clone — no
/// translator or NIR work. This is the seed repo's `JitCache`, refactored
/// onto [`CacheBackend`].
pub struct MemoryLru {
    map: HashMap<CacheKey, Arc<Translated>>,
    /// Keys in recency order: least recently used first.
    order: Vec<CacheKey>,
    cap: usize,
    stats: CacheStats,
}

impl Default for MemoryLru {
    fn default() -> Self {
        MemoryLru::new(DEFAULT_CAPACITY)
    }
}

impl MemoryLru {
    pub fn new(cap: usize) -> Self {
        MemoryLru {
            map: HashMap::new(),
            order: Vec::new(),
            cap,
            stats: CacheStats::default(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl CacheBackend for MemoryLru {
    fn lookup(&mut self, key: &CacheKey) -> Option<Arc<Translated>> {
        match self.map.get(key) {
            Some(hit) => {
                let hit = Arc::clone(hit);
                self.stats.hits += 1;
                if let Some(i) = self.order.iter().position(|k| k == key) {
                    let k = self.order.remove(i);
                    self.order.push(k);
                }
                Some(hit)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: &CacheKey, translated: &Arc<Translated>) {
        if self.cap == 0 {
            return;
        }
        if self
            .map
            .insert(key.clone(), Arc::clone(translated))
            .is_none()
        {
            while self.order.len() + 1 > self.cap {
                let victim = self.order.remove(0);
                self.map.remove(&victim);
                self.stats.evictions += 1;
            }
            self.order.push(key.clone());
        } else if let Some(i) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(i);
            self.order.push(k);
        }
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity(&self) -> usize {
        self.cap
    }

    fn set_capacity(&mut self, cap: usize) {
        self.cap = cap;
        while self.order.len() > self.cap {
            let victim = self.order.remove(0);
            self.map.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    fn record_translation(&mut self) {
        self.stats.translations += 1;
    }
}

/// Default disk budget: generous for translated NIR artifacts (the golden
/// fixture is under 1 KiB; real figures run a few KiB each).
pub const DEFAULT_DISK_BUDGET: u64 = 256 * 1024 * 1024;

/// Default byte budget for persisted world checkpoints (`.wckpt`) living
/// beside the artifacts. Checkpoints are transient restart state, not
/// cached work product, so they get their own (smaller) budget and are
/// aged out oldest-first rather than accumulating forever.
pub const DEFAULT_CKPT_BUDGET: u64 = 64 * 1024 * 1024;

/// Extension of a sealed artifact file.
const ARTIFACT_EXT: &str = "wjar";

/// Extension of a persisted world checkpoint file.
const CKPT_EXT: &str = "wckpt";

/// `<dir>/<fingerprint>.wjar`: where the disk tier keeps `key`'s sealed
/// artifact.
pub fn artifact_path(dir: &Path, key: &CacheKey) -> PathBuf {
    dir.join(format!("{}.{ARTIFACT_EXT}", key.fingerprint()))
}

/// `<dir>/<fingerprint>.wckpt`: where a run of `key` persists its world
/// checkpoint chain, beside the artifact (delta links are named from it,
/// see `mpi_sim::delta_base`).
pub fn checkpoint_path(dir: &Path, key: &CacheKey) -> PathBuf {
    dir.join(format!("{}.{CKPT_EXT}", key.fingerprint()))
}

/// Bytes of sealed artifacts resident in `dir` — what a per-directory
/// quota counts. Staging files and checkpoints are not artifacts.
pub fn artifact_bytes(dir: &Path) -> u64 {
    files_with_ext(dir, ARTIFACT_EXT)
        .iter()
        .map(|(_, len, _)| len)
        .sum()
}

/// All resident files in `dir` with `ext` as `(path, len, mtime)`,
/// ignoring unreadable entries (a concurrent evictor may race us).
/// In-flight staging files never match: their extension is `tmp` (see
/// `mpi_sim::staging_path`).
fn files_with_ext(dir: &Path, ext: &str) -> Vec<(PathBuf, u64, SystemTime)> {
    scan(dir, ext, |_| {})
}

/// [`files_with_ext`], handing every other entry to `other` on the way.
fn scan(
    dir: &Path,
    ext: &str,
    mut other: impl FnMut(&std::fs::DirEntry),
) -> Vec<(PathBuf, u64, SystemTime)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some(ext) {
            other(&entry);
            continue;
        }
        let Ok(meta) = entry.metadata() else { continue };
        let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
        out.push((path, meta.len(), mtime));
    }
    out
}

/// Age past which a staging file is a dead writer's: one killed between
/// its write and its rename. A live write takes milliseconds, so an hour
/// leaves room for any clock skew between processes sharing the
/// directory.
pub const STALE_STAGING_AGE: Duration = Duration::from_secs(60 * 60);

/// Remove `entry` if it is a staging file older than
/// [`STALE_STAGING_AGE`]. A younger one may be another writer's, in
/// flight: it is left alone.
fn remove_if_stale_staging(entry: &std::fs::DirEntry, now: SystemTime) {
    let path = entry.path();
    if !mpi_sim::is_staging_path(&path) {
        return;
    }
    let Ok(mtime) = entry.metadata().and_then(|m| m.modified()) else {
        return;
    };
    if now
        .duration_since(mtime)
        .is_ok_and(|age| age > STALE_STAGING_AGE)
    {
        let _ = std::fs::remove_file(&path);
    }
}

/// A directory of sealed `.wjar` artifacts, one per key fingerprint.
///
/// Writes go through `mpi_sim::write_atomic` (a staging file renamed
/// into place), so a concurrent reader — another process warm-starting
/// from the same directory, or another store instance in this process —
/// never sees a torn artifact: at worst it sees the previous complete one
/// or none. The store is size-bounded: after every insert, oldest-mtime
/// artifacts are removed until the directory fits the budget; a hit
/// refreshes the artifact's mtime, making eviction LRU.
pub struct DiskStore {
    dir: PathBuf,
    max_bytes: u64,
    ckpt_budget: u64,
    stats: CacheStats,
}

impl DiskStore {
    /// Open (creating if needed) an artifact directory. Opening sweeps
    /// stale `.wckpt` checkpoints down to the checkpoint budget, so a
    /// long-lived cache directory stays bounded even across processes
    /// that only ever read it, and removes staging files older than
    /// [`STALE_STAGING_AGE`], which no writer will rename any more.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut store = DiskStore {
            dir,
            max_bytes: DEFAULT_DISK_BUDGET,
            ckpt_budget: DEFAULT_CKPT_BUDGET,
            stats: CacheStats::default(),
        };
        // One pass over the directory: the checkpoints to budget, and
        // the stale staging files among the rest.
        let now = SystemTime::now();
        let ckpts = scan(&store.dir, CKPT_EXT, |e| remove_if_stale_staging(e, now));
        store.stats.ckpt_evictions += Self::sweep_chains(ckpts, store.ckpt_budget);
        Ok(store)
    }

    /// Rebound the byte budget (evicts down on the next insert).
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Rebound the persisted-checkpoint (`.wckpt`) byte budget, sweeping
    /// immediately.
    pub fn with_ckpt_budget(mut self, max_bytes: u64) -> Self {
        self.ckpt_budget = max_bytes;
        self.evict_ckpts_to_budget();
        self
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Remove oldest-mtime files until their total fits `budget`.
    /// Returns the number of files removed.
    fn sweep(files: Vec<(PathBuf, u64, SystemTime)>, budget: u64) -> u64 {
        let mut files = files;
        let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
        if total <= budget {
            return 0;
        }
        files.sort_by_key(|(_, _, mtime)| *mtime);
        let mut removed = 0;
        for (path, len, _) in files {
            if total <= budget {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                removed += 1;
            }
        }
        removed
    }

    /// Remove oldest-mtime artifacts until the directory fits the budget.
    fn evict_to_budget(&mut self) {
        self.stats.disk_evictions +=
            Self::sweep(files_with_ext(&self.dir, ARTIFACT_EXT), self.max_bytes);
    }

    /// Age out persisted world checkpoints (`.wckpt`) beyond their own
    /// byte budget. Runs at open and after every insert, so checkpoint
    /// turnover cannot grow the directory without bound even though
    /// checkpoints are written by the restart machinery, not through
    /// this store.
    ///
    /// Checkpoints form delta chains (`name.wckpt` + `name.dN.wckpt`),
    /// so eviction is *chain-aware*: files are grouped by chain and whole
    /// chains are evicted coldest-first (by newest member's mtime) —
    /// never a base out from under live deltas, never orphaned deltas.
    fn evict_ckpts_to_budget(&mut self) {
        self.stats.ckpt_evictions +=
            Self::sweep_chains(files_with_ext(&self.dir, CKPT_EXT), self.ckpt_budget);
    }

    /// Remove whole checkpoint chains, coldest first, until their total
    /// fits `budget`. Returns the number of files removed.
    fn sweep_chains(files: Vec<(PathBuf, u64, SystemTime)>, budget: u64) -> u64 {
        let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
        if total <= budget {
            return 0;
        }
        let mut chains: HashMap<PathBuf, (u64, SystemTime, Vec<PathBuf>)> = HashMap::new();
        for (path, len, mtime) in files {
            let base = mpi_sim::delta_base(&path).unwrap_or_else(|| path.clone());
            let entry = chains
                .entry(base)
                .or_insert((0, SystemTime::UNIX_EPOCH, Vec::new()));
            entry.0 += len;
            entry.1 = entry.1.max(mtime);
            entry.2.push(path);
        }
        // Coldest chain = the one whose *newest* member is oldest; the
        // base-path tiebreak keeps eviction order deterministic.
        let mut chains: Vec<_> = chains.into_iter().collect();
        chains.sort_by(|a, b| (a.1 .1, &a.0).cmp(&(b.1 .1, &b.0)));
        let mut removed = 0;
        for (_, (len, _, paths)) in chains {
            if total <= budget {
                break;
            }
            for path in paths {
                if std::fs::remove_file(&path).is_ok() {
                    removed += 1;
                }
            }
            total = total.saturating_sub(len);
        }
        removed
    }

    /// Mark an artifact as recently used for the LRU-by-mtime sweep.
    fn touch(path: &Path) {
        if let Ok(f) = std::fs::File::options().write(true).open(path) {
            let _ = f.set_modified(SystemTime::now());
        }
    }
}

impl CacheBackend for DiskStore {
    /// Probe the directory. A decode failure (truncated / bit-flipped /
    /// version-skewed artifact) is counted, the bad file is removed, and
    /// the probe reports a miss — the caller translates cold. Never
    /// panics on hostile files.
    fn lookup(&mut self, key: &CacheKey) -> Option<Arc<Translated>> {
        let path = artifact_path(&self.dir, key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.stats.disk_misses += 1;
                return None;
            }
        };
        match Translated::decode(&bytes) {
            Ok(t) => {
                self.stats.disk_hits += 1;
                Self::touch(&path);
                Some(Arc::new(t))
            }
            Err(_) => {
                self.stats.decode_failures += 1;
                self.stats.disk_misses += 1;
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    fn insert(&mut self, key: &CacheKey, translated: &Arc<Translated>) {
        if self.max_bytes == 0 {
            return;
        }
        // Best-effort persistence: a full disk or permission error must
        // not break the jit path — the artifact simply is not cached.
        let path = artifact_path(&self.dir, key);
        if mpi_sim::write_atomic(&path, &translated.encode()).is_ok() {
            self.evict_to_budget();
            self.evict_ckpts_to_budget();
        }
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn len(&self) -> usize {
        files_with_ext(&self.dir, ARTIFACT_EXT).len()
    }

    /// The disk tier is byte-bounded, not entry-bounded.
    fn capacity(&self) -> usize {
        usize::MAX
    }

    /// Entry-count bounds do not apply to the disk tier; use
    /// [`DiskStore::with_max_bytes`] to change the byte budget.
    fn set_capacity(&mut self, _cap: usize) {}

    fn disk_path(&self) -> Option<&Path> {
        Some(&self.dir)
    }

    fn record_translation(&mut self) {
        self.stats.translations += 1;
    }
}

/// Memory in front of disk: probes hit the [`MemoryLru`] first; a miss
/// falls through to the [`DiskStore`], and a disk hit is decoded once
/// then *promoted* into memory so this process never decodes it again.
/// Inserts populate both tiers.
pub struct Tiered {
    mem: MemoryLru,
    disk: DiskStore,
    promotions: u64,
    translations: u64,
}

impl Tiered {
    pub fn new(mem: MemoryLru, disk: DiskStore) -> Self {
        Tiered {
            mem,
            disk,
            promotions: 0,
            translations: 0,
        }
    }

    /// Convenience: default memory LRU over a store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Ok(Tiered::new(MemoryLru::default(), DiskStore::open(dir)?))
    }
}

impl CacheBackend for Tiered {
    fn lookup(&mut self, key: &CacheKey) -> Option<Arc<Translated>> {
        if let Some(hit) = self.mem.lookup(key) {
            return Some(hit);
        }
        let from_disk = self.disk.lookup(key)?;
        self.promotions += 1;
        self.mem.insert(key, &from_disk);
        Some(from_disk)
    }

    fn insert(&mut self, key: &CacheKey, translated: &Arc<Translated>) {
        self.mem.insert(key, translated);
        self.disk.insert(key, translated);
    }

    fn stats(&self) -> CacheStats {
        // The tiers count disjoint events; promotions and translations
        // are counted here, not in either tier.
        let mut stats = self.mem.stats();
        stats.merge(&self.disk.stats());
        stats.promotions = self.promotions;
        stats.translations = self.translations;
        stats
    }

    fn len(&self) -> usize {
        self.mem.len()
    }

    fn capacity(&self) -> usize {
        self.mem.capacity()
    }

    fn set_capacity(&mut self, cap: usize) {
        self.mem.set_capacity(cap);
    }

    fn disk_path(&self) -> Option<&Path> {
        self.disk.disk_path()
    }

    fn record_translation(&mut self) {
        self.translations += 1;
    }
}

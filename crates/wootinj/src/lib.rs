//! # wootinj — the framework facade
//!
//! The public API mirroring the paper's client view (Listing 3):
//!
//! ```text
//! Java (paper)                          this crate
//! ------------------------------------  ------------------------------------
//! javac + class loading                 build_table(&[source, ...])
//! new StencilOnGpuAndMPI(gen, solver)   env.new_instance("StencilOnGpuAndMPI", &[gen, solver])
//! WootinJ.jit4mpi(stencil, "run", ...)  env.jit(&stencil, "run", &args, JitOptions::wootinj())
//! code.set4MPI(128, "./nodeList")       code.set_mpi(128, CostModel::default())
//! code.invoke()                         code.invoke(&env)
//! ```
//!
//! `invoke` drives the translated program on the `exec` engine through the
//! `mpi-sim` world (which also hosts single-rank and GPU runs), and
//! returns a [`RunReport`] with both wall-clock and deterministic
//! virtual-time metrics. `run_interpreted` runs the same composed
//! application on the `jvm` interpreter — the paper's *Java* series.

#![forbid(unsafe_code)]

pub mod cache;
pub mod prelude;

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cache::{CacheBackend, CacheKey, MemoryLru, Tiered};
use jlang::{ClassTable, DiagResult, SourceSet};
use jvm::{Jvm, JvmError, Value};
use mpi_sim::CostModel;
use translator::{bind_entry_args, entry_spec, translate, TransConfig, TransError, Translated};

pub use cache::CacheStats;
pub use exec::{CkptError, ExecMode, ExecutorCfg, FaultConfig, ResilienceStats, Val};
pub use gpu_sim::GpuConfig;
pub use mpi_sim::CostModel as MpiCostModel;
pub use mpi_sim::SimError;
pub use mpi_sim::{probe_chain, ChainProbe, CheckpointPolicy, RestartStats, Schedule};
pub use mpi_sim::{SharedCache, SharedCacheStats};
pub use nir::OptConfig;
pub use platform::{
    by_id as platform_by_id, registry as platform_registry, Caps, DistPlatform, GpuSimPlatform,
    HostMtPlatform, InterpPlatform, MpiSimPlatform, Needs, Platform, PlatformError, RunOutcome,
    RunRequest,
};
pub use querydb::{Database, QueryStats, RebuildLaps};
pub use translator::{Binding, EntrySpec, Mode, TransStats};

/// Compile prelude + user sources into a typed class table.
///
/// ```
/// use wootinj::{build_table, WootinJ, JitOptions, Val};
/// use jvm::Value;
///
/// let src = "@WootinJ final class Doubler {
///              Doubler() { }
///              int run(int x) { return x * 2; }
///            }";
/// let table = build_table(&[("doubler.jl", src)]).unwrap();
/// let mut env = WootinJ::new(&table).unwrap();
/// let d = env.new_instance("Doubler", &[]).unwrap();
/// let code = env.jit(&d, "run", &[Value::Int(21)], JitOptions::wootinj()).unwrap();
/// let report = code.invoke(&env).unwrap();
/// assert_eq!(report.result, Some(Val::I32(42)));
/// ```
pub fn build_table(sources: &[(&str, &str)]) -> DiagResult<ClassTable> {
    let mut set = SourceSet::new().with("<prelude>", prelude::PRELUDE);
    for (name, src) in sources {
        set.add(*name, *src);
    }
    jlang::compile(&set)
}

/// An editable WootinJ program: the incremental-compilation entry point.
///
/// Owns a [`Database`] of memoized queries (pre-seeded with the prelude,
/// mirroring [`build_table`]) and hands out environments borrowing the
/// current revision's table. [`Self::set_source`] / [`Self::edit`] bump
/// the revision; a subsequent [`Self::env`] + `jit` re-translates
/// incrementally, re-executing only the queries the edit invalidated —
/// and produces an artifact bit-identical to a from-scratch build.
///
/// ```
/// use wootinj::{JitOptions, Workspace};
/// use jvm::Value;
///
/// let mut ws = Workspace::new();
/// ws.set_source("d.jl", "@WootinJ final class D { D() { } int run(int x) { return x * 2; } }")
///     .unwrap();
/// {
///     let mut env = ws.env().unwrap();
///     let d = env.new_instance("D", &[]).unwrap();
///     let code = env.jit(&d, "run", &[Value::Int(21)], JitOptions::wootinj()).unwrap();
///     assert_eq!(code.invoke(&env).unwrap().result, Some(wootinj::Val::I32(42)));
/// } // drop the env (it borrows the revision's table) before editing
/// ws.edit("d.jl", "@WootinJ final class D { D() { } int run(int x) { return x * 3; } }")
///     .unwrap();
/// let mut env = ws.env().unwrap();
/// let d = env.new_instance("D", &[]).unwrap();
/// let code = env.jit(&d, "run", &[Value::Int(21)], JitOptions::wootinj()).unwrap();
/// assert_eq!(code.invoke(&env).unwrap().result, Some(wootinj::Val::I32(63)));
/// ```
#[derive(Default)]
pub struct Workspace {
    db: Database,
}

impl Workspace {
    /// Empty workspace: the prelude is added lazily with the first
    /// user source, so a fresh workspace has revision 0 and no snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set (or add) a source file and recompile incrementally. The first
    /// call also seeds the prelude (as file 0, matching [`build_table`]'s
    /// class-id assignment), compiled together with `name` in that call's
    /// one rebuild. Returns the new revision.
    pub fn set_source(&mut self, name: &str, text: &str) -> DiagResult<u64> {
        if self.db.revision() == 0 {
            self.db.stage_source("<prelude>", prelude::PRELUDE);
        }
        self.db.set_source(name, text)
    }

    /// Edit an existing source file (see [`Database::edit`]).
    pub fn edit(&mut self, name: &str, text: &str) -> DiagResult<u64> {
        self.db.edit(name, text)
    }

    pub fn revision(&self) -> u64 {
        self.db.revision()
    }

    /// Cumulative query counters (see [`Database::stats`]).
    pub fn query_stats(&self) -> QueryStats {
        self.db.stats()
    }

    /// Cumulative rebuild wall time, lap by lap (see
    /// [`Database::rebuild_laps`]).
    pub fn rebuild_laps(&self) -> RebuildLaps {
        self.db.rebuild_laps()
    }

    /// Direct access to the query database (e.g. for
    /// [`Database::source_fingerprint`]).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Build an environment at the current revision. The env borrows the
    /// workspace, so the borrow checker forces all envs (and their
    /// heaps) to be dropped before the next [`Self::edit`].
    pub fn env(&self) -> WjResult<WootinJ<'_>> {
        WootinJ::from_db(&self.db)
    }
}

/// Framework error: anything from composition to translation to execution.
/// The `Sim` variant carries the typed [`mpi_sim::SimError`], so callers
/// can distinguish crashes, timeouts, and deadlocks without string
/// matching (the bench fault matrix classifies outcomes this way).
#[derive(Debug)]
pub enum WjError {
    Jvm(JvmError),
    Translate(TransError),
    Sim(SimError),
    /// Artifact-store configuration failure (e.g. the disk-cache
    /// directory cannot be created). Note that *artifact* problems —
    /// corrupt or version-skewed files — are never errors: they degrade
    /// to a cold translate.
    Cache(String),
    /// Capability mismatch on the [`WootinJ::jit_on`] path: the chosen
    /// platform cannot run what the translation needs (e.g. `global`
    /// kernels on a device-less backend). Typed and raised at JIT time,
    /// before any world is built.
    Platform(PlatformError),
}

impl std::fmt::Display for WjError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WjError::Jvm(e) => write!(f, "{e}"),
            WjError::Translate(e) => write!(f, "{e}"),
            WjError::Sim(e) => write!(f, "simulation error: {e}"),
            WjError::Cache(m) => write!(f, "artifact store: {m}"),
            WjError::Platform(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WjError {}

impl From<JvmError> for WjError {
    fn from(e: JvmError) -> Self {
        WjError::Jvm(e)
    }
}

impl From<TransError> for WjError {
    fn from(e: TransError) -> Self {
        WjError::Translate(e)
    }
}

impl From<SimError> for WjError {
    fn from(e: SimError) -> Self {
        WjError::Sim(e)
    }
}

impl From<PlatformError> for WjError {
    fn from(e: PlatformError) -> Self {
        WjError::Platform(e)
    }
}

pub type WjResult<T> = Result<T, WjError>;

/// The framework environment: a class table plus the interpreter heap in
/// which applications compose their object graphs.
pub struct WootinJ<'t> {
    pub table: &'t ClassTable,
    pub jvm: Jvm<'t>,
    /// User-registered foreign functions for translated code (the paper's
    /// FFI: `@Native("key")` methods with unknown keys become direct host
    /// calls).
    pub host: exec::HostRegistry,
    /// Specialization-keyed artifact store consulted by [`Self::jit`].
    /// [`MemoryLru`] by default; [`JitOptions::with_disk_cache`] (or
    /// [`Self::set_cache_backend`]) swaps in a [`Tiered`] store.
    cache: RefCell<Box<dyn CacheBackend>>,
    /// Incremental query database this env was built from
    /// ([`Self::from_db`]): `jit` consults its memoized per-function
    /// lowering queries instead of translating from scratch, and cache
    /// keys gain the database's source fingerprint.
    incr: Option<&'t Database>,
}

impl<'t> WootinJ<'t> {
    pub fn new(table: &'t ClassTable) -> WjResult<Self> {
        Ok(WootinJ {
            table,
            jvm: Jvm::new(table)?,
            host: exec::HostRegistry::new(),
            cache: RefCell::new(Box::new(MemoryLru::default())),
            incr: None,
        })
    }

    /// Build an environment on an incremental query [`Database`] (see
    /// [`Workspace`] for the usual entry point). The env borrows the
    /// database's table at its current revision, so the borrow checker
    /// enforces the edit discipline: drop the env (and its heap, whose
    /// layouts came from this table) before the next `edit`.
    pub fn from_db(db: &'t Database) -> WjResult<Self> {
        let table = db.table().ok_or_else(|| {
            WjError::Cache("query database has no compiled snapshot; call set_source first".into())
        })?;
        let mut env = Self::new(table)?;
        env.incr = Some(db);
        Ok(env)
    }

    /// Replace the artifact-store backend (drops the old tiers' contents
    /// from this env's view; disk artifacts stay on disk).
    pub fn set_cache_backend(&self, backend: Box<dyn CacheBackend>) {
        *self.cache.borrow_mut() = backend;
    }

    /// Register a foreign function for the *translated* execution path.
    /// The jlang side declares it as `@Native("key")`; unknown keys are
    /// translated into direct host calls (the paper's FFI mechanism).
    /// For the interpreter path, also call [`Self::register_jvm_native`].
    pub fn register_host(
        &mut self,
        key: impl Into<String>,
        f: impl Fn(&[Val], &mut exec::MemSpace) -> Result<Val, exec::ExecError> + 'static,
    ) {
        self.host.register(key, f);
    }

    /// Register the interpreter-side implementation of a foreign function.
    pub fn register_jvm_native(&mut self, key: impl Into<String>, f: jvm::NativeFn) {
        self.jvm.register_native(key, f);
    }

    /// Convenience: register a pure `f64 -> f64`-style scalar function on
    /// *both* execution paths at once (covers the common FFI-to-libm case).
    pub fn register_scalar_fn(&mut self, key: &str, f: fn(f64) -> f64) {
        self.host.register(key.to_string(), move |args, _| {
            let x = args.first().ok_or("missing argument")?.as_f64()?;
            Ok(Val::F64(f(x)))
        });
        self.jvm.register_native(
            key.to_string(),
            std::rc::Rc::new(move |_jvm: &mut Jvm<'_>, args: &[Value]| {
                let x = args
                    .first()
                    .ok_or_else(|| JvmError::new("missing argument"))?
                    .as_f64()
                    .map_err(JvmError::new)?;
                Ok(Value::Double(f(x)))
            }),
        );
    }

    /// Instantiate a class on the (host) Java side.
    pub fn new_instance(&mut self, class: &str, args: &[Value]) -> WjResult<Value> {
        Ok(self.jvm.new_instance(class, args)?)
    }

    pub fn new_f32_array(&mut self, data: &[f32]) -> Value {
        self.jvm.new_f32_array(data)
    }

    pub fn f32_array(&self, v: &Value) -> WjResult<Vec<f32>> {
        Ok(self.jvm.f32_array(v)?)
    }

    /// Run a method on the interpreter — the paper's *Java* series.
    pub fn run_interpreted(
        &mut self,
        recv: &Value,
        method: &str,
        args: &[Value],
    ) -> WjResult<JavaRunReport> {
        let steps_before = self.jvm.steps;
        let start = Instant::now();
        let result = self.jvm.call(recv, method, args)?;
        Ok(JavaRunReport {
            result,
            steps: self.jvm.steps - steps_before,
            wall: start.elapsed(),
        })
    }

    /// JIT-translate `recv.method(args)` — `WootinJ.jit` / `jit4mpi`.
    /// The arguments are recorded and replayed by [`JitCode::invoke`].
    ///
    /// Translation is memoized in a specialization-keyed code cache: the
    /// key is the exact dynamic type tuple of the live receiver/argument
    /// graph plus the full [`TransConfig`] and the host-FFI registry
    /// fingerprint. A repeat call with an identical key does zero
    /// translator/NIR work and shares the program via `Arc`.
    pub fn jit(
        &self,
        recv: &Value,
        method: &str,
        args: &[Value],
        options: JitOptions,
    ) -> WjResult<JitCode> {
        // Salt 0 is the unscoped legacy namespace (identical fingerprints
        // to every release before the platform layer existed).
        self.jit_salted(recv, method, args, options, 0)
    }

    /// `WootinJ.jit` retargeted: JIT for a specific [`Platform`]. The
    /// platform's salt scopes the artifact-store key (and any persisted
    /// `.wckpt` checkpoint) to the target, its capability surface is
    /// checked against what the translation needs (typed
    /// [`WjError::Platform`] on mismatch, raised here — not deep inside a
    /// run), and [`JitCode::invoke`] drives the platform's own
    /// [`Platform::run`]. This is the one path all backends share;
    /// [`Self::jit`]/[`Self::jit4mpi`] are thin wrappers over the same
    /// machinery with the built-in platforms selected from the legacy
    /// knobs.
    pub fn jit_on(
        &self,
        platform: Arc<dyn Platform>,
        recv: &Value,
        method: &str,
        args: &[Value],
        options: JitOptions,
    ) -> WjResult<JitCode> {
        let mut code = self.jit_salted(recv, method, args, options, platform.fingerprint_salt())?;
        platform.check(needs_of(&code.translated))?;
        code.platform = Some(platform);
        Ok(code)
    }

    /// The shared body of [`Self::jit`]/[`Self::jit_on`]: the degradation
    /// ladder over [`Self::jit_once`] with the artifact-store key scoped
    /// by `salt` (0 = unscoped).
    fn jit_salted(
        &self,
        recv: &Value,
        method: &str,
        args: &[Value],
        options: JitOptions,
        salt: u64,
    ) -> WjResult<JitCode> {
        let start = Instant::now();
        let q0 = self.incr.map(|db| db.stats());
        if let Some(dir) = &options.disk_cache {
            self.ensure_disk_cache(dir)?;
        }
        let checkpoint = self.resolve_checkpoint(&options, recv, method, args, salt);
        let mut attempts: Vec<(Mode, String)> = Vec::new();
        let mut config = options.config;
        let translated = loop {
            match self.jit_once(recv, method, args, config, salt) {
                Ok(t) => break t,
                Err(e) => {
                    let next = degrade_next(config).filter(|_| options.degrade);
                    let Some(next) = next else { return Err(e) };
                    attempts.push((config.mode, e.to_string()));
                    config = next;
                }
            }
        };
        let compile_time = start.elapsed();
        let degrade = if attempts.is_empty() {
            None
        } else {
            Some(DegradeReport {
                attempts,
                served: config.mode,
            })
        };
        Ok(JitCode {
            translated,
            compile_time,
            cache_stats: self.cache.borrow().stats(),
            query_delta: self
                .incr
                .zip(q0)
                .map(|(db, q0)| db.stats().since(&q0))
                .unwrap_or_default(),
            degrade,
            shared_jit: SharedCacheStats::default(),
            recv: recv.clone(),
            args: args.to_vec(),
            platform: None,
            mpi_size: 1,
            cost: CostModel::default(),
            gpu: None,
            fault: None,
            timeout_rounds: None,
            checkpoint,
            max_restarts: DEFAULT_MAX_RESTARTS,
            executor: options.executor,
        })
    }

    /// Resolve the effective checkpoint policy for one `jit` call: when
    /// checkpointing and a disk cache are both requested but no explicit
    /// persist path is set, checkpoints persist next to the JIT artifacts
    /// as `<dir>/<fingerprint>.wckpt` (same key derivation as the `.wjar`
    /// files, so distinct specializations never clobber each other's
    /// checkpoints — and the `.wckpt` suffix keeps them invisible to the
    /// artifact store's eviction scan).
    fn resolve_checkpoint(
        &self,
        options: &JitOptions,
        recv: &Value,
        method: &str,
        args: &[Value],
        salt: u64,
    ) -> Option<CheckpointPolicy> {
        let mut policy = options.checkpoint.clone()?;
        if policy.persist.is_none() {
            if let Some(dir) = &options.disk_cache {
                if let Ok(key) = self.cache_key(recv, method, args, options.config, salt) {
                    policy.persist = Some(dir.join(format!("{}.wckpt", key.fingerprint())));
                }
            }
        }
        Some(policy)
    }

    /// One rung of [`Self::jit`]: key derivation, cache probe, and (on a
    /// miss) translation under exactly one [`TransConfig`]. A failed
    /// translation never populates the cache — the `Err` returns before
    /// any insert, so a later corrected graph with the same key shape
    /// misses and retranslates instead of hitting a poisoned entry.
    fn jit_once(
        &self,
        recv: &Value,
        method: &str,
        args: &[Value],
        config: TransConfig,
        salt: u64,
    ) -> WjResult<Arc<Translated>> {
        let key = self.cache_key(recv, method, args, config, salt)?;
        let cached = self.cache.borrow_mut().lookup(&key);
        match cached {
            Some(hit) => Ok(hit),
            None => {
                let t = Arc::new(match self.incr {
                    Some(db) => db.translate(&self.jvm, recv, method, args, config)?,
                    None => translate(self.table, &self.jvm, recv, method, args, config)?,
                });
                let mut cache = self.cache.borrow_mut();
                cache.record_translation();
                cache.insert(&key, &t);
                Ok(t)
            }
        }
    }

    /// Derive the canonical artifact-store key for `recv.method(args)`
    /// under `config` (the pure half of [`Self::jit`]; also the id used
    /// for cross-rank sharing in [`Self::jit4mpi`] and for single-flight
    /// deduplication in the `jitd` service daemon).
    pub fn cache_key(
        &self,
        recv: &Value,
        method: &str,
        args: &[Value],
        config: TransConfig,
        salt: u64,
    ) -> WjResult<CacheKey> {
        let spec = entry_spec(self.table, &self.jvm, recv, method, args, config.mode)?;
        // With a query database attached, the key also carries the
        // whitespace-insensitive source fingerprint: a semantic edit
        // re-keys the artifact, a formatting-only edit keeps hitting.
        let src = self.incr.map_or(0, |db| db.source_fingerprint());
        Ok(
            CacheKey::new(spec, config, self.host.keys().map(str::to_string).collect())
                .with_platform_salt(salt)
                .with_source_fingerprint(src),
        )
    }

    /// Idempotently switch the artifact store to a [`Tiered`] backend
    /// persisting at `dir`. Already-tiered-at-`dir` envs keep their
    /// (warm) backend; anything else is replaced.
    fn ensure_disk_cache(&self, dir: &Path) -> WjResult<()> {
        if self.cache.borrow().disk_path() == Some(dir) {
            return Ok(());
        }
        let tiered = Tiered::open(dir)
            .map_err(|e| WjError::Cache(format!("cannot open disk cache at {dir:?}: {e}")))?;
        self.set_cache_backend(Box::new(tiered));
        Ok(())
    }

    /// `WootinJ.jit4mpi` with cross-rank artifact sharing: translate
    /// `recv.method(args)` for a `world_size`-rank world against a
    /// job-lifetime, rank-0-owned [`SharedCache`].
    ///
    /// The broadcast pattern of production MPI jobs: if the shared cache
    /// already holds the key's sealed artifact, **no rank translates** —
    /// every rank decodes the broadcast bytes. Otherwise rank 0
    /// translates exactly once (through this env's local artifact store,
    /// including the degradation ladder when enabled), publishes the
    /// encoded artifact, and the remaining `world_size − 1` ranks decode.
    /// Each distinct key is therefore translated once per *job*,
    /// regardless of world size or how many worlds share the cache.
    ///
    /// The returned code is already configured for `world_size` ranks
    /// (tune the cost model with [`JitCode::set_mpi`]), and its runs
    /// report the translate-once counters on `WorldRun::shared_jit`.
    pub fn jit4mpi(
        &self,
        recv: &Value,
        method: &str,
        args: &[Value],
        options: JitOptions,
        world_size: u32,
        shared: &mut SharedCache,
    ) -> WjResult<JitCode> {
        let world_size = world_size.max(1);
        let start = Instant::now();
        if let Some(dir) = &options.disk_cache {
            self.ensure_disk_cache(dir)?;
        }
        let key = self.cache_key(recv, method, args, options.config, 0)?;
        let fingerprint = key.fingerprint();

        if let Some(bytes) = shared.lookup(&fingerprint) {
            // A previous world already translated this key: every rank of
            // this world decodes the broadcast artifact. A corrupt entry
            // degrades to the cold path below — never a panic.
            let n = bytes.len() as u64;
            if let Ok(t) = Translated::decode(bytes) {
                shared.record_broadcast(u64::from(world_size), n);
                let checkpoint = self.resolve_checkpoint(&options, recv, method, args, 0);
                return Ok(JitCode {
                    translated: Arc::new(t),
                    compile_time: start.elapsed(),
                    cache_stats: self.cache.borrow().stats(),
                    query_delta: QueryStats::default(),
                    degrade: None,
                    shared_jit: shared.stats(),
                    recv: recv.clone(),
                    args: args.to_vec(),
                    platform: None,
                    mpi_size: world_size,
                    cost: CostModel::default(),
                    gpu: None,
                    fault: None,
                    timeout_rounds: None,
                    checkpoint,
                    max_restarts: DEFAULT_MAX_RESTARTS,
                    executor: options.executor,
                });
            }
        }

        // Rank 0 translates (once per key per job) and broadcasts. The
        // artifact is published under the *requested* key: if the
        // degradation ladder served a lower rung, later worlds asking for
        // the same options get the same degraded artifact.
        let mut code = self.jit(recv, method, args, options)?;
        let bytes = code.translated.encode();
        let n = bytes.len() as u64;
        shared.publish(fingerprint, bytes);
        if world_size > 1 {
            shared.record_broadcast(u64::from(world_size) - 1, n);
        }
        code.shared_jit = shared.stats();
        code.mpi_size = world_size;
        Ok(code)
    }

    /// Wrap an already-sealed artifact as runnable [`JitCode`] without
    /// translating: the follower half of out-of-process artifact sharing
    /// (the `jitd` daemon's single-flight path decodes the leader's
    /// broadcast bytes on every waiting connection through this). The
    /// code starts in the single-rank interpreter shape — callers tune
    /// it with `set_mpi`/`set_gpu`/`set_timeout` as usual.
    pub fn code_from_artifact(
        &self,
        translated: Arc<Translated>,
        recv: &Value,
        args: &[Value],
    ) -> JitCode {
        JitCode {
            translated,
            compile_time: Duration::ZERO,
            cache_stats: self.cache.borrow().stats(),
            query_delta: QueryStats::default(),
            degrade: None,
            shared_jit: SharedCacheStats::default(),
            recv: recv.clone(),
            args: args.to_vec(),
            platform: None,
            mpi_size: 1,
            cost: CostModel::default(),
            gpu: None,
            fault: None,
            timeout_rounds: None,
            checkpoint: None,
            max_restarts: DEFAULT_MAX_RESTARTS,
            executor: ExecutorCfg::Sim,
        }
    }

    /// Cumulative code-cache counters (hits / misses / evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.borrow().stats()
    }

    /// Number of cached specializations currently resident.
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Rebound the LRU cache, evicting down immediately. Capacity 0
    /// disables caching (every `jit` call translates from scratch).
    pub fn set_cache_capacity(&self, cap: usize) {
        self.cache.borrow_mut().set_capacity(cap);
    }
}

/// What a translation needs from its platform, read off the translated
/// program (the [`Platform::check`] input on the [`WootinJ::jit_on`]
/// path).
fn needs_of(translated: &Translated) -> Needs {
    Needs {
        kernels: translated.uses_gpu,
        collectives: translated.uses_mpi,
        host_ffi: !translated.program.host_fns.is_empty(),
    }
}

/// Map the legacy `set_mpi`/`set_gpu` knobs onto a built-in platform —
/// exactly the world shapes `invoke` built by hand before the platform
/// layer existed, so the wrapper paths stay bit-identical.
fn select_platform(mpi_size: u32, cost: CostModel, gpu: Option<GpuConfig>) -> Arc<dyn Platform> {
    match (mpi_size, gpu) {
        (0 | 1, None) => Arc::new(InterpPlatform { cost }),
        (0 | 1, Some(gpu)) => Arc::new(GpuSimPlatform { gpu, cost }),
        (ranks, gpu) => Arc::new(MpiSimPlatform { ranks, cost, gpu }),
    }
}

/// The next rung of the degradation ladder `Full → Devirt → Virtual`:
/// each step gives up one specialization guarantee. The final rung is
/// the C++-baseline configuration — virtual dispatch, heap objects, no
/// rule check — which tolerates graphs (rule violations, null fields,
/// object arrays) that the shaped modes reject.
fn degrade_next(config: TransConfig) -> Option<TransConfig> {
    match config.mode {
        Mode::Full => Some(TransConfig {
            mode: Mode::Devirt,
            ..config
        }),
        Mode::Devirt => Some(TransConfig::virtual_dispatch()),
        Mode::Virtual => None,
    }
}

/// What the degradation ladder did for one `jit` call: every rung that
/// failed (with its error) and the mode that finally served the request.
#[derive(Debug, Clone)]
pub struct DegradeReport {
    /// `(mode, error)` for each failed attempt, in ladder order.
    pub attempts: Vec<(Mode, String)>,
    /// The mode whose translation was actually served.
    pub served: Mode,
}

/// Options for [`WootinJ::jit`]; presets map onto the paper's series.
#[derive(Debug, Clone)]
pub struct JitOptions {
    pub config: TransConfig,
    /// When set, a failed translation falls down the degradation ladder
    /// (`Full → Devirt → Virtual`) instead of erroring; the served rung
    /// is recorded in [`JitCode::degrade`]. Off by default: the paper's
    /// series must fail loudly when their mode cannot translate.
    pub degrade: bool,
    /// When set, the env's artifact store is (idempotently) switched to a
    /// [`Tiered`] memory-over-disk backend persisting at this directory,
    /// so translations survive the process and a later env warm-starts
    /// without any translator work.
    pub disk_cache: Option<PathBuf>,
    /// When set, [`JitCode::invoke`] runs through
    /// [`mpi_sim::World::run_with_restart`]: the world checkpoints at
    /// collective boundaries per this policy and rolls back + resumes on injected
    /// crashes/timeouts instead of failing. With [`Self::with_disk_cache`]
    /// also set (and no explicit persist path on the policy), the latest
    /// checkpoint persists as `<dir>/<fingerprint>.wckpt` next to the JIT
    /// artifacts, enabling process warm-restart.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Who executes ready slices each world round: the in-process
    /// cooperative loop ([`ExecutorCfg::Sim`], the default) or real
    /// OS-thread workers ([`ExecutorCfg::Threads`]). Replay-mode
    /// threads are bit-identical to the loop, so flipping this never
    /// changes results or cache identity. The `WJ_EXECUTOR=threads`
    /// environment override (checked at [`JitCode::invoke`]) wins over
    /// this option.
    pub executor: ExecutorCfg,
}

impl JitOptions {
    /// The WootinJ pipeline (devirtualization + specialization + object
    /// inlining).
    pub fn wootinj() -> Self {
        JitOptions {
            config: TransConfig::full(),
            degrade: false,
            disk_cache: None,
            checkpoint: None,
            executor: ExecutorCfg::Sim,
        }
    }

    /// The *C++* baseline: vtable dispatch, heap objects.
    pub fn cpp() -> Self {
        JitOptions {
            config: TransConfig::virtual_dispatch(),
            degrade: false,
            disk_cache: None,
            checkpoint: None,
            executor: ExecutorCfg::Sim,
        }
    }

    /// The *Template* baseline: devirtualized via specialization, objects
    /// kept on the heap, but with the optimizer's function inlining and
    /// scalar replacement — what an optimizing C++ compiler does to
    /// template code with value objects.
    pub fn template() -> Self {
        let mut config = TransConfig::devirt();
        config.opt = OptConfig::aggressive();
        JitOptions {
            config,
            degrade: false,
            disk_cache: None,
            checkpoint: None,
            executor: ExecutorCfg::Sim,
        }
    }

    /// The *Template w/o virt.* baseline: WootinJ + function inlining.
    pub fn template_no_virt() -> Self {
        JitOptions {
            config: TransConfig::template_no_virt(),
            degrade: false,
            disk_cache: None,
            checkpoint: None,
            executor: ExecutorCfg::Sim,
        }
    }

    pub fn with_opt(mut self, opt: OptConfig) -> Self {
        self.config.opt = opt;
        self
    }

    pub fn unchecked(mut self) -> Self {
        self.config.check_rules = false;
        self
    }

    /// Enable the graceful-degradation ladder for this `jit` call.
    pub fn with_degradation(mut self) -> Self {
        self.degrade = true;
        self
    }

    /// Persist translated artifacts under `dir` and warm-start from any
    /// already there (see [`JitOptions::disk_cache`]).
    pub fn with_disk_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk_cache = Some(dir.into());
        self
    }

    /// Checkpoint at collective boundaries per `policy` and restart
    /// crashed worlds instead of failing (see [`JitOptions::checkpoint`]).
    pub fn with_checkpointing(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Execute world slices on real OS threads (or explicitly keep the
    /// cooperative loop) — see [`JitOptions::executor`].
    pub fn with_executor(mut self, executor: ExecutorCfg) -> Self {
        self.executor = executor;
        self
    }
}

/// Restart budget for checkpointed [`JitCode::invoke`] runs (tunable via
/// [`JitCode::set_max_restarts`]).
pub const DEFAULT_MAX_RESTARTS: u32 = 16;

/// A translated program with its recorded entry arguments — the paper's
/// `JitCode`. Cheaply cloneable: the program is `Arc`-shared with the
/// code cache and with every other `JitCode` minted from the same
/// specialization key.
#[derive(Clone)]
pub struct JitCode {
    pub translated: Arc<Translated>,
    /// Wall time this `jit` call spent (key extraction + cache probe +,
    /// on a miss, full translation — Table 3's "compilation time").
    pub compile_time: Duration,
    /// Snapshot of the env's cache counters when this code was minted.
    cache_stats: CacheStats,
    /// Query-database counter deltas for this `jit` call (all-zero
    /// without an attached [`Database`]).
    query_delta: QueryStats,
    /// What the degradation ladder did, when [`JitOptions::degrade`] was
    /// set and the requested mode failed; `None` for a first-try success.
    pub degrade: Option<DegradeReport>,
    /// Snapshot of the job-wide translate-once counters at mint time
    /// (all-zero unless this code came from [`WootinJ::jit4mpi`]);
    /// surfaced on every run's `WorldRun::shared_jit`.
    pub shared_jit: SharedCacheStats,
    recv: Value,
    args: Vec<Value>,
    /// The platform [`Self::invoke`] runs on. `Some` when minted by
    /// [`WootinJ::jit_on`]; `None` means "select a built-in from the
    /// legacy knobs below" (and [`Self::set_mpi`]/[`Self::set_gpu`] reset
    /// to that mode, since those knobs describe the built-in shapes).
    platform: Option<Arc<dyn Platform>>,
    mpi_size: u32,
    cost: CostModel,
    gpu: Option<GpuConfig>,
    fault: Option<FaultConfig>,
    timeout_rounds: Option<u64>,
    checkpoint: Option<CheckpointPolicy>,
    max_restarts: u32,
    executor: ExecutorCfg,
}

impl JitCode {
    /// `code.set4MPI(size, nodeList)` — configure the MPI world. Resets
    /// any [`WootinJ::jit_on`] platform choice: the legacy knobs select
    /// among the built-in shapes.
    pub fn set_mpi(&mut self, size: u32, cost: CostModel) {
        self.mpi_size = size.max(1);
        self.cost = cost;
        self.platform = None;
    }

    /// Give every rank a simulated GPU. Resets any [`WootinJ::jit_on`]
    /// platform choice (see [`Self::set_mpi`]).
    pub fn set_gpu(&mut self, config: GpuConfig) {
        self.gpu = Some(config);
        self.platform = None;
    }

    /// The platform [`Self::invoke`] will run on: the explicit
    /// [`WootinJ::jit_on`] choice, or the built-in selected from the
    /// legacy `set_mpi`/`set_gpu` knobs.
    pub fn platform(&self) -> Arc<dyn Platform> {
        match &self.platform {
            Some(p) => Arc::clone(p),
            None => select_platform(self.mpi_size, self.cost, self.gpu),
        }
    }

    /// Enable deterministic fault injection for [`Self::invoke`] runs
    /// (see [`FaultConfig`]; the same seed reproduces the same faults).
    pub fn set_faults(&mut self, fault: FaultConfig) {
        self.fault = Some(fault);
    }

    /// Bound the scheduler rounds a rank may stay blocked before the run
    /// fails with a typed timeout instead of hanging.
    pub fn set_timeout(&mut self, rounds: u64) {
        self.timeout_rounds = Some(rounds);
    }

    /// Enable (or replace) the checkpoint/restart policy for this code's
    /// runs — the post-`jit` twin of [`JitOptions::with_checkpointing`].
    pub fn set_checkpointing(&mut self, policy: CheckpointPolicy) {
        self.checkpoint = Some(policy);
    }

    /// Bound how many rollback-and-resume cycles one `invoke` may spend
    /// before the underlying typed error propagates
    /// ([`DEFAULT_MAX_RESTARTS`] unless set).
    pub fn set_max_restarts(&mut self, max_restarts: u32) {
        self.max_restarts = max_restarts;
    }

    /// Execute this code's world slices on real OS threads (or back on
    /// the cooperative loop) — the post-`jit` twin of
    /// [`JitOptions::with_executor`].
    pub fn set_executor(&mut self, executor: ExecutorCfg) {
        self.executor = executor;
    }

    /// The generated C/CUDA source (Listing 5 analogue).
    pub fn c_source(&self) -> String {
        self.translated.c_source()
    }

    pub fn mode(&self) -> Mode {
        self.translated.mode
    }

    /// Translation statistics, with the env's cache counters and the
    /// query-database counters (as of this `jit` call) merged in.
    pub fn stats(&self) -> TransStats {
        let mut stats = self.translated.stats.clone();
        stats.cache_hits = self.cache_stats.hits;
        stats.cache_misses = self.cache_stats.misses;
        stats.queries_executed = self.query_delta.executed();
        stats.queries_reused = self.query_delta.reused();
        stats.early_cutoffs = self.query_delta.early_cutoffs;
        stats
    }

    /// The raw query-database counter deltas for this `jit` call.
    pub fn query_stats(&self) -> QueryStats {
        self.query_delta
    }

    /// Execute the translated program with the recorded arguments —
    /// `code.invoke()`.
    pub fn invoke(&self, env: &WootinJ<'_>) -> WjResult<RunReport> {
        // One uniform run path for every backend: the platform owns the
        // world shape (size, device, link costs, scheduling); the request
        // carries everything else (faults, timeout, checkpoint/restart).
        let platform = self.platform();
        let req = RunRequest {
            program: &self.translated.program,
            entry: self.translated.entry,
            host: Some(&env.host),
            fault: self.fault,
            timeout_rounds: self.timeout_rounds,
            checkpoint: self.checkpoint.clone(),
            max_restarts: self.max_restarts,
            // `WJ_EXECUTOR=threads` flips any run onto replay-mode OS
            // threads (bit-identical), so the whole test suite can be
            // exercised through the thread path with one env var.
            executor: self.executor.from_env_or(),
        };
        let start = Instant::now();
        let mut make_args = |_: u32, machine: &mut exec::Machine| {
            bind_entry_args(
                &env.jvm,
                &self.recv,
                &self.args,
                &self.translated.bindings,
                machine,
            )
            .map_err(|e| e.message)
        };
        let mut run = platform.run(req, &mut make_args).map_err(WjError::Sim)?;
        run.shared_jit = self.shared_jit;
        let wall = start.elapsed();
        // Fold the jit-side degradation into the run's resilience view,
        // so one struct answers "what did the stack absorb this run".
        let mut resilience = run.resilience;
        if self.degrade.is_some() {
            resilience.degraded_jits += 1;
        }
        Ok(RunReport {
            result: run.ranks.first().and_then(|r| r.result),
            results: run.ranks.iter().map(|r| r.result).collect(),
            vtime_cycles: run.vtime,
            total_cycles: run.total_cycles,
            wall,
            wall_ms: wall.as_secs_f64() * 1e3,
            compile_wall: self.compile_time,
            outputs: run.ranks.iter().map(|r| r.output.clone()).collect(),
            resilience,
            restart: run.restart,
            per_rank: run
                .ranks
                .iter()
                .map(|r| PerRank {
                    vclock: r.vclock,
                    compute_cycles: r.compute_cycles,
                    comm_cycles: r.comm_cycles,
                    gpu_time: r.gpu_time,
                })
                .collect(),
            trans: self.stats(),
            worlds: run,
        })
    }
}

/// Per-rank timing breakdown.
#[derive(Debug, Clone, Copy)]
pub struct PerRank {
    pub vclock: u64,
    pub compute_cycles: u64,
    pub comm_cycles: u64,
    pub gpu_time: u64,
}

/// The outcome of `invoke()`: results plus both timing domains.
pub struct RunReport {
    /// Rank 0's return value.
    pub result: Option<Val>,
    pub results: Vec<Option<Val>>,
    /// Deterministic completion time (max rank virtual clock, cycles).
    pub vtime_cycles: u64,
    /// Total executed cycles across ranks.
    pub total_cycles: u64,
    /// Host wall-clock time of the simulation run.
    pub wall: Duration,
    /// [`RunReport::wall`] in milliseconds — the measured-time column
    /// the backend matrix and `repro wallclock` report next to the
    /// virtual-cost figures.
    pub wall_ms: f64,
    /// Wall-clock translation time (Table 3).
    pub compile_wall: Duration,
    /// Per-rank `WJ.print*` output.
    pub outputs: Vec<Vec<String>>,
    /// Aggregated fault/retry/degrade counters for this run (all-zero
    /// without fault injection and with a first-try translation).
    pub resilience: ResilienceStats,
    /// Checkpoint/restart accounting (all-zero unless the code was jitted
    /// with [`JitOptions::with_checkpointing`]).
    pub restart: RestartStats,
    pub per_rank: Vec<PerRank>,
    /// Translation statistics for the code that ran, including the
    /// artifact-cache counters (`cache_hits`/`cache_misses`) and the
    /// incremental-query counters (`queries_executed`/`queries_reused`/
    /// `early_cutoffs`).
    pub trans: TransStats,
    /// The raw world run (rank memory spaces etc.).
    pub worlds: mpi_sim::WorldRun,
}

/// Outcome of an interpreted (*Java* series) run.
#[derive(Debug)]
pub struct JavaRunReport {
    pub result: Value,
    /// Deterministic interpreter steps (the Java-series work metric).
    pub steps: u64,
    pub wall: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Listing 3/4: one-point stencil, GPU + MPI.
    const LISTING34: &str = r#"
        @WootinJ interface Generator { float[] make(int length, int seed); }
        @WootinJ interface Solver { float solve(float self, int index); }

        @WootinJ final class PhysDataGen implements Generator {
          PhysDataGen() { }
          float[] make(int length, int seed) {
            float[] a = new float[length];
            for (int i = 0; i < length; i++) { a[i] = i + seed * 100; }
            return a;
          }
        }

        @WootinJ final class PhysSolver implements Solver {
          PhysSolver() { }
          float solve(float self, int index) { return self * 0.5f + index; }
        }

        @WootinJ final class StencilOnGpuAndMPI {
          Solver solver;
          Generator generator;
          StencilOnGpuAndMPI(Generator g, Solver s) { generator = g; solver = s; }

          float run(int length, int updateCnt) {
            int rank = MPI.rank();
            float[] array = generator.make(length, rank);
            float[] arrayOnGPU = CUDA.copyToGPU(array);
            CudaConfig conf = new CudaConfig(new dim3((length + 63) / 64, 1, 1),
                                             new dim3(64, 1, 1));
            for (int i = 0; i < updateCnt; i++) {
              runGPU(conf, arrayOnGPU);
            }
            CUDA.copyFromGPU(array, arrayOnGPU);
            float sum = 0f;
            for (int i = 0; i < length; i++) { sum += array[i]; }
            return MPI.allreduceSumF(sum);
          }

          @Global void runGPU(CudaConfig conf, float[] array) {
            int x = CUDA.blockIdxX() * CUDA.blockDimX() + CUDA.threadIdxX();
            if (x < array.length) {
              array[x] = solver.solve(array[x], x);
            }
          }
        }
    "#;

    fn reference_single_rank(length: i32, update_cnt: i32) -> f32 {
        // Rank 0: a[i] = i; each step a[i] = a[i]*0.5 + i.
        let mut a: Vec<f32> = (0..length).map(|i| i as f32).collect();
        for _ in 0..update_cnt {
            for (i, v) in a.iter_mut().enumerate() {
                *v = *v * 0.5 + i as f32;
            }
        }
        a.iter().sum()
    }

    #[test]
    fn listing3_end_to_end_gpu_single_rank() {
        let table = build_table(&[("listing34.jl", LISTING34)]).unwrap();
        let mut env = WootinJ::new(&table).unwrap();
        let gen = env.new_instance("PhysDataGen", &[]).unwrap();
        let solver = env.new_instance("PhysSolver", &[]).unwrap();
        let stencil = env
            .new_instance("StencilOnGpuAndMPI", &[gen, solver])
            .unwrap();
        let mut code = env
            .jit(
                &stencil,
                "run",
                &[Value::Int(200), Value::Int(4)],
                JitOptions::wootinj(),
            )
            .unwrap();
        code.set_gpu(GpuConfig::default());
        let report = code.invoke(&env).unwrap();
        let expected = reference_single_rank(200, 4);
        match report.result {
            Some(Val::F32(v)) => {
                assert!(
                    (v - expected).abs() < expected.abs() * 1e-5,
                    "{v} vs {expected}"
                )
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(code.translated.uses_gpu);
        assert!(code.translated.uses_mpi);
        assert!(code.stats().kernels >= 1);
    }

    #[test]
    fn listing3_multi_rank_allreduce() {
        let table = build_table(&[("listing34.jl", LISTING34)]).unwrap();
        let mut env = WootinJ::new(&table).unwrap();
        let gen = env.new_instance("PhysDataGen", &[]).unwrap();
        let solver = env.new_instance("PhysSolver", &[]).unwrap();
        let stencil = env
            .new_instance("StencilOnGpuAndMPI", &[gen, solver])
            .unwrap();
        let mut code = env
            .jit(
                &stencil,
                "run",
                &[Value::Int(64), Value::Int(2)],
                JitOptions::wootinj(),
            )
            .unwrap();
        code.set_mpi(3, CostModel::default());
        code.set_gpu(GpuConfig::default());
        let report = code.invoke(&env).unwrap();
        // Each rank r generates a[i] = i + 100r and runs the same updates;
        // the allreduce makes every rank return the global sum.
        let per_rank: Vec<f32> = (0..3)
            .map(|r| {
                let mut a: Vec<f32> = (0..64).map(|i| (i + r * 100) as f32).collect();
                for _ in 0..2 {
                    for (i, v) in a.iter_mut().enumerate() {
                        *v = *v * 0.5 + i as f32;
                    }
                }
                a.iter().sum::<f32>()
            })
            .collect();
        let expected: f32 = per_rank.iter().sum();
        for r in &report.results {
            match r {
                Some(Val::F32(v)) => {
                    assert!(
                        (v - expected).abs() < expected.abs() * 1e-5,
                        "{v} vs {expected}"
                    )
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(report.results.len(), 3);
    }

    #[test]
    fn interpreted_run_matches_translated_cpu_only() {
        const CPU_APP: &str = r#"
            @WootinJ interface Solver { float solve(float self, int index); }
            @WootinJ final class S implements Solver {
              S() { }
              float solve(float self, int index) { return self * 0.5f + index; }
            }
            @WootinJ final class App {
              Solver solver;
              App(Solver s) { solver = s; }
              float run(float[] data, int steps) {
                for (int t = 0; t < steps; t++) {
                  for (int i = 0; i < data.length; i++) {
                    data[i] = solver.solve(data[i], i);
                  }
                }
                float sum = 0f;
                for (int i = 0; i < data.length; i++) { sum += data[i]; }
                return sum;
              }
            }
        "#;
        let table = build_table(&[("app.jl", CPU_APP)]).unwrap();
        let mut env = WootinJ::new(&table).unwrap();
        let s = env.new_instance("S", &[]).unwrap();
        let app = env.new_instance("App", &[s]).unwrap();

        // Translated run (fresh data array).
        let data = env.new_f32_array(&[1.0, 2.0, 3.0]);
        let code = env
            .jit(&app, "run", &[data, Value::Int(5)], JitOptions::wootinj())
            .unwrap();
        let report = code.invoke(&env).unwrap();

        // Interpreted run — the translated run used a deep copy, so the
        // host array is untouched and reusable.
        let data2 = env.new_f32_array(&[1.0, 2.0, 3.0]);
        let jreport = env
            .run_interpreted(&app, "run", &[data2, Value::Int(5)])
            .unwrap();
        match (report.result, jreport.result) {
            (Some(Val::F32(a)), Value::Float(b)) => assert_eq!(a, b),
            other => panic!("unexpected {other:?}"),
        }
        assert!(jreport.steps > 0);
    }

    #[test]
    fn deep_copy_leaves_host_arrays_untouched() {
        const APP: &str = r#"
            @WootinJ final class W {
              W() { }
              void run(float[] data) {
                for (int i = 0; i < data.length; i++) { data[i] = 99f; }
              }
            }
        "#;
        let table = build_table(&[("w.jl", APP)]).unwrap();
        let mut env = WootinJ::new(&table).unwrap();
        let w = env.new_instance("W", &[]).unwrap();
        let data = env.new_f32_array(&[1.0, 2.0]);
        let code = env
            .jit(
                &w,
                "run",
                std::slice::from_ref(&data),
                JitOptions::wootinj(),
            )
            .unwrap();
        code.invoke(&env).unwrap();
        // The paper: modified data are NOT copied back.
        assert_eq!(env.f32_array(&data).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn all_four_series_agree_on_results() {
        const APP: &str = r#"
            @WootinJ interface Op { double f(double x); }
            @WootinJ final class Poly implements Op {
              double a; double b;
              Poly(double a0, double b0) { a = a0; b = b0; }
              double f(double x) { return a * x * x + b * x + 1.0; }
            }
            @WootinJ final class Runner {
              Op op;
              Runner(Op o) { op = o; }
              double run(int n) {
                double s = 0.0;
                for (int i = 0; i < n; i++) { s += op.f(i * 0.001); }
                return s;
              }
            }
        "#;
        let table = build_table(&[("app.jl", APP)]).unwrap();
        let mut env = WootinJ::new(&table).unwrap();
        let poly = env
            .new_instance("Poly", &[Value::Double(1.5), Value::Double(-0.5)])
            .unwrap();
        let runner = env.new_instance("Runner", &[poly]).unwrap();
        let args = [Value::Int(500)];
        let mut results = Vec::new();
        let mut vtimes = Vec::new();
        for opts in [
            JitOptions::wootinj(),
            JitOptions::template(),
            JitOptions::template_no_virt(),
            JitOptions::cpp(),
        ] {
            let code = env.jit(&runner, "run", &args, opts).unwrap();
            let report = code.invoke(&env).unwrap();
            match report.result {
                Some(Val::F64(v)) => results.push(v),
                other => panic!("unexpected {other:?}"),
            }
            vtimes.push(report.vtime_cycles);
        }
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        // WootinJ fastest, C++ slowest (the Figure 17 ordering).
        assert!(
            vtimes[0] < vtimes[1],
            "wootinj {} !< template {}",
            vtimes[0],
            vtimes[1]
        );
        assert!(
            vtimes[1] < vtimes[3],
            "template {} !< cpp {}",
            vtimes[1],
            vtimes[3]
        );
    }

    #[test]
    fn compile_time_is_recorded() {
        let table = build_table(&[("listing34.jl", LISTING34)]).unwrap();
        let mut env = WootinJ::new(&table).unwrap();
        let gen = env.new_instance("PhysDataGen", &[]).unwrap();
        let solver = env.new_instance("PhysSolver", &[]).unwrap();
        let stencil = env
            .new_instance("StencilOnGpuAndMPI", &[gen, solver])
            .unwrap();
        let code = env
            .jit(
                &stencil,
                "run",
                &[Value::Int(16), Value::Int(1)],
                JitOptions::wootinj(),
            )
            .unwrap();
        assert!(code.compile_time.as_nanos() > 0);
        let src = code.c_source();
        assert!(src.contains("__global__"), "{src}");
        assert!(src.contains("MPI_Init"), "{src}");
    }
}

#[cfg(test)]
mod preset_tests {
    use super::*;

    #[test]
    fn jit_option_presets_map_to_the_paper_series() {
        assert_eq!(JitOptions::wootinj().config.mode, Mode::Full);
        assert_eq!(JitOptions::template().config.mode, Mode::Devirt);
        assert!(
            JitOptions::template().config.opt.sroa,
            "Template models C++ value semantics"
        );
        assert_eq!(JitOptions::template_no_virt().config.mode, Mode::Full);
        assert!(JitOptions::template_no_virt().config.opt.inline_limit > 0);
        assert_eq!(JitOptions::cpp().config.mode, Mode::Virtual);
        assert!(
            !JitOptions::cpp().config.check_rules,
            "the C++ baseline is not rule-bound"
        );
    }

    #[test]
    fn run_report_exposes_per_rank_breakdown() {
        let src = "@WootinJ final class N { N() { } \
                   float run(float[] a) { float s = 0f; \
                   for (int i = 0; i < a.length; i++) { s += a[i]; } \
                   return MPI.allreduceSumF(s); } }";
        let table = build_table(&[("n.jl", src)]).unwrap();
        let mut env = WootinJ::new(&table).unwrap();
        let n = env.new_instance("N", &[]).unwrap();
        let data = env.new_f32_array(&[1.0; 32]);
        let mut code = env.jit(&n, "run", &[data], JitOptions::wootinj()).unwrap();
        code.set_mpi(3, MpiCostModel::default());
        let report = code.invoke(&env).unwrap();
        assert_eq!(report.per_rank.len(), 3);
        assert_eq!(report.outputs.len(), 3);
        for pr in &report.per_rank {
            assert!(pr.compute_cycles > 0);
            assert!(pr.vclock >= pr.compute_cycles);
        }
        // Every rank got its own deep copy: 3 x 32 elements summed.
        assert_eq!(report.result, Some(Val::F32(96.0)));
        assert!(report.vtime_cycles >= report.per_rank.iter().map(|r| r.vclock).max().unwrap());
    }

    #[test]
    fn print_output_is_captured_per_rank() {
        let src = "@WootinJ final class P { P() { } \
                   void run() { WJ.printInt(MPI.rank()); } }";
        let table = build_table(&[("p.jl", src)]).unwrap();
        let mut env = WootinJ::new(&table).unwrap();
        let p = env.new_instance("P", &[]).unwrap();
        let mut code = env.jit(&p, "run", &[], JitOptions::wootinj()).unwrap();
        code.set_mpi(2, MpiCostModel::default());
        let report = code.invoke(&env).unwrap();
        assert_eq!(report.outputs[0], vec!["0".to_string()]);
        assert_eq!(report.outputs[1], vec!["1".to_string()]);
    }
}

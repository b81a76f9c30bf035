//! Pluggable execution-platform layer: one trait in front of every
//! backend the WootinJ reproduction can retarget to.
//!
//! The paper's pitch is *multiplatform*: one `@WootinJ` source,
//! exhaustively specialized, retargeted to C, CUDA, or MPI. The
//! reproduction grew three targets — the NIR interpreter (`exec`), the
//! device simulator (`gpu-sim`), and the rank simulator (`mpi-sim`) —
//! but they were hard-wired through `wootinj::jit`/`jit4mpi` and
//! per-target knobs, so adding a fourth meant editing every layer.
//! This crate is the seam that breaks that coupling:
//!
//! - [`Platform`] owns a target's identity ([`Platform::id`]), its
//!   capability surface ([`Caps`]), its artifact-cache scoping salt
//!   ([`Platform::fingerprint_salt`], mixed into `CacheKey`
//!   fingerprints so per-platform artifacts and `.wckpt` world
//!   checkpoints never clobber each other), and a uniform
//!   [`Platform::run`] that drives the program under the platform's
//!   world shape — including the shared fault-injection and
//!   checkpoint/restart machinery, which every backend reuses rather
//!   than reimplementing.
//! - [`registry`] enumerates the built-in platforms so conformance
//!   tests and the `repro backend-matrix` sweep can instantiate the
//!   same property set per backend.
//!
//! Five built-ins prove the seam:
//!
//! | id         | backend                | world shape                |
//! |------------|------------------------|----------------------------|
//! | `interp`   | [`InterpPlatform`]     | 1 rank, no device          |
//! | `gpu-sim`  | [`GpuSimPlatform`]     | 1 rank + simulated GPU     |
//! | `mpi-sim`  | [`MpiSimPlatform`]     | N ranks (optional GPU)     |
//! | `host-mt`  | [`HostMtPlatform`]     | N workers, seeded schedule |
//! | `dist`     | [`DistPlatform`]       | N socket-connected workers |
//!
//! `host-mt` is a deterministic multi-threaded host backend modeled as
//! a fixed worker pool over shared-memory-grade link costs, with a
//! *seeded* per-round worker service order ([`Schedule::Seeded`])
//! standing in for an OS scheduler's arbitrary interleaving. It needs
//! only this trait impl — zero translator or facade edits — and still
//! gets fault plans, checkpoints, and restart for free through
//! [`RunRequest`].
//!
//! `dist` is the newcomer and the first *real-concurrency* backend:
//! each rank runs the same `LocalPool` engine behind a typed,
//! length-prefixed loopback-TCP wire protocol (threads by default, one
//! OS process per rank via [`dist::Launch::Processes`]), coordinated by
//! the shared transport-agnostic rank runtime. It is held to
//! bit-identity with `mpi-sim` by the conformance suite, and it cannot
//! offer host FFI — foreign function pointers do not cross a process
//! boundary.
//!
//! All backends here are simulators by design (see DESIGN.md): worlds
//! execute NIR cooperatively under virtual time, which is what makes
//! the cross-backend bit-identity assertions of `repro backend-matrix`
//! possible at all.

#![forbid(unsafe_code)]

use exec::{ExecutorCfg, FaultConfig, HostRegistry, Machine, Val};
use gpu_sim::GpuConfig;
use mpi_sim::{CheckpointPolicy, CostModel, Schedule, SimError, World, WorldRun};
use nir::{FuncId, Program};
use std::sync::Arc;

/// What a platform can do. Capability checks happen *before* a run is
/// attempted (see [`Platform::check`]), so an unsupported workload
/// fails typed at JIT time instead of deep inside a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caps {
    /// Can launch `global` kernels (has a device or device simulator).
    pub global_kernels: bool,
    /// Workers share one coherent memory (no per-byte wire cost model).
    pub shared_memory: bool,
    /// Supports the collective surface (barrier/allreduce/bcast/...).
    /// Single-worker platforms still qualify: collectives degenerate to
    /// identities, which is exactly MPI's size-1 semantics.
    pub collectives: bool,
    /// Can call registered `@Native` host functions.
    pub host_ffi: bool,
    /// Degree of parallelism the platform presents (ranks, workers, or
    /// device lanes) — informational, for reports and the README table.
    pub parallelism: u32,
}

/// What a translated entry needs from its platform, derived by the
/// facade from the translation (`uses_gpu`, `uses_mpi`, host bindings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Needs {
    /// The program launches `global` kernels.
    pub kernels: bool,
    /// The program calls MPI collectives or point-to-point ops.
    pub collectives: bool,
    /// The program calls `@Native` host functions.
    pub host_ffi: bool,
}

/// Typed capability mismatch: the platform cannot run this workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    Unsupported {
        platform: &'static str,
        feature: &'static str,
    },
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformError::Unsupported { platform, feature } => {
                write!(f, "platform `{platform}` does not support {feature}")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

/// Everything a platform needs to run one translated entry. The
/// fault/checkpoint surface lives here — on the *request*, not the
/// platform — so every backend inherits injection and restart
/// uniformly instead of reimplementing them.
pub struct RunRequest<'p> {
    pub program: &'p Program,
    pub entry: FuncId,
    /// Host `@Native` registry; `None` runs with FFI unavailable.
    pub host: Option<&'p HostRegistry>,
    /// Deterministic fault injection, if any.
    pub fault: Option<FaultConfig>,
    /// Blocked-collective fuel bound (see `mpi_sim::World`).
    pub timeout_rounds: Option<u64>,
    /// Checkpoint cadence; `Some` routes through restart-on-crash.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Restart budget when `checkpoint` is set.
    pub max_restarts: u32,
    /// Who executes ready slices each round (see `exec::pool`):
    /// the in-process cooperative loop ([`ExecutorCfg::Sim`], the
    /// default) or real OS-thread workers. Platforms with their own
    /// executor preference (see [`HostMtPlatform::with_executor`])
    /// apply it only when the request keeps the default.
    pub executor: ExecutorCfg,
}

/// What a run produces — the full world outcome (per-rank results,
/// virtual time, resilience and restart accounting). One type across
/// all platforms is what lets the backend matrix diff outcomes.
pub type RunOutcome = WorldRun;

/// Builds one rank's/worker's entry arguments into that worker's own
/// memory space (deep copies — workers never alias host memory).
pub type ArgBuilder<'a> = &'a mut dyn FnMut(u32, &mut Machine) -> Result<Vec<Val>, String>;

/// One execution target. Implementations own the world shape (size,
/// device, link costs, scheduling) and nothing else: programs, faults,
/// checkpoints, and argument binding all arrive via [`RunRequest`].
pub trait Platform {
    /// Stable target id (`interp`, `gpu-sim`, `mpi-sim`, `host-mt`,
    /// `dist`).
    fn id(&self) -> &'static str;

    /// Capability surface used by [`Platform::check`] and the docs.
    fn caps(&self) -> Caps;

    /// Salt mixed into `CacheKey` fingerprints so per-platform sealed
    /// artifacts and `.wckpt` world checkpoints are scoped per target
    /// (a 4-rank mpi-sim checkpoint must never restore into an 8-worker
    /// host-mt world). Zero means "unscoped" — the legacy/default
    /// namespace — and is reserved for [`InterpPlatform`] so caches
    /// written before this layer existed stay valid.
    fn fingerprint_salt(&self) -> u64 {
        fnv1a64(self.id().as_bytes())
    }

    /// Reject workloads this platform cannot run, *typed and early*.
    fn check(&self, needs: Needs) -> Result<(), PlatformError> {
        let caps = self.caps();
        if needs.kernels && !caps.global_kernels {
            return Err(PlatformError::Unsupported {
                platform: self.id(),
                feature: "global kernels",
            });
        }
        if needs.collectives && !caps.collectives {
            return Err(PlatformError::Unsupported {
                platform: self.id(),
                feature: "collectives",
            });
        }
        if needs.host_ffi && !caps.host_ffi {
            return Err(PlatformError::Unsupported {
                platform: self.id(),
                feature: "host FFI",
            });
        }
        Ok(())
    }

    /// Run `entry` under this platform's world shape. Checkpointed
    /// requests roll back and restart on crash/timeout exactly like
    /// `mpi_sim::World::run_with_restart` (they *are* that machinery —
    /// reused through the trait, not per backend).
    fn run(&self, req: RunRequest<'_>, make_args: ArgBuilder<'_>) -> Result<RunOutcome, SimError>;
}

// The platform-salt hash is the workspace-wide stable FNV-1a from
// `nir::hash` — one implementation, baked into on-disk fingerprints.
use nir::hash::fnv1a64;

/// Apply the request's shared surface (host/fault/timeout) to a world,
/// in the facade's historical builder order so behavior is
/// bit-identical to the pre-platform code path — then stamp the
/// platform's fingerprint salt so every `.wckpt` chain this world
/// persists is scoped to the platform that wrote it.
fn apply_request<'p>(mut world: World<'p>, req: &RunRequest<'p>, salt: u64) -> World<'p> {
    if let Some(h) = req.host {
        world = world.with_host(h);
    }
    if let Some(f) = req.fault {
        world = world.with_faults(f);
    }
    if let Some(t) = req.timeout_rounds {
        world = world.with_timeout(t);
    }
    world.with_executor(req.executor).with_ckpt_salt(salt)
}

/// Drive the world, routing through checkpoint/restart when requested.
fn drive(
    world: World<'_>,
    req: &RunRequest<'_>,
    make_args: ArgBuilder<'_>,
) -> Result<RunOutcome, SimError> {
    match &req.checkpoint {
        Some(policy) => world.run_with_restart(req.entry, make_args, policy, req.max_restarts),
        None => world.run(req.entry, make_args),
    }
}

/// The sequential host interpreter: one rank, no device. Collectives
/// degenerate to size-1 identities (MPI's own semantics), which is what
/// lets a collective-bearing program produce the same answer here as on
/// a fanned-out world when the workload partitions by rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct InterpPlatform {
    pub cost: CostModel,
}

impl Platform for InterpPlatform {
    fn id(&self) -> &'static str {
        "interp"
    }

    fn caps(&self) -> Caps {
        Caps {
            global_kernels: false,
            shared_memory: true,
            collectives: true,
            host_ffi: true,
            parallelism: 1,
        }
    }

    /// The legacy/default namespace: artifacts and checkpoints written
    /// before the platform layer existed belong to `interp`.
    fn fingerprint_salt(&self) -> u64 {
        0
    }

    fn run(&self, req: RunRequest<'_>, make_args: ArgBuilder<'_>) -> Result<RunOutcome, SimError> {
        let world = apply_request(
            World::new(req.program, 1).with_cost(self.cost),
            &req,
            self.fingerprint_salt(),
        );
        drive(world, &req, make_args)
    }
}

/// One host rank driving the simulated device: `global` kernels launch
/// on a modeled GPU (SMs × lanes, copy costs), everything else runs on
/// the host rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuSimPlatform {
    pub gpu: GpuConfig,
    pub cost: CostModel,
}

impl Platform for GpuSimPlatform {
    fn id(&self) -> &'static str {
        "gpu-sim"
    }

    fn caps(&self) -> Caps {
        Caps {
            global_kernels: true,
            shared_memory: true,
            collectives: true,
            host_ffi: true,
            parallelism: self.gpu.n_sms * self.gpu.lanes_per_sm,
        }
    }

    fn run(&self, req: RunRequest<'_>, make_args: ArgBuilder<'_>) -> Result<RunOutcome, SimError> {
        let world = apply_request(
            World::new(req.program, 1)
                .with_cost(self.cost)
                .with_gpu(self.gpu),
            &req,
            self.fingerprint_salt(),
        );
        drive(world, &req, make_args)
    }
}

/// N simulated ranks over a wire-cost fabric, optionally each with a
/// device (the paper's CUDA+MPI configuration).
#[derive(Debug, Clone, Copy)]
pub struct MpiSimPlatform {
    pub ranks: u32,
    pub cost: CostModel,
    pub gpu: Option<GpuConfig>,
}

impl MpiSimPlatform {
    pub fn new(ranks: u32) -> Self {
        MpiSimPlatform {
            ranks,
            cost: CostModel::default(),
            gpu: None,
        }
    }

    pub fn with_gpu(mut self, gpu: GpuConfig) -> Self {
        self.gpu = Some(gpu);
        self
    }
}

impl Platform for MpiSimPlatform {
    fn id(&self) -> &'static str {
        "mpi-sim"
    }

    fn caps(&self) -> Caps {
        Caps {
            global_kernels: self.gpu.is_some(),
            shared_memory: false,
            collectives: true,
            host_ffi: true,
            parallelism: self.ranks,
        }
    }

    fn run(&self, req: RunRequest<'_>, make_args: ArgBuilder<'_>) -> Result<RunOutcome, SimError> {
        let mut world = World::new(req.program, self.ranks).with_cost(self.cost);
        if let Some(g) = self.gpu {
            world = world.with_gpu(g);
        }
        let world = apply_request(world, &req, self.fingerprint_salt());
        drive(world, &req, make_args)
    }
}

/// The fourth backend: a deterministic multi-threaded host pool.
///
/// A fixed number of workers share one node's memory, so link costs are
/// shared-memory-grade (two orders cheaper than the fabric defaults),
/// and the per-round worker service order is a seeded permutation
/// ([`Schedule::Seeded`]) — the simulator's stand-in for an OS
/// scheduler interleaving threads arbitrarily. Determinism is the
/// point: the same seed replays the same interleaving, and because
/// world results are schedule-independent by construction, *any* seed
/// must produce bit-identical answers (the conformance suite asserts
/// exactly that). Fault plans and checkpoint/restart arrive through
/// [`RunRequest`] like every other backend — this platform needed zero
/// translator or facade edits.
#[derive(Debug, Clone, Copy)]
pub struct HostMtPlatform {
    /// Pool width (worker count == world size).
    pub workers: u32,
    /// Scheduling seed for the per-round worker permutation.
    pub seed: u64,
    pub cost: CostModel,
    /// Who executes slices: the cooperative loop by default, real OS
    /// threads via [`HostMtPlatform::with_executor`]. Threads are
    /// bit-identical to the loop, so the platform's fingerprint salt
    /// does not depend on this (warm caches survive the switch).
    pub executor: ExecutorCfg,
}

impl HostMtPlatform {
    pub fn new(workers: u32) -> Self {
        HostMtPlatform {
            workers,
            seed: 0x4057_A11E_7001_u64,
            cost: CostModel {
                // Shared-memory exchange: a cache-line handoff plus
                // memcpy bandwidth, not a NIC traversal.
                alpha: 40,
                beta: 0.05,
                collective_alpha: 200,
            },
            executor: ExecutorCfg::Sim,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Back this platform with a specific executor (real OS threads). A
    /// non-default executor on the [`RunRequest`] still wins over this
    /// platform-level choice.
    pub fn with_executor(mut self, executor: ExecutorCfg) -> Self {
        self.executor = executor;
        self
    }
}

impl Platform for HostMtPlatform {
    fn id(&self) -> &'static str {
        "host-mt"
    }

    fn caps(&self) -> Caps {
        Caps {
            global_kernels: false,
            shared_memory: true,
            collectives: true,
            host_ffi: true,
            parallelism: self.workers,
        }
    }

    /// One salt whatever the executor: OS-thread batches are
    /// bit-identical to the cooperative loop, so warm artifacts and
    /// `.wckpt` chains stay valid across the switch.
    fn fingerprint_salt(&self) -> u64 {
        fnv1a64(b"host-mt")
    }

    fn run(&self, req: RunRequest<'_>, make_args: ArgBuilder<'_>) -> Result<RunOutcome, SimError> {
        // The request's executor wins when set; otherwise the
        // platform-level choice applies.
        let effective = match req.executor {
            ExecutorCfg::Sim => self.executor,
            e => e,
        };
        let world = apply_request(
            World::new(req.program, self.workers)
                .with_cost(self.cost)
                .with_schedule(Schedule::Seeded(self.seed)),
            &req,
            self.fingerprint_salt(),
        )
        .with_executor(effective);
        drive(world, &req, make_args)
    }
}

/// The fifth backend: socket-connected rank workers (`dist`).
///
/// Every rank lives behind the typed, length-prefixed loopback-TCP
/// wire protocol of the `dist` crate and executes through the same
/// `LocalPool` engine as `mpi-sim` — the conformance suite holds the
/// two backends to bit-identical outcomes on every workload. Workers
/// are threads by default ([`dist::Launch::Threads`]: full wire
/// fidelity, no executable needed); real per-rank OS processes arrive
/// via [`DistPlatform::with_launch`]. Host FFI is structurally
/// unavailable — foreign function pointers cannot cross a process
/// boundary — so `caps().host_ffi` is `false` and a [`RunRequest`]
/// carrying a host registry fails typed before any worker spawns.
#[derive(Debug, Clone)]
pub struct DistPlatform {
    /// World size (one socket-connected worker per rank).
    pub ranks: u32,
    pub cost: CostModel,
    launch: dist::Launch,
}

impl DistPlatform {
    pub fn new(ranks: u32) -> Self {
        DistPlatform {
            ranks,
            cost: CostModel::default(),
            launch: dist::Launch::Threads,
        }
    }

    /// Choose how rank workers launch (default: in-process threads
    /// speaking the full wire protocol over real loopback sockets).
    pub fn with_launch(mut self, launch: dist::Launch) -> Self {
        self.launch = launch;
        self
    }
}

impl Platform for DistPlatform {
    fn id(&self) -> &'static str {
        "dist"
    }

    fn caps(&self) -> Caps {
        Caps {
            global_kernels: false,
            shared_memory: false,
            collectives: true,
            host_ffi: false,
            parallelism: self.ranks,
        }
    }

    fn run(&self, req: RunRequest<'_>, make_args: ArgBuilder<'_>) -> Result<RunOutcome, SimError> {
        // The facade hands every run its host registry; an *empty* one
        // is harmless (nothing to call). Bound natives are not: their
        // function pointers cannot cross the worker boundary, so fail
        // typed here instead of deep inside a rank.
        if req.host.is_some_and(|h| h.keys().next().is_some()) {
            return Err(SimError::World {
                message: "platform `dist` cannot run with host FFI bindings: \
                          foreign function pointers do not cross a process boundary"
                    .into(),
            });
        }
        let mut world = dist::DistWorld::new(req.program, self.ranks)
            .with_cost(self.cost)
            .with_launch(self.launch.clone())
            .with_ckpt_salt(self.fingerprint_salt());
        if let Some(f) = req.fault {
            world = world.with_faults(f);
        }
        if let Some(t) = req.timeout_rounds {
            world = world.with_timeout(t);
        }
        match &req.checkpoint {
            Some(policy) => world.run_with_restart(req.entry, make_args, policy, req.max_restarts),
            None => world.run(req.entry, make_args),
        }
    }
}

/// Every built-in platform, in presentation order. The conformance
/// suite and `repro backend-matrix` iterate this list — registering a
/// platform here is all it takes to put it under the shared property
/// set.
pub fn registry() -> Vec<Arc<dyn Platform>> {
    vec![
        Arc::new(InterpPlatform::default()),
        Arc::new(GpuSimPlatform::default()),
        Arc::new(MpiSimPlatform::new(4).with_gpu(GpuConfig::default())),
        Arc::new(HostMtPlatform::new(4)),
        Arc::new(DistPlatform::new(4)),
    ]
}

/// Look a built-in platform up by its stable id.
pub fn by_id(id: &str) -> Option<Arc<dyn Platform>> {
    registry().into_iter().find(|p| p.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec::ExecMode;

    #[test]
    fn registry_ids_are_unique_and_complete() {
        let ids: Vec<&str> = registry().iter().map(|p| p.id()).collect();
        assert_eq!(ids, ["interp", "gpu-sim", "mpi-sim", "host-mt", "dist"]);
        for p in registry() {
            assert_eq!(by_id(p.id()).unwrap().id(), p.id());
        }
        assert!(by_id("vax").is_none());
    }

    #[test]
    fn salts_scope_platforms_and_interp_is_the_legacy_namespace() {
        let mut salts: Vec<u64> = registry().iter().map(|p| p.fingerprint_salt()).collect();
        assert_eq!(salts[0], 0, "interp owns the unscoped legacy namespace");
        salts.sort_unstable();
        salts.dedup();
        assert_eq!(salts.len(), 5, "every platform gets a distinct salt");
        // Salts are baked into on-disk fingerprints: pin them.
        assert_eq!(
            by_id("host-mt").unwrap().fingerprint_salt(),
            fnv1a64(b"host-mt")
        );
        assert_eq!(by_id("dist").unwrap().fingerprint_salt(), fnv1a64(b"dist"));
        // OS threads are bit-identical to the cooperative loop, so warm
        // caches must survive the executor switch.
        let threads = HostMtPlatform::new(4).with_executor(ExecutorCfg::Threads {
            workers: 4,
            mode: ExecMode::Replay,
        });
        assert_eq!(threads.fingerprint_salt(), fnv1a64(b"host-mt"));
    }

    #[test]
    fn capability_checks_fail_typed() {
        let interp = InterpPlatform::default();
        let needs = Needs {
            kernels: true,
            ..Needs::default()
        };
        match interp.check(needs) {
            Err(PlatformError::Unsupported { platform, feature }) => {
                assert_eq!(platform, "interp");
                assert_eq!(feature, "global kernels");
            }
            other => panic!("expected typed Unsupported, got {other:?}"),
        }
        assert!(GpuSimPlatform::default().check(needs).is_ok());
        assert!(MpiSimPlatform::new(4).check(needs).is_err());
        assert!(MpiSimPlatform::new(4)
            .with_gpu(GpuConfig::default())
            .check(needs)
            .is_ok());
        assert!(HostMtPlatform::new(4)
            .check(Needs {
                collectives: true,
                host_ffi: true,
                ..Needs::default()
            })
            .is_ok());
        let dist = DistPlatform::new(4);
        assert!(dist
            .check(Needs {
                collectives: true,
                ..Needs::default()
            })
            .is_ok());
        match dist.check(Needs {
            host_ffi: true,
            ..Needs::default()
        }) {
            Err(PlatformError::Unsupported { platform, feature }) => {
                assert_eq!(platform, "dist");
                assert_eq!(feature, "host FFI");
            }
            other => panic!("expected typed Unsupported for dist FFI, got {other:?}"),
        }
    }
}

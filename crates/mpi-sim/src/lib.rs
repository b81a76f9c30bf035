//! # mpi-sim — simulated MPI ranks with a LogP-style cost model
//!
//! Each rank is a resumable [`exec::Thread`] with its **own memory space**
//! (a separate [`exec::Machine`]) and optionally its own simulated GPU —
//! one GPU per node, as on the paper's TSUBAME 2.0 nodes. Ranks are
//! scheduled cooperatively and deterministically in a single host thread:
//! a rank runs until it blocks on communication, finishes, or exhausts its
//! fuel slice.
//!
//! **Virtual time.** Every rank carries a virtual clock: executed cycles
//! advance it; a message costs `alpha + beta·bytes` and its receiver's
//! clock is pulled up to the sender's completion time (Lamport-style);
//! collectives synchronize all clocks to the maximum plus a collective
//! cost. The weak/strong-scaling figures are plotted in this deterministic
//! virtual time — on a one-core host, wall-clock "parallel" runs would
//! measure the host scheduler, not the algorithm.
//!
//! This `World` is also the general runtime driver used for single-rank
//! programs (with or without a GPU): `size == 1` gives `rank()==0`,
//! collectives become identities, and self-messages still match.

#![forbid(unsafe_code)]

pub mod runtime;
pub mod shared;
pub mod transport;

use std::path::{Path, PathBuf};

pub use runtime::{
    run_world, run_world_with_restart, service_device_yield, service_host_yield, ArgBuilder,
    Blocked, DeviceOutcome, LocalPool, RankCtl, RankPool, RankSnapshot, RankYield, RunCfg,
};
pub use shared::{SharedCache, SharedCacheStats};
pub use transport::{
    read_frame, write_frame, InMemTransport, MsgQueues, Transport, TransportError, FRAME_MAGIC,
    MAX_FRAME_LEN, WIRE_VERSION,
};

use exec::ckpt::chain;
pub use exec::ckpt::CkptError;
pub use exec::pool::{ExecMode, ExecutorCfg};
use exec::{FaultConfig, HostRegistry, Machine, ResilienceStats, Val};
use gpu_sim::GpuConfig;
use nir::{FuncId, Program};

/// Communication cost model (cycles).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Per-message latency.
    pub alpha: u64,
    /// Per-byte cost (inverse bandwidth).
    pub beta: f64,
    /// Base cost of a collective (barrier/allreduce/bcast).
    pub collective_alpha: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Shaped after a fat-tree InfiniBand fabric relative to ~1 cycle
        // per scalar op: ~2 µs latency, ~5 GB/s effective per-link.
        CostModel {
            alpha: 4_000,
            beta: 0.4,
            collective_alpha: 8_000,
        }
    }
}

/// The order in which runnable ranks are serviced each scheduler round.
///
/// Results are schedule-independent by construction — clocks are computed
/// from per-rank virtual times and allreduce combines contributions in
/// rank order — so this knob exists to *prove* that, and to model
/// platforms whose workers are genuinely unordered (the `host-mt` thread
/// pool backend, where the OS scheduler would pick any interleaving).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Schedule {
    /// Service runnable ranks in rank-id order (the historical behavior).
    #[default]
    RankOrder,
    /// Service runnable ranks in a seeded per-round permutation — a
    /// deterministic stand-in for an OS thread scheduler. The same seed
    /// reproduces the same interleaving bit-for-bit.
    Seeded(u64),
}

/// Typed simulation error. Every failure mode of a world run has its own
/// variant so callers (the wootinj facade, the bench fault matrix, the
/// property suites) can classify outcomes without string matching.
#[derive(Debug)]
pub enum SimError {
    /// One rank's execution or MPI protocol failed (with func/pc context
    /// when the faulting frame is known).
    Rank { rank: u32, message: String },
    /// An injected fault crashed a rank; the world ran on until no
    /// surviving rank could make progress, then failed with a full
    /// post-mortem of every rank's state.
    Crash {
        rank: u32,
        /// Retired-instruction count at which the rank died.
        step: u64,
        post_mortem: String,
    },
    /// A rank waited in one blocked state (recv or collective) past the
    /// configured fuel bound — a would-be hang converted into an error.
    Timeout {
        rank: u32,
        waited_rounds: u64,
        report: String,
    },
    /// No rank can make progress and none is mid-collective.
    Deadlock { report: String },
    /// A persisted checkpoint chain belongs to a different platform
    /// namespace (fingerprint salt): a `dist` chain must never
    /// warm-start an `mpi-sim` world, and vice versa.
    CheckpointScope { expected: u64, found: u64 },
    /// World-level inconsistency not attributable to one rank.
    World { message: String },
}

// `dist` workers report failures to their coordinator in this layout.
nir::wire_enum!(SimError {
    0 = Rank { rank, message },
    1 = Crash { rank, step, post_mortem },
    2 = Timeout { rank, waited_rounds, report },
    3 = Deadlock { report },
    4 = CheckpointScope { expected, found },
    5 = World { message },
});

impl SimError {
    /// The offending rank, when one is attributable.
    pub fn rank(&self) -> Option<u32> {
        match self {
            SimError::Rank { rank, .. }
            | SimError::Crash { rank, .. }
            | SimError::Timeout { rank, .. } => Some(*rank),
            SimError::Deadlock { .. }
            | SimError::CheckpointScope { .. }
            | SimError::World { .. } => None,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Rank { rank, message } => {
                write!(f, "mpi-sim error on rank {rank}: {message}")
            }
            SimError::Crash {
                rank,
                step,
                post_mortem,
            } => write!(
                f,
                "mpi-sim: rank {rank} crashed at step {step} (injected fault); world state:\n{post_mortem}"
            ),
            SimError::Timeout {
                rank,
                waited_rounds,
                report,
            } => write!(
                f,
                "mpi-sim: rank {rank} timed out after {waited_rounds} blocked rounds; world state:\n{report}"
            ),
            SimError::Deadlock { report } => write!(f, "mpi-sim: deadlock detected:\n{report}"),
            SimError::CheckpointScope { expected, found } => write!(
                f,
                "mpi-sim: persisted checkpoint chain belongs to platform namespace \
                 {found:#018x}; this world restores only {expected:#018x} — refusing to warm-start"
            ),
            SimError::World { message } => write!(f, "mpi-sim error: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

/// A [`SimError::Rank`] attributed to one rank.
pub fn err_on(rank: u32, message: impl ToString) -> SimError {
    SimError::Rank {
        rank,
        message: message.to_string(),
    }
}

/// Outcome of one rank.
#[derive(Debug)]
pub struct RankOutcome {
    pub result: Option<Val>,
    /// Final virtual clock (compute + communication).
    pub vclock: u64,
    /// Cycles spent computing.
    pub compute_cycles: u64,
    /// Virtual time spent in communication and GPU waits.
    pub comm_cycles: u64,
    pub output: Vec<String>,
    /// The rank's final memory space (for reading back results).
    pub machine: Machine,
    /// Device time if this rank had a GPU.
    pub gpu_time: u64,
}

/// Outcome of a whole-world run.
#[derive(Debug)]
pub struct WorldRun {
    pub ranks: Vec<RankOutcome>,
    /// Completion time of the slowest rank — the figure-of-merit plotted
    /// by the scalability experiments.
    pub vtime: u64,
    /// Total executed cycles across ranks.
    pub total_cycles: u64,
    /// Aggregated fault-injection / recovery counters across all ranks
    /// (all-zero when no fault plan is configured). Deterministic: the
    /// same `FaultConfig` seed yields a bit-identical value.
    pub resilience: ResilienceStats,
    /// Per-world translate-once counters when the code driving this world
    /// came through a shared (rank-0-owned) JIT cache — see
    /// [`shared::SharedCache`]. All-zero for unshared runs; the `wootinj`
    /// facade fills it in from the `jit4mpi` snapshot.
    pub shared_jit: SharedCacheStats,
    /// Checkpoint/restart accounting; all-zero for plain [`World::run`].
    pub restart: RestartStats,
}

/// When (and where) to checkpoint a world. Collective boundaries are the
/// only safe cut points: completing a collective synchronizes every
/// participant's clock and leaves no rank mid-protocol, so a snapshot
/// there is globally consistent by construction (only already-posted
/// point-to-point messages can be in flight, and those are captured too).
#[derive(Debug, Clone, Default)]
pub struct CheckpointPolicy {
    /// Take a checkpoint after every `every` completed collectives
    /// (values below 1 behave as 1).
    pub every: u32,
    /// When set, the latest checkpoint also persists to this file
    /// (written temp-then-rename), so a killed *process* can
    /// warm-restart. By convention `<fingerprint>.wckpt` next to the JIT
    /// disk store's artifacts.
    pub persist: Option<PathBuf>,
    /// When set, the cadence *tightens after every restart* — halved
    /// (floor 1) each time a rollback happens. A healthy world pays the
    /// coarse cadence's low overhead; a crashing one converges toward
    /// cadence 1, bounding the virtual time each further crash can
    /// discard. `repro restart-cost` motivates this: cadence 16 exhausts
    /// restart budgets that cadence 1 survives, but costs ~16× fewer
    /// snapshots when nothing goes wrong.
    pub adaptive: bool,
    /// Delta checkpointing: 0 (default) captures a full snapshot every
    /// time; N > 0 captures delta links against the previous snapshot
    /// and starts a fresh base every N deltas (the rebase interval).
    /// Deltas form a verified chain (`base + delta*`, each link carrying
    /// its parent's digest); a damaged link degrades rollback to the
    /// deepest valid ancestor, and persisted chains are
    /// `<name>.wckpt` + `<name>.d1.wckpt`, `<name>.d2.wckpt`, …
    pub rebase_every: u32,
    /// Fixed virtual-cycle latency charged to every live rank per
    /// checkpoint write (0 = checkpoints are free, the historic model).
    pub write_alpha: u64,
    /// Checkpoint write bandwidth in bytes per virtual cycle (0 =
    /// infinite). Together with `write_alpha` this makes
    /// `virtual_time_lost` reflect snapshot size, so delta chains pay
    /// off in time as well as bytes.
    pub write_bytes_per_cycle: u64,
}

impl CheckpointPolicy {
    /// Checkpoint after every `every` completed collectives.
    pub fn every(every: u32) -> Self {
        CheckpointPolicy {
            every,
            ..CheckpointPolicy::default()
        }
    }

    /// Start at cadence `start`, halving (floor 1) after each restart —
    /// see [`CheckpointPolicy::adaptive`].
    pub fn adaptive(start: u32) -> Self {
        CheckpointPolicy {
            every: start,
            adaptive: true,
            ..CheckpointPolicy::default()
        }
    }

    /// Also persist the latest checkpoint to `path`.
    pub fn with_persist(mut self, path: impl Into<PathBuf>) -> Self {
        self.persist = Some(path.into());
        self
    }

    /// Capture deltas against the previous snapshot, rebasing (fresh
    /// full base) every `rebase_every` deltas.
    pub fn with_rebase_every(mut self, rebase_every: u32) -> Self {
        self.rebase_every = rebase_every;
        self
    }

    /// Model checkpoint writes in virtual time: `alpha` fixed cycles
    /// plus size / `bytes_per_cycle` cycles, charged to every live rank
    /// after each capture.
    pub fn with_write_cost(mut self, alpha: u64, bytes_per_cycle: u64) -> Self {
        self.write_alpha = alpha;
        self.write_bytes_per_cycle = bytes_per_cycle;
        self
    }
}

/// Checkpoint/restart accounting for one [`World::run_with_restart`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RestartStats {
    /// Checkpoints captured at collective boundaries.
    pub checkpoints_taken: u64,
    /// Rollback-and-resume cycles performed (0 = the first attempt ran
    /// to completion).
    pub restarts: u64,
    /// Ranks restored from a checkpoint (or re-initialized cold),
    /// summed over all restarts.
    pub ranks_rolled_back: u64,
    /// Virtual cycles discarded by rollbacks: failure-time clock minus
    /// the restored checkpoint's clock, summed over all restarts.
    pub virtual_time_lost: u64,
    /// Checkpoints captured as delta links (subset of
    /// `checkpoints_taken`; the rest were full bases).
    pub delta_checkpoints: u64,
    /// Fresh bases started because the rebase interval elapsed.
    pub rebases: u64,
    /// Total sealed checkpoint bytes produced (bases + deltas) — the
    /// number delta chains exist to shrink.
    pub ckpt_bytes_written: u64,
    /// Damaged/unusable chain links discarded while rolling back or
    /// warm-starting (each drop moves one snapshot deeper in history).
    pub chain_links_dropped: u64,
}

impl std::fmt::Display for RestartStats {
    /// Compact one-line summary for bench output and post-mortems.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ckpts {} ({} delta, {} rebases, {} B) · restarts {} · ranks \
             rolled back {} · vtime lost {} · links dropped {}",
            self.checkpoints_taken,
            self.delta_checkpoints,
            self.rebases,
            self.ckpt_bytes_written,
            self.restarts,
            self.ranks_rolled_back,
            self.virtual_time_lost,
            self.chain_links_dropped,
        )
    }
}

/// A sealed, checksummed snapshot of a whole world at a collective
/// boundary: every rank's interpreter + machine state (including the
/// fault-stream cursors and any device state) plus the in-flight message
/// queues. Produced by [`World::run_with_restart`] per its
/// [`CheckpointPolicy`]; the `bytes` are an `exec::ckpt` world payload.
#[derive(Debug, Clone)]
pub struct WorldCheckpoint {
    /// Sealed container bytes (restorable only by a same-shaped world
    /// over the same program).
    pub bytes: Vec<u8>,
    /// Max rank clock at capture (rollback bookkeeping).
    pub vtime: u64,
}

/// Path of delta link `seq` beside its chain's base file:
/// `world.wckpt` → `world.d3.wckpt`.
pub(crate) fn delta_path(base: &Path, seq: u64) -> PathBuf {
    let name = base
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("chain.wckpt");
    let stem = name.strip_suffix(".wckpt").unwrap_or(name);
    base.with_file_name(format!("{stem}.d{seq}.wckpt"))
}

/// Load a persisted chain: the base file, then `d1`, `d2`, … until the
/// first missing file (deltas are written densely, so a gap means the
/// rest of the chain is orphaned). Missing base = no chain.
pub(crate) fn load_chain_files(base: &Path) -> Vec<Vec<u8>> {
    let mut links = Vec::new();
    match std::fs::read(base) {
        Ok(bytes) => links.push(bytes),
        Err(_) => return links,
    }
    let mut seq = 1u64;
    while let Ok(bytes) = std::fs::read(delta_path(base, seq)) {
        links.push(bytes);
        seq += 1;
    }
    links
}

/// Remove the dense run of persisted delta files (rebase cleanup).
pub(crate) fn remove_persisted_deltas(base: &Path) {
    let mut seq = 1u64;
    while std::fs::remove_file(delta_path(base, seq)).is_ok() {
        seq += 1;
    }
}

/// Offline inspection of a persisted checkpoint chain: how many link
/// files exist, how many validate (version, checksum, sequence, parent
/// digest), and the typed error at the first bad hop. World-independent —
/// tests and tooling use it to observe exactly which ancestor a
/// warm start will land on.
#[derive(Debug)]
pub struct ChainProbe {
    /// Link files found on disk (base + dense delta run).
    pub links_found: usize,
    /// Leading links that validate and apply cleanly.
    pub links_valid: usize,
    /// Why validation stopped, when `links_valid < links_found`.
    pub error: Option<CkptError>,
}

/// Probe the persisted chain rooted at `base` (see [`ChainProbe`]).
pub fn probe_chain(base: &Path) -> ChainProbe {
    let links = load_chain_files(base);
    let out = chain::resolve_prefix(&links);
    ChainProbe {
        links_found: links.len(),
        links_valid: out.valid_links,
        error: out.error,
    }
}

/// Persist checkpoint bytes via temp-then-rename so a reader (including a
/// warm-restarting process) never observes a torn file. Best-effort: IO
/// failures only cost the warm-restart capability, never the run.
pub(crate) fn persist_checkpoint(path: &Path, bytes: &[u8]) {
    static TMP_UNIQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let file_name = match path.file_name() {
        Some(n) => n.to_os_string(),
        None => return,
    };
    let uniq = TMP_UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp_name = std::ffi::OsString::from(format!(".tmp-{}-{uniq}-", std::process::id()));
    tmp_name.push(&file_name);
    let tmp = path.with_file_name(tmp_name);
    if std::fs::write(&tmp, bytes).is_ok() && std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Derive the device-side fault config for one rank: same rates as the
/// host config, seed decorrelated from the host streams (which already
/// decorrelate per rank via [`FaultPlan::for_rank`]) so a device crash
/// and a host crash never fire in lockstep.
pub(crate) fn device_fault_config(cfg: FaultConfig, rank: u32) -> FaultConfig {
    FaultConfig {
        seed: cfg
            .seed
            .rotate_left(29)
            .wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(rank as u64 + 1)),
        ..cfg
    }
}

/// A simulated MPI world over a translated program.
pub struct World<'p> {
    pub program: &'p Program,
    pub size: u32,
    pub cost: CostModel,
    /// One GPU per rank when set (the paper's GPU experiments).
    pub gpu: Option<GpuConfig>,
    /// Fuel per scheduling slice.
    pub slice: u64,
    /// Registered foreign functions (the paper's FFI); `CallHost`
    /// instructions are resolved against this by key.
    pub host: Option<&'p HostRegistry>,
    /// Deterministic fault injection; each rank derives its own stream
    /// from this seed. `None` injects nothing.
    pub fault: Option<FaultConfig>,
    /// Per-collective fuel bound: a rank blocked in one recv/collective
    /// for more than this many scheduler rounds (and, as a backstop, a
    /// world exceeding it globally while any rank is blocked) fails with
    /// [`SimError::Timeout`] instead of hanging. `None` disables it.
    pub timeout_rounds: Option<u64>,
    /// Service order for runnable ranks each round (see [`Schedule`]).
    pub schedule: Schedule,
    /// Platform namespace stamp for checkpoints (see
    /// [`World::with_ckpt_salt`]). 0 is the historical `mpi-sim`
    /// namespace.
    pub ckpt_salt: u64,
    /// Who executes ready slices each round (see [`exec::pool`]):
    /// the in-process serial loop by default, real OS threads when
    /// configured. Replay-mode threads are bit-identical to the serial
    /// loop, so this never perturbs results or checkpoint identity.
    pub executor: ExecutorCfg,
}

/// Default [`World::timeout_rounds`] once fault injection is enabled:
/// generous enough for every in-repo workload, small enough that an
/// injected would-be hang fails in bounded time.
pub const DEFAULT_FAULT_TIMEOUT_ROUNDS: u64 = 100_000;

impl<'p> World<'p> {
    pub fn new(program: &'p Program, size: u32) -> Self {
        World {
            program,
            size,
            cost: CostModel::default(),
            gpu: None,
            slice: 4_000_000,
            host: None,
            fault: None,
            timeout_rounds: None,
            schedule: Schedule::RankOrder,
            ckpt_salt: 0,
            executor: ExecutorCfg::Sim,
        }
    }

    /// Choose who burns the cycles of each scheduling slice: the
    /// in-process serial loop ([`ExecutorCfg::Sim`], the default) or
    /// real OS-thread workers ([`ExecutorCfg::Threads`]).
    pub fn with_executor(mut self, executor: ExecutorCfg) -> Self {
        self.executor = executor;
        self
    }

    /// Pick the per-round service order for runnable ranks.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    pub fn with_host(mut self, host: &'p HostRegistry) -> Self {
        self.host = Some(host);
        self
    }

    /// Enable deterministic fault injection. Also arms the timeout
    /// backstop (at [`DEFAULT_FAULT_TIMEOUT_ROUNDS`]) unless one was set
    /// explicitly — injected message loss must fail, not hang.
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self.timeout_rounds
            .get_or_insert(DEFAULT_FAULT_TIMEOUT_ROUNDS);
        self
    }

    /// Bound the rounds a rank may stay blocked in one recv/collective.
    pub fn with_timeout(mut self, rounds: u64) -> Self {
        self.timeout_rounds = Some(rounds);
        self
    }

    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    pub fn with_gpu(mut self, gpu: GpuConfig) -> Self {
        self.gpu = Some(gpu);
        self
    }

    /// Stamp checkpoints from this world with a platform namespace salt
    /// (see [`RunCfg::ckpt_salt`]). Platform backends pass their
    /// fingerprint salt so a persisted chain can never warm-start a
    /// world on a different platform.
    pub fn with_ckpt_salt(mut self, salt: u64) -> Self {
        self.ckpt_salt = salt;
        self
    }

    /// This world's scheduler-facing configuration slice.
    pub(crate) fn run_cfg(&self) -> RunCfg {
        RunCfg {
            size: self.size,
            cost: self.cost,
            slice: self.slice,
            timeout_rounds: self.timeout_rounds,
            schedule: self.schedule,
            ckpt_salt: self.ckpt_salt,
        }
    }

    /// Run `entry` on every rank. `make_args` builds each rank's entry
    /// arguments *into that rank's own memory space* (deep copies).
    pub fn run(
        &self,
        entry: FuncId,
        mut make_args: impl FnMut(u32, &mut Machine) -> Result<Vec<Val>, String>,
    ) -> Result<WorldRun, SimError> {
        let mut pool = LocalPool::new(
            self.program,
            self.size,
            entry,
            &mut make_args,
            self.gpu,
            self.fault,
            self.host,
        )
        .with_executor(self.executor);
        let mut transport = InMemTransport::new();
        runtime::run_world(&self.run_cfg(), &mut pool, &mut transport)
    }

    /// Like [`World::run`], but checkpoint every
    /// [`CheckpointPolicy::every`] completed collectives and, on
    /// [`SimError::Crash`] / [`SimError::Timeout`], roll every rank back
    /// to the last checkpoint (cold-restart when none exists yet), reseed
    /// every fault stream past its consumed cursor, and resume — up to
    /// `max_restarts` times. Other errors, and restart-budget exhaustion,
    /// propagate the typed error (with its last post-mortem) unchanged.
    pub fn run_with_restart(
        &self,
        entry: FuncId,
        mut make_args: impl FnMut(u32, &mut Machine) -> Result<Vec<Val>, String>,
        policy: &CheckpointPolicy,
        max_restarts: u32,
    ) -> Result<WorldRun, SimError> {
        let mut pool = LocalPool::new(
            self.program,
            self.size,
            entry,
            &mut make_args,
            self.gpu,
            self.fault,
            self.host,
        )
        .with_executor(self.executor);
        let mut transport = InMemTransport::new();
        runtime::run_world_with_restart(
            &self.run_cfg(),
            &mut pool,
            &mut transport,
            policy,
            max_restarts,
        )
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use exec::ArrStore;
    use jlang::ast::BinOp;
    use jlang::types::PrimKind;
    use nir::{ElemTy, FuncBuilder, FuncKind, Instr, IntrinOp, Ty};

    /// A fresh local pool + empty scheduler state for checkpoint tests.
    fn test_pool<'p, 'a>(
        world: &World<'p>,
        entry: FuncId,
        make_args: ArgBuilder<'a>,
    ) -> (LocalPool<'p, 'a>, Vec<RankCtl>, InMemTransport) {
        let mut pool = LocalPool::new(
            world.program,
            world.size,
            entry,
            make_args,
            world.gpu,
            world.fault,
            world.host,
        );
        pool.reinit().unwrap();
        let ctls = vec![RankCtl::default(); world.size as usize];
        (pool, ctls, InMemTransport::new())
    }

    /// Program: each rank fills a buffer with its rank, sends it right
    /// (ring), receives from the left, returns received[0].
    fn ring_program() -> (Program, FuncId) {
        let mut fb = FuncBuilder::new("ring", vec![], Some(Ty::F32), FuncKind::Host);
        let rank = fb.reg(Ty::I32);
        let size = fb.reg(Ty::I32);
        let one = fb.reg(Ty::I32);
        let n = fb.reg(Ty::I32);
        let buf = fb.reg(Ty::Arr(ElemTy::F32));
        let rbuf = fb.reg(Ty::Arr(ElemTy::F32));
        let zero = fb.reg(Ty::I32);
        let dest = fb.reg(Ty::I32);
        let src = fb.reg(Ty::I32);
        let tag = fb.reg(Ty::I32);
        let i = fb.reg(Ty::I32);
        let cond = fb.reg(Ty::Bool);
        let fv = fb.reg(Ty::F32);
        let out = fb.reg(Ty::F32);
        fb.emit(Instr::Intrin {
            op: IntrinOp::MpiRank,
            args: vec![],
            dst: Some(rank),
        });
        fb.emit(Instr::Intrin {
            op: IntrinOp::MpiSize,
            args: vec![],
            dst: Some(size),
        });
        fb.emit(Instr::ConstI32(one, 1));
        fb.emit(Instr::ConstI32(zero, 0));
        fb.emit(Instr::ConstI32(n, 8));
        fb.emit(Instr::ConstI32(tag, 7));
        fb.emit(Instr::NewArr {
            elem: ElemTy::F32,
            len: n,
            dst: buf,
        });
        fb.emit(Instr::NewArr {
            elem: ElemTy::F32,
            len: n,
            dst: rbuf,
        });
        // fill buf with rank
        fb.emit(Instr::Cast {
            to: PrimKind::Float,
            from: PrimKind::Int,
            dst: fv,
            src: rank,
        });
        fb.emit(Instr::ConstI32(i, 0));
        let head = fb.label();
        let body = fb.label();
        let done = fb.label();
        fb.bind(head);
        fb.emit(Instr::Bin {
            op: BinOp::Lt,
            kind: PrimKind::Int,
            dst: cond,
            lhs: i,
            rhs: n,
        });
        fb.br(cond, body, done);
        fb.bind(body);
        fb.emit(Instr::StArr {
            arr: buf,
            idx: i,
            src: fv,
        });
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: i,
            lhs: i,
            rhs: one,
        });
        fb.jmp(head);
        fb.bind(done);
        // dest = (rank+1) % size; src = (rank+size-1) % size
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: dest,
            lhs: rank,
            rhs: one,
        });
        fb.emit(Instr::Bin {
            op: BinOp::Rem,
            kind: PrimKind::Int,
            dst: dest,
            lhs: dest,
            rhs: size,
        });
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: src,
            lhs: rank,
            rhs: size,
        });
        fb.emit(Instr::Bin {
            op: BinOp::Sub,
            kind: PrimKind::Int,
            dst: src,
            lhs: src,
            rhs: one,
        });
        fb.emit(Instr::Bin {
            op: BinOp::Rem,
            kind: PrimKind::Int,
            dst: src,
            lhs: src,
            rhs: size,
        });
        // sendrecv
        fb.emit(Instr::Intrin {
            op: IntrinOp::MpiSendRecvF32,
            args: vec![buf, zero, n, dest, rbuf, zero, src, tag],
            dst: None,
        });
        fb.emit(Instr::LdArr {
            arr: rbuf,
            idx: zero,
            dst: out,
        });
        fb.emit(Instr::Ret(Some(out)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        p.entry = Some(id);
        p.validate().unwrap();
        (p, id)
    }

    #[test]
    fn ring_exchange_across_four_ranks() {
        let (p, entry) = ring_program();
        let world = World::new(&p, 4);
        let run = world.run(entry, |_, _| Ok(vec![])).unwrap();
        // Each rank receives from its left neighbor.
        for (r, out) in run.ranks.iter().enumerate() {
            let left = (r + 4 - 1) % 4;
            assert_eq!(out.result, Some(Val::F32(left as f32)), "rank {r}");
        }
        assert!(run.vtime > 0);
    }

    #[test]
    fn single_rank_world_is_self_consistent() {
        let (p, entry) = ring_program();
        let world = World::new(&p, 1);
        let run = world.run(entry, |_, _| Ok(vec![])).unwrap();
        // Self-send: rank 0 receives its own data.
        assert_eq!(run.ranks[0].result, Some(Val::F32(0.0)));
    }

    fn allreduce_program() -> (Program, FuncId) {
        let mut fb = FuncBuilder::new("ar", vec![], Some(Ty::F64), FuncKind::Host);
        let rank = fb.reg(Ty::I32);
        let x = fb.reg(Ty::F64);
        let s = fb.reg(Ty::F64);
        fb.emit(Instr::Intrin {
            op: IntrinOp::MpiRank,
            args: vec![],
            dst: Some(rank),
        });
        fb.emit(Instr::Cast {
            to: PrimKind::Double,
            from: PrimKind::Int,
            dst: x,
            src: rank,
        });
        fb.emit(Instr::Intrin {
            op: IntrinOp::MpiAllreduceSumF64,
            args: vec![x],
            dst: Some(s),
        });
        fb.emit(Instr::Ret(Some(s)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        p.validate().unwrap();
        (p, id)
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let (p, entry) = allreduce_program();
        let world = World::new(&p, 5);
        let run = world.run(entry, |_, _| Ok(vec![])).unwrap();
        for out in &run.ranks {
            assert_eq!(out.result, Some(Val::F64(10.0))); // 0+1+2+3+4
        }
        // Collectives synchronize the clocks.
        let clocks: Vec<u64> = run.ranks.iter().map(|r| r.vclock).collect();
        let spread = clocks.iter().max().unwrap() - clocks.iter().min().unwrap();
        assert!(
            spread < 1000,
            "clocks should be nearly synchronized: {clocks:?}"
        );
    }

    #[test]
    fn deadlock_detected() {
        // Rank 0 receives from rank 1, which never sends.
        let mut fb = FuncBuilder::new("dead", vec![], None, FuncKind::Host);
        let rank = fb.reg(Ty::I32);
        let zero = fb.reg(Ty::I32);
        let one = fb.reg(Ty::I32);
        let n = fb.reg(Ty::I32);
        let buf = fb.reg(Ty::Arr(ElemTy::F32));
        let cond = fb.reg(Ty::Bool);
        fb.emit(Instr::Intrin {
            op: IntrinOp::MpiRank,
            args: vec![],
            dst: Some(rank),
        });
        fb.emit(Instr::ConstI32(zero, 0));
        fb.emit(Instr::ConstI32(one, 1));
        fb.emit(Instr::ConstI32(n, 4));
        fb.emit(Instr::NewArr {
            elem: ElemTy::F32,
            len: n,
            dst: buf,
        });
        let recv = fb.label();
        let end = fb.label();
        fb.emit(Instr::Bin {
            op: BinOp::Eq,
            kind: PrimKind::Int,
            dst: cond,
            lhs: rank,
            rhs: zero,
        });
        fb.br(cond, recv, end);
        fb.bind(recv);
        fb.emit(Instr::Intrin {
            op: IntrinOp::MpiRecvF32,
            args: vec![buf, zero, n, one, zero],
            dst: None,
        });
        fb.jmp(end);
        fb.bind(end);
        fb.emit(Instr::Ret(None));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        p.validate().unwrap();
        let world = World::new(&p, 2);
        let e = world.run(id, |_, _| Ok(vec![])).unwrap_err();
        let SimError::Deadlock { report } = &e else {
            panic!("expected Deadlock, got {e}");
        };
        // The report names the waited-on source/tag and queue depths
        // (rank 0 waits on rank 1, tag 0, nothing queued).
        assert!(report.contains("rank 0: blocked on Recv"), "{report}");
        assert!(report.contains("from rank 1, tag 0"), "{report}");
        assert!(report.contains("0 matching queued"), "{report}");
        assert!(report.contains("rank 1: done"), "{report}");
    }

    #[test]
    fn virtual_time_grows_with_message_volume() {
        let (p, entry) = ring_program();
        let cheap = World::new(&p, 4).with_cost(CostModel {
            alpha: 10,
            beta: 0.01,
            collective_alpha: 10,
        });
        let costly = World::new(&p, 4).with_cost(CostModel {
            alpha: 100_000,
            beta: 10.0,
            collective_alpha: 10,
        });
        let t1 = cheap.run(entry, |_, _| Ok(vec![])).unwrap().vtime;
        let t2 = costly.run(entry, |_, _| Ok(vec![])).unwrap().vtime;
        assert!(
            t2 > t1,
            "expensive network must increase completion time: {t1} vs {t2}"
        );
    }

    #[test]
    fn determinism() {
        let (p, entry) = ring_program();
        let world = World::new(&p, 4);
        let a = world.run(entry, |_, _| Ok(vec![])).unwrap();
        let b = world.run(entry, |_, _| Ok(vec![])).unwrap();
        assert_eq!(a.vtime, b.vtime);
        assert_eq!(a.total_cycles, b.total_cycles);
    }

    #[test]
    fn separate_memory_spaces() {
        // Each rank allocates and writes; handles are rank-local.
        let mut fb = FuncBuilder::new(
            "m",
            vec![Ty::Arr(ElemTy::F32)],
            Some(Ty::F32),
            FuncKind::Host,
        );
        let zero = fb.reg(Ty::I32);
        let out = fb.reg(Ty::F32);
        fb.emit(Instr::ConstI32(zero, 0));
        fb.emit(Instr::LdArr {
            arr: 0,
            idx: zero,
            dst: out,
        });
        fb.emit(Instr::Ret(Some(out)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        p.validate().unwrap();
        let world = World::new(&p, 3);
        let run = world
            .run(id, |r, machine| {
                let h = machine.mem.alloc(ArrStore::F32(vec![r as f32 * 10.0]));
                Ok(vec![Val::Arr(h)])
            })
            .unwrap();
        assert_eq!(run.ranks[0].result, Some(Val::F32(0.0)));
        assert_eq!(run.ranks[1].result, Some(Val::F32(10.0)));
        assert_eq!(run.ranks[2].result, Some(Val::F32(20.0)));
    }

    /// Each rank allreduce-sums a value `steps` times, folding the result
    /// back in each iteration: one collective boundary per step, so
    /// checkpoints have places to land mid-run.
    fn stepped_allreduce(steps: i32) -> (Program, FuncId) {
        let mut fb = FuncBuilder::new("sar", vec![], Some(Ty::F64), FuncKind::Host);
        let rank = fb.reg(Ty::I32);
        let one = fb.reg(Ty::I32);
        let limit = fb.reg(Ty::I32);
        let i = fb.reg(Ty::I32);
        let cond = fb.reg(Ty::Bool);
        let x = fb.reg(Ty::F64);
        let s = fb.reg(Ty::F64);
        let bump = fb.reg(Ty::F64);
        fb.emit(Instr::Intrin {
            op: IntrinOp::MpiRank,
            args: vec![],
            dst: Some(rank),
        });
        fb.emit(Instr::Cast {
            to: PrimKind::Double,
            from: PrimKind::Int,
            dst: x,
            src: rank,
        });
        fb.emit(Instr::ConstI32(one, 1));
        fb.emit(Instr::ConstI32(limit, steps));
        fb.emit(Instr::ConstI32(i, 0));
        fb.emit(Instr::ConstF64(bump, 1.0));
        let head = fb.label();
        let body = fb.label();
        let done = fb.label();
        fb.bind(head);
        fb.emit(Instr::Bin {
            op: BinOp::Lt,
            kind: PrimKind::Int,
            dst: cond,
            lhs: i,
            rhs: limit,
        });
        fb.br(cond, body, done);
        fb.bind(body);
        fb.emit(Instr::Intrin {
            op: IntrinOp::MpiAllreduceSumF64,
            args: vec![x],
            dst: Some(s),
        });
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Double,
            dst: x,
            lhs: s,
            rhs: bump,
        });
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: i,
            lhs: i,
            rhs: one,
        });
        fb.jmp(head);
        fb.bind(done);
        fb.emit(Instr::Ret(Some(x)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        p.validate().unwrap();
        (p, id)
    }

    #[test]
    fn checkpoint_capture_restore_capture_is_bit_identical() {
        let (p, entry) = stepped_allreduce(3);
        let mut cfg = FaultConfig::seeded(42);
        cfg.crash = 0.001;
        let world = World::new(&p, 3).with_faults(cfg);
        let mut args = |_: u32, _: &mut Machine| Ok(vec![]);
        let (mut pool, ctls, mut transport) = test_pool(&world, entry, &mut args);
        let rc = world.run_cfg();
        let first = runtime::capture_world(&rc, &mut pool, &ctls, &transport).unwrap();
        let ctls2 = runtime::restore_world(&rc, &mut pool, &mut transport, &first.bytes).unwrap();
        let second = runtime::capture_world(&rc, &mut pool, &ctls2, &transport).unwrap();
        assert_eq!(first.bytes, second.bytes);
        assert_eq!(first.vtime, second.vtime);
    }

    #[test]
    fn restore_rejects_wrong_world_size_and_garbage() {
        let (p, entry) = stepped_allreduce(2);
        let world = World::new(&p, 3);
        let mut args = |_: u32, _: &mut Machine| Ok(vec![]);
        let (mut pool, ctls, mut transport) = test_pool(&world, entry, &mut args);
        let rc = world.run_cfg();
        let wc = runtime::capture_world(&rc, &mut pool, &ctls, &transport).unwrap();
        let smaller = World::new(&p, 2);
        let mut args2 = |_: u32, _: &mut Machine| Ok(vec![]);
        let (mut pool2, _, mut transport2) = test_pool(&smaller, entry, &mut args2);
        assert!(
            runtime::restore_world(&smaller.run_cfg(), &mut pool2, &mut transport2, &wc.bytes)
                .is_err()
        );
        // Truncations and bit flips must come back typed, never panic.
        for cut in 0..wc.bytes.len() {
            assert!(
                runtime::restore_world(&rc, &mut pool, &mut transport, &wc.bytes[..cut]).is_err()
            );
        }
        for i in 0..wc.bytes.len() {
            let mut bad = wc.bytes.clone();
            bad[i] ^= 0x10;
            let _ = runtime::restore_world(&rc, &mut pool, &mut transport, &bad);
        }
    }

    #[test]
    fn restore_rejects_a_foreign_platform_salt() {
        // A checkpoint captured under one platform namespace must never
        // restore into a world stamped with another — the typed
        // ScopeMismatch, not a decode attempt.
        let (p, entry) = stepped_allreduce(2);
        let dist_like = World::new(&p, 2).with_ckpt_salt(0xD157_0000_0000_0001);
        let mut args = |_: u32, _: &mut Machine| Ok(vec![]);
        let (mut pool, ctls, mut transport) = test_pool(&dist_like, entry, &mut args);
        let wc =
            runtime::capture_world(&dist_like.run_cfg(), &mut pool, &ctls, &transport).unwrap();
        let mpi_like = World::new(&p, 2);
        let err = runtime::restore_world(&mpi_like.run_cfg(), &mut pool, &mut transport, &wc.bytes)
            .unwrap_err();
        let CkptError::ScopeMismatch { expected, found } = err else {
            panic!("expected ScopeMismatch, got {err}");
        };
        assert_eq!(expected, 0);
        assert_eq!(found, 0xD157_0000_0000_0001);
    }

    #[test]
    fn warm_start_refuses_a_foreign_platform_chain() {
        // A *valid* persisted chain from another platform namespace must
        // fail fast (typed), not be restored and not be overwritten.
        let dir = std::env::temp_dir().join(format!("wj-scope-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.wckpt");
        let (p, entry) = stepped_allreduce(4);
        let policy = CheckpointPolicy::every(1).with_persist(&path);
        let salted = World::new(&p, 3).with_ckpt_salt(7);
        salted
            .run_with_restart(entry, |_, _| Ok(vec![]), &policy, 4)
            .unwrap();
        let before = std::fs::read(&path).unwrap();
        let foreign = World::new(&p, 3);
        let err = foreign
            .run_with_restart(entry, |_, _| Ok(vec![]), &policy, 4)
            .unwrap_err();
        let SimError::CheckpointScope { expected, found } = err else {
            panic!("expected CheckpointScope, got {err}");
        };
        assert_eq!(expected, 0);
        assert_eq!(found, 7);
        // The foreign chain file survives untouched.
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_recovers_a_crashing_world_bit_identically() {
        let (p, entry) = stepped_allreduce(10);
        let clean: Vec<Option<Val>> = World::new(&p, 4)
            .run(entry, |_, _| Ok(vec![]))
            .unwrap()
            .ranks
            .into_iter()
            .map(|r| r.result)
            .collect();
        // Find a seed whose crash-only plan kills the plain run, then show
        // the checkpointed run completes with the fault-free answer.
        let mut recovered = 0u32;
        for seed in 0..64u64 {
            let mut cfg = FaultConfig::seeded(0xC0DE + seed);
            cfg.crash = 0.004;
            let world = World::new(&p, 4).with_faults(cfg).with_timeout(5_000);
            let Err(SimError::Crash { .. }) = world.run(entry, |_, _| Ok(vec![])) else {
                continue;
            };
            let run = world
                .run_with_restart(entry, |_, _| Ok(vec![]), &CheckpointPolicy::every(1), 64)
                .expect("checkpointed world must recover from injected crashes");
            let got: Vec<Option<Val>> = run.ranks.into_iter().map(|r| r.result).collect();
            assert_eq!(got, clean, "seed {seed}: recovered result must match");
            assert!(run.restart.restarts >= 1, "seed {seed}");
            assert_eq!(run.restart.restarts, run.resilience.restarts);
            assert!(run.restart.checkpoints_taken >= 1, "seed {seed}");
            assert_eq!(
                run.restart.checkpoints_taken,
                run.resilience.checkpoints_taken
            );
            assert!(run.restart.ranks_rolled_back >= 1, "seed {seed}");
            assert!(run.resilience.crashes >= 1, "seed {seed}");
            recovered += 1;
            if recovered >= 3 {
                break;
            }
        }
        assert!(recovered >= 1, "no seed produced a plain-run crash");
    }

    #[test]
    fn restart_budget_exhaustion_returns_the_typed_error() {
        let (p, entry) = stepped_allreduce(6);
        let mut cfg = FaultConfig::seeded(5);
        cfg.crash = 1.0; // every attempt dies at its first draw
        let world = World::new(&p, 3).with_faults(cfg);
        let err = world
            .run_with_restart(entry, |_, _| Ok(vec![]), &CheckpointPolicy::every(1), 2)
            .unwrap_err();
        let SimError::Crash {
            rank, post_mortem, ..
        } = err
        else {
            panic!("expected Crash after budget exhaustion, got {err}");
        };
        assert!(rank < 3);
        assert!(
            post_mortem.contains("crashed at step"),
            "the last post-mortem must survive: {post_mortem}"
        );
    }

    #[test]
    fn restart_is_a_no_op_for_healthy_worlds() {
        let (p, entry) = stepped_allreduce(5);
        let plain = World::new(&p, 4).run(entry, |_, _| Ok(vec![])).unwrap();
        let ck = World::new(&p, 4)
            .run_with_restart(entry, |_, _| Ok(vec![]), &CheckpointPolicy::every(2), 8)
            .unwrap();
        assert_eq!(ck.restart.restarts, 0);
        assert_eq!(ck.restart.virtual_time_lost, 0);
        assert!(ck.restart.checkpoints_taken >= 1);
        let a: Vec<Option<Val>> = plain.ranks.into_iter().map(|r| r.result).collect();
        let b: Vec<Option<Val>> = ck.ranks.into_iter().map(|r| r.result).collect();
        assert_eq!(a, b);
        assert_eq!(plain.vtime, ck.vtime);
    }

    #[test]
    fn persisted_checkpoint_warm_restarts_and_corruption_degrades_cold() {
        let dir = std::env::temp_dir().join(format!("wj-wckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.wckpt");
        let (p, entry) = stepped_allreduce(6);
        let policy = CheckpointPolicy::every(1).with_persist(&path);
        let world = World::new(&p, 3);
        let expect = world
            .run_with_restart(entry, |_, _| Ok(vec![]), &policy, 4)
            .unwrap();
        assert!(path.exists(), "persist path must be written");
        // A fresh "process" (same world shape) warm-starts from the file
        // (the snapshot taken after the last collective) and must still
        // land on the same answers.
        let warm = world
            .run_with_restart(entry, |_, _| Ok(vec![]), &policy, 4)
            .unwrap();
        let a: Vec<Option<Val>> = expect.ranks.into_iter().map(|r| r.result).collect();
        let b: Vec<Option<Val>> = warm.ranks.into_iter().map(|r| r.result).collect();
        assert_eq!(a, b);
        // Corrupt the file: must degrade to a cold start, never panic.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let cold = world
            .run_with_restart(entry, |_, _| Ok(vec![]), &policy, 4)
            .unwrap();
        let c: Vec<Option<Val>> = cold.ranks.into_iter().map(|r| r.result).collect();
        assert_eq!(b, c);
        std::fs::remove_dir_all(&dir).ok();
    }
}

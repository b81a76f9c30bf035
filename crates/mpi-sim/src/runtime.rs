//! # runtime — the rank runtime behind [`World::run_on`]
//!
//! The cooperative scheduler extracted from the historical
//! `World::run`: the step loop, collective boundaries, fault hooks, and
//! checkpoint capture, parameterized over *where the ranks live*
//! ([`RankPool`]). Messages travel through the scheduler's own
//! in-memory queues (`InMemTransport`).
//!
//! `mpi-sim` itself drives a [`LocalPool`] (every rank an in-process
//! [`exec::Thread`]) — bit-identical to the pre-refactor monolith. The
//! `dist` backend drives the *same* scheduler over a pool of one OS
//! process per rank, reached across loopback TCP; because every
//! scheduling, cost-model, and fault-stream decision is made here, on
//! one side of the seam, the two backends produce bit-identical rank
//! outcomes by construction.
//!
//! The split of one historical `Rank` is:
//! - [`RankCtl`] — the scheduler-owned half (the three clocks and one
//!   [`RankState`]: ready, blocked, done or crashed), always on the
//!   driver side of the seam;
//! - the pool-owned half (thread, machine, device, fault stream), which
//!   may live in another process and is reached only through the
//!   [`RankPool`] methods.
//!
//! [`World::run_on`]: crate::World::run_on

use std::path::PathBuf;
use std::sync::Arc;

use exec::ckpt::chain::{self, Section};
use exec::ckpt::{self, CkptError};
use exec::fault::MAX_CONNECT_RETRIES;
use exec::pool::{self, Crew};
use exec::{
    run, ArrStore, Draw, ExecError, Fate, FaultPlan, HostRegistry, Image, Machine, MemSpace,
    ResilienceStats, Thread, Val, Yield,
};
use gpu_sim::{Gpu, GpuErrorKind};
use nir::codec::{Reader, Wire, Writer};
use nir::{FuncId, IntrinOp, Program};

use crate::transport::InMemTransport;
use crate::{
    device_fault_config, err_on, CheckpointPolicy, CostModel, RankOutcome, RestartStats, Schedule,
    SimError, World, WorldRun,
};

/// Per-rank entry-argument builder: rank id + its machine -> entry args.
pub type ArgBuilder<'a> = &'a mut dyn FnMut(u32, &mut Machine) -> Result<Vec<Val>, String>;

/// The scheduler's side of one world run, handed to
/// [`RankPool::wrap_run`].
pub type WorldBody<'b> = dyn FnMut(&mut dyn RankPool) -> Result<WorldRun, SimError> + 'b;

/// What a rank is blocked on, scheduler-side. A collective's variant is
/// the rank's whole part in the rendezvous: a collective completes when
/// every live rank is blocked on the same kind of collective, and no
/// other record of who has arrived exists.
#[derive(Debug, Clone, Copy)]
pub enum Blocked {
    Recv {
        buf: u32,
        off: usize,
        count: usize,
        src: u32,
        tag: i32,
    },
    Barrier,
    /// `op` is the allreduce intrinsic; `v` is the rank's contribution,
    /// after its fault draw.
    Allreduce {
        op: IntrinOp,
        v: Val,
    },
    Bcast {
        buf: u32,
        off: usize,
        count: usize,
        root: u32,
    },
}

/// Where one rank is, scheduler-side.
#[derive(Debug, Clone, Default)]
pub enum RankState {
    /// Runnable: the next round runs it for a slice.
    #[default]
    Ready,
    Blocked(Blocked),
    /// Returned from its entry, with the entry's result.
    Done(Option<Val>),
    /// Killed by an injected fault at this step count.
    Crashed(u64),
}

/// The scheduler-owned half of one rank: its virtual clocks and its
/// [`RankState`]. The execution state behind it (thread, machine,
/// device, fault stream) lives in the [`RankPool`]. Only this type's
/// methods move the clocks, so `vclock == compute_cycles + comm_cycles`
/// holds by construction.
#[derive(Debug, Clone, Default)]
pub struct RankCtl {
    pub vclock: u64,
    pub compute_cycles: u64,
    pub comm_cycles: u64,
    pub state: RankState,
    /// Consecutive scheduler rounds spent in the current blocked state
    /// (the per-collective timeout clock).
    pub blocked_rounds: u64,
}

impl RankCtl {
    /// Not yet returned. A crashed rank is live: it holds back every
    /// collective until the world fails or rolls back.
    pub fn is_live(&self) -> bool {
        !matches!(self.state, RankState::Done(_))
    }

    /// The entry's result, once the rank has returned one.
    pub fn result(&self) -> Option<Val> {
        match self.state {
            RankState::Done(v) => v,
            _ => None,
        }
    }

    fn blocked(&self) -> Option<&Blocked> {
        match &self.state {
            RankState::Blocked(b) => Some(b),
            _ => None,
        }
    }

    /// Charge `d` cycles of computation.
    fn compute(&mut self, d: u64) {
        self.vclock += d;
        self.compute_cycles += d;
    }

    /// Charge `d` cycles of communication (a device or host-call wait
    /// counts as one).
    fn wait(&mut self, d: u64) {
        self.vclock += d;
        self.comm_cycles += d;
    }

    /// Wait until virtual time `t`; a clock already past `t` stays.
    fn wait_until(&mut self, t: u64) {
        self.wait(t.saturating_sub(self.vclock));
    }
}

/// What one scheduling slice ended with, as seen across the pool seam.
/// Device and host-call yields keep their operands pool-side (they never
/// need to cross the seam); MPI yields surface their operands because
/// the scheduler itself services them.
#[derive(Debug)]
pub enum RankYield {
    Done(Option<Val>),
    OutOfFuel,
    Crashed {
        step: u64,
    },
    /// `__syncthreads` / `__shared__` outside a kernel launch.
    Misplaced,
    /// A device yield (kernel launch or GPU memory op) is pending;
    /// service it with [`RankPool::service_device`].
    Device,
    /// A host-FFI call is pending; service it with
    /// [`RankPool::service_host`].
    HostCall,
    Mpi {
        op: IntrinOp,
        args: Vec<Val>,
    },
}

nir::wire_enum!(RankYield {
    0 = Done(result),
    1 = OutOfFuel,
    2 = Crashed { step },
    3 = Misplaced,
    4 = Device,
    5 = HostCall,
    6 = Mpi { op, args },
});

/// Result of servicing a pending device yield.
#[derive(Debug, Clone, Copy)]
pub enum DeviceOutcome {
    /// Device time consumed; charge it to the rank's clock as
    /// communication (the host blocks on the device).
    Advance(u64),
    /// An injected device fault killed the rank at this step.
    Crashed(u64),
}

nir::wire_enum!(DeviceOutcome { 0 = Advance(cycles), 1 = Crashed(step) });

/// One rank's checkpoint sections: call stack, one section per heap
/// array, the rest of the machine, and any device state — the same
/// layout the pre-refactor `world_sections` produced per rank.
#[derive(Debug)]
pub struct RankSnapshot {
    /// The rank's interpreter cycle watermark (slice accounting).
    pub last_cycles: u64,
    pub has_gpu: bool,
    /// `thread, array*, machine_rest[, device]` in order.
    pub sections: Vec<Section>,
}

nir::wire_struct!(RankSnapshot {
    last_cycles,
    has_gpu,
    sections
});

impl RankSnapshot {
    /// How many array sections sit between the thread and the machine
    /// section; `None` when there are too few sections for the layout
    /// (a snapshot off the wire is outside input).
    pub fn n_arrays(&self) -> Option<usize> {
        self.sections
            .len()
            .checked_sub(2 + usize::from(self.has_gpu))
    }
}

/// Where ranks live. [`LocalPool`] keeps them in-process (the `mpi-sim`
/// backend); the `dist` backend reaches one OS process per rank over
/// loopback TCP. Every method is one scheduler-initiated operation, on
/// one rank or (`reinit`, `run_slices`, `finish`) on many;
/// implementations must be deterministic given the same call sequence —
/// cross-backend bit-identity depends on it.
pub trait RankPool {
    /// Run one whole world — every attempt of it, restarts included — on
    /// this pool: `run` is the scheduler, handed the pool back. A pool
    /// sets up what lives as long as the run here; the local pool builds
    /// its image and opens its worker crew, any other pool just calls
    /// `run(self)`.
    fn wrap_run(&mut self, run: &mut WorldBody<'_>) -> Result<WorldRun, SimError>;
    /// (Re-)create every rank from scratch: fresh machines, fresh entry
    /// args, fresh fault streams — the cold-start path.
    fn reinit(&mut self) -> Result<(), SimError>;
    /// Called once per restart attempt before any restore: a chance to
    /// respawn dead workers. No-op for in-process pools.
    fn prepare_resume(&mut self) -> Result<(), SimError> {
        Ok(())
    }
    /// Run one scheduler round's ready ranks for one fuel slice each,
    /// returning `(rank, yield, delta)` in *service order* — the order
    /// the scheduler must apply the yields in; `delta` is the cycles
    /// retired (already watermarked pool-side). A pool may run the
    /// slices concurrently: a slice only touches its own rank's state,
    /// and all cross-rank effects happen when the *scheduler* services
    /// the returned yields.
    fn run_slices(
        &mut self,
        ranks: &[u32],
        slice: u64,
    ) -> Result<Vec<(u32, RankYield, u64)>, SimError>;
    /// Resume a blocked/yielded rank with a value.
    fn resume(&mut self, r: u32, v: Val) -> Result<(), SimError>;
    /// Service the pending device yield stashed by
    /// [`RankYield::Device`].
    fn service_device(&mut self, r: u32) -> Result<DeviceOutcome, SimError>;
    /// Service the pending host-FFI yield stashed by
    /// [`RankYield::HostCall`]; returns the injected-retry backoff
    /// cycles to charge to the rank's clock.
    fn service_host(&mut self, r: u32) -> Result<u64, SimError>;
    /// Read `count` floats out of rank `r`'s array `buf` at `off`.
    /// Errors come back located at the rank's current yield site.
    fn read_floats(
        &mut self,
        r: u32,
        buf: u32,
        off: usize,
        count: usize,
    ) -> Result<Vec<f32>, SimError>;
    /// Write a float payload into rank `r`'s array `buf` at `off`.
    fn write_floats(
        &mut self,
        r: u32,
        buf: u32,
        off: usize,
        payload: &[f32],
    ) -> Result<(), SimError>;
    /// The (func, pc) rank `r`'s thread is yielded at — error context.
    fn location(&mut self, r: u32) -> Option<(String, u32)>;
    /// Draw one fault decision from rank `r`'s stream
    /// ([`FaultPlan::draw`]). The stream is a pool method because its
    /// cursor lives in the rank's machine state, so checkpoints capture
    /// it; a rank without a plan answers [`Fate::default`] and consumes
    /// nothing.
    fn draw(&mut self, r: u32, kind: Draw) -> Result<Fate, SimError>;
    /// Capture rank `r`'s execution state as checkpoint sections.
    fn capture_rank(&mut self, r: u32) -> Result<RankSnapshot, SimError>;
    /// Replace rank `r`'s execution state with a snapshot
    /// [`RankPool::capture_rank`] returned.
    fn restore_rank(&mut self, r: u32, snap: RankSnapshot) -> Result<(), CkptError>;
    /// Zero rank `r`'s fault counters and move its streams past their
    /// consumed cursors (restart attempt `attempt`).
    fn reseed(&mut self, r: u32, attempt: u64) -> Result<(), SimError>;
    /// Rank `r`'s fault/recovery counters (host plan + device merged).
    fn stats(&mut self, r: u32) -> Result<ResilienceStats, SimError>;
    /// Drain the pool into final per-rank outcomes. The pool is empty
    /// afterwards; [`RankPool::reinit`] brings it back.
    fn finish(&mut self, ctls: &[RankCtl]) -> Result<Vec<RankOutcome>, SimError>;
}

/// xorshift64* step for the seeded scheduler permutation.
fn sched_next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The (function, pc) of the instruction a yielded thread is stopped at —
/// the yield bumped the pc first, so the faulting instruction is `pc - 1`.
/// Used to give intrinsic-path errors the same location context the
/// interpreter loop attaches to its own.
fn yield_location(program: &Program, thread: &Thread) -> Option<(String, u32)> {
    thread
        .frame_location()
        .map(|(f, pc)| (program.func(f).name.clone(), pc.saturating_sub(1)))
}

/// Attach a yield location to a context-free [`ExecError`].
fn locate(e: impl Into<ExecError>, loc: &Option<(String, u32)>) -> ExecError {
    let e = e.into();
    match loc {
        Some((func, pc)) => e.at(func, *pc),
        None => e,
    }
}

/// A rank error located at the rank's current yield site (fetched from
/// the pool only on this error path).
fn located(pool: &mut dyn RankPool, r: u32, e: impl Into<ExecError>) -> SimError {
    let loc = pool.location(r);
    err_on(r, locate(e, &loc))
}

/// Flip a mantissa bit of a float contribution (deterministic payload
/// corruption for collectives).
fn corrupt_val(v: Val) -> Val {
    match v {
        Val::F32(x) => Val::F32(f32::from_bits(x.to_bits() ^ (1 << 21))),
        Val::F64(x) => Val::F64(f64::from_bits(x.to_bits() ^ (1 << 40))),
        other => other,
    }
}

/// Fold the allreduce contributions in `ctls` under `op` **in rank
/// order**, not arrival order. Ranks reach the collective in
/// schedule-dependent order; reading the contributions by rank id makes
/// the float reduction's association (and so its exact bits) a function
/// of the world alone — the property the backend-matrix sweep asserts
/// across schedules and platforms.
fn combine(op: IntrinOp, ctls: &[RankCtl]) -> Result<Val, ExecError> {
    let mut vs = ctls.iter().filter_map(|c| match c.blocked() {
        Some(Blocked::Allreduce { v, .. }) => Some(*v),
        _ => None,
    });
    Ok(match op {
        IntrinOp::MpiAllreduceSumF64 => {
            Val::F64(vs.try_fold(0.0f64, |s, v| v.as_f64().map(|x| s + x))?)
        }
        IntrinOp::MpiAllreduceSumF32 => {
            Val::F32(vs.try_fold(0.0f32, |s, v| v.as_f32().map(|x| s + x))?)
        }
        IntrinOp::MpiAllreduceMaxF64 => {
            Val::F64(vs.try_fold(f64::NEG_INFINITY, |m, v| v.as_f64().map(|x| m.max(x)))?)
        }
        other => return Err(ExecError::msg(format!("{other:?} is no allreduce"))),
    })
}

/// Point-to-point / broadcast payload cost: `alpha + beta·bytes`.
fn msg_cost(cost: &CostModel, bytes: u64) -> u64 {
    cost.alpha + (bytes as f64 * cost.beta) as u64
}

/// Raw machine-side float read (context-free error; the pool attaches
/// the yield location). An offset arriving from the `dist` wire is any
/// `u64`, so the range end is a checked sum; the message prints it exact.
fn read_floats(
    machine: &Machine,
    buf: u32,
    off: usize,
    count: usize,
) -> Result<Vec<f32>, ExecError> {
    match machine.mem.arr(buf)? {
        ArrStore::F32(v) => off
            .checked_add(count)
            .and_then(|end| v.get(off..end))
            .map(|s| s.to_vec())
            .ok_or_else(|| {
                ExecError::msg(format!(
                    "send range {off}..{} out of bounds (len {})",
                    off as u128 + count as u128,
                    v.len()
                ))
            }),
        other => Err(ExecError::msg(format!(
            "MPI float op on non-float array: {other}"
        ))),
    }
}

/// Raw machine-side float write (see [`read_floats`]).
fn write_floats(
    machine: &mut Machine,
    buf: u32,
    off: usize,
    payload: &[f32],
) -> Result<(), ExecError> {
    match machine.mem.arr_mut(buf)? {
        ArrStore::F32(v) => {
            let vlen = v.len();
            let range = off.checked_add(payload.len());
            let tgt = range.and_then(|end| v.get_mut(off..end)).ok_or_else(|| {
                ExecError::msg(format!(
                    "recv range {off}..{} out of bounds (len {vlen})",
                    off as u128 + payload.len() as u128
                ))
            })?;
            tgt.copy_from_slice(payload);
            Ok(())
        }
        other => Err(ExecError::msg(format!(
            "MPI float op on non-float array: {other}"
        ))),
    }
}

/// Service a device yield (kernel launch or GPU memory op) against one
/// rank's thread/machine/device triple.
///
/// A successful launch does **not** resume the thread (the interpreter
/// continues past the launch on its own); GPU memory ops resume with
/// their result. `args` has the operand count `exec::Image::build`
/// checked for `op` (`nir::IntrinOp::check_operands`), so it is indexed by
/// position.
pub(crate) fn service_device_yield(
    image: &Image<'_>,
    thread: &mut Thread,
    machine: &mut Machine,
    gpu: &mut Option<Gpu>,
    r: u32,
    y: Yield,
) -> Result<DeviceOutcome, SimError> {
    match y {
        Yield::Launch {
            kernel,
            grid,
            block,
            args,
        } => {
            let gpu = gpu
                .as_mut()
                .ok_or_else(|| err_on(r, "kernel launch but no GPU configured for this run"))?;
            match gpu.launch(image, kernel, grid, block, args) {
                Ok(stats) => Ok(DeviceOutcome::Advance(stats.kernel_time)),
                // An injected device fault kills the rank (typed),
                // exactly like a host-side crash — the restart path can
                // recover it.
                Err(e) if e.is_injected() => {
                    let GpuErrorKind::InjectedCrash { step, .. } = e.kind else {
                        unreachable!()
                    };
                    Ok(DeviceOutcome::Crashed(step))
                }
                Err(e) => Err(err_on(r, e.to_string())),
            }
        }
        Yield::GpuMem { op, args } => {
            let loc = yield_location(image.program(), thread);
            let gpu = gpu.as_mut().ok_or_else(|| {
                err_on(
                    r,
                    format!("GPU operation {op:?} but no GPU configured for this run"),
                )
            })?;
            let before = gpu.vtime;
            // A range copy's offsets and length: a negative one is refused
            // here, typed, before it can become a huge `usize`.
            let range_operand = |v: Val, what: &str| -> Result<usize, SimError> {
                let n = v.as_i32().map_err(|m| err_on(r, locate(m, &loc)))?;
                usize::try_from(n).map_err(|_| {
                    err_on(r, locate(format!("negative device range {what} {n}"), &loc))
                })
            };
            let result = match op {
                IntrinOp::CopyToGpu => {
                    let host = args[0].as_arr().map_err(|m| err_on(r, locate(m, &loc)))?;
                    let store = machine
                        .mem
                        .arr(host)
                        .map_err(|m| err_on(r, locate(m, &loc)))?
                        .clone();
                    let dev = gpu.copy_in(&store).map_err(|e| err_on(r, e.to_string()))?;
                    Val::Arr(dev)
                }
                IntrinOp::CopyFromGpu => {
                    let host = args[0].as_arr().map_err(|m| err_on(r, locate(m, &loc)))?;
                    let dev = args[1].as_arr().map_err(|m| err_on(r, locate(m, &loc)))?;
                    let mut tmp = machine
                        .mem
                        .arr(host)
                        .map_err(|m| err_on(r, locate(m, &loc)))?
                        .clone();
                    gpu.copy_out(dev, &mut tmp)
                        .map_err(|e| err_on(r, e.to_string()))?;
                    *machine
                        .mem
                        .arr_mut(host)
                        .map_err(|m| err_on(r, locate(m, &loc)))? = tmp;
                    Val::Unit
                }
                IntrinOp::CopyToGpuRange => {
                    // (dev, devOff, host, hostOff, len)
                    let dev = args[0].as_arr().map_err(|m| err_on(r, locate(m, &loc)))?;
                    let doff = range_operand(args[1], "offset")?;
                    let host = args[2].as_arr().map_err(|m| err_on(r, locate(m, &loc)))?;
                    let hoff = range_operand(args[3], "offset")?;
                    let len = range_operand(args[4], "length")?;
                    let payload = read_floats(machine, host, hoff, len)
                        .map_err(|m| err_on(r, locate(m, &loc)))?;
                    gpu.write_range(dev, doff, &payload)
                        .map_err(|e| err_on(r, e.to_string()))?;
                    Val::Unit
                }
                IntrinOp::CopyFromGpuRange => {
                    // (host, hostOff, dev, devOff, len)
                    let host = args[0].as_arr().map_err(|m| err_on(r, locate(m, &loc)))?;
                    let hoff = range_operand(args[1], "offset")?;
                    let dev = args[2].as_arr().map_err(|m| err_on(r, locate(m, &loc)))?;
                    let doff = range_operand(args[3], "offset")?;
                    let len = range_operand(args[4], "length")?;
                    let payload = gpu
                        .read_range(dev, doff, len)
                        .map_err(|e| err_on(r, e.to_string()))?;
                    write_floats(machine, host, hoff, &payload)
                        .map_err(|m| err_on(r, locate(m, &loc)))?;
                    Val::Unit
                }
                IntrinOp::GpuAllocF32 => {
                    let n = args[0].as_i32().map_err(|m| err_on(r, locate(m, &loc)))?;
                    if n < 0 {
                        return Err(err_on(r, "negative device allocation"));
                    }
                    Val::Arr(gpu.alloc_f32(n as usize))
                }
                IntrinOp::GpuFree => {
                    let dev = args[0].as_arr().map_err(|m| err_on(r, locate(m, &loc)))?;
                    gpu.free(dev).map_err(|e| err_on(r, e.to_string()))?;
                    Val::Unit
                }
                other => {
                    return Err(err_on(
                        r,
                        format!("CUDA thread register {other:?} read outside a kernel"),
                    ))
                }
            };
            thread
                .resume_with(image.program(), result)
                .map_err(|e| err_on(r, e.to_string()))?;
            Ok(DeviceOutcome::Advance(gpu.vtime - before))
        }
        _ => Err(err_on(r, "device service on a non-device yield")),
    }
}

/// Service a host-FFI yield: resolve the foreign function, survive the
/// injected-transient retry loop (exponential virtual-time backoff up to
/// the configured budget), call it, resume the thread with the result.
/// Returns the total backoff cycles to charge to the rank's clock.
fn service_host_yield(
    program: &Program,
    registry: Option<&HostRegistry>,
    thread: &mut Thread,
    machine: &mut Machine,
    r: u32,
    host: u32,
    args: Vec<Val>,
) -> Result<u64, SimError> {
    let loc = yield_location(program, thread);
    let sig = program
        .host_fns
        .get(host as usize)
        .ok_or_else(|| err_on(r, locate("unknown host function", &loc)))?;
    let registry = registry.ok_or_else(|| {
        err_on(
            r,
            locate(
                format!(
                    "foreign function `{}` called but no host registry configured",
                    sig.name
                ),
                &loc,
            ),
        )
    })?;
    let id = registry.id_of(&sig.name).ok_or_else(|| {
        err_on(
            r,
            locate(
                format!("foreign function `{}` is not registered", sig.name),
                &loc,
            ),
        )
    })?;
    // Transient host-FFI failures (injected) are retried with
    // exponential virtual-time backoff up to the configured budget; the
    // call itself only runs once the attempt survives the draw.
    let mut attempt: u32 = 0;
    let mut backoff_total: u64 = 0;
    while let Some(plan) = machine.fault.as_mut() {
        if !plan.host_attempt_fails() {
            break;
        }
        if attempt >= plan.config.max_host_retries {
            return Err(err_on(
                r,
                locate(
                    format!(
                        "foreign function `{}` failed {} times \
                         (injected transient errors, retry budget exhausted)",
                        sig.name,
                        attempt + 1
                    ),
                    &loc,
                ),
            ));
        }
        attempt += 1;
        plan.stats.host_retries += 1;
        backoff_total += plan.backoff_cycles(attempt);
    }
    let v = registry
        .call(id, &args, &mut machine.mem)
        .map_err(|m| err_on(r, format!("in `{}`: {}", sig.name, locate(m, &loc))))?;
    thread
        .resume_with(program, v)
        .map_err(|e| err_on(r, e.to_string()))?;
    Ok(backoff_total)
}

/// Enqueue an outgoing point-to-point message, applying the sending
/// rank's injected faults: first the payload fate (dropped messages are
/// lost in flight — the sender still pays the cost, it cannot tell;
/// corrupt ones arrive with a flipped payload bit; delayed ones become
/// available later in virtual time), then the framed-transport fate (a
/// truncated frame is rejected by the receiver's checksum and lost; a
/// delayed ack lands the delivery later). A dropped payload never
/// reaches the wire, so its transport fate is not drawn.
fn post_message(
    pool: &mut dyn RankPool,
    sender: &mut RankCtl,
    from: u32,
    dest: u32,
    tag: i32,
    mut payload: Vec<f32>,
    transport: &mut InMemTransport,
) -> Result<(), SimError> {
    let fate = pool.draw(from, Draw::Send)?;
    if fate.lost {
        return Ok(());
    }
    if fate.corrupt {
        exec::fault::corrupt_f32(&mut payload);
    }
    transport.post(from, dest, tag, payload, sender.vclock + fate.delay);
    Ok(())
}

/// An allreduce contribution, possibly corrupted or delayed by the
/// contributing rank's fault stream (delay pushes the rank's clock,
/// which delays the collective's completion time).
fn contribute(pool: &mut dyn RankPool, ctl: &mut RankCtl, r: u32, v: Val) -> Result<Val, SimError> {
    let fate = pool.draw(r, Draw::Collective)?;
    ctl.wait(fate.delay);
    Ok(if fate.corrupt { corrupt_val(v) } else { v })
}

/// Complete the collective the live ranks wait at, if every one of them
/// is blocked on the same kind; `Ok(false)` when they are not (most
/// rounds — the check allocates nothing). The completion time is the
/// latest participant clock + base cost + a log2(size) latency term,
/// plus, for a broadcast, the payload's cost and its injected delay.
/// Each participant waits until then and resumes in rank order with the
/// collective's value: unit for a barrier, the rank-ordered fold for an
/// allreduce ([`combine`]), unit after the root's payload is copied in
/// for a broadcast. A broadcast makes one fault draw, from the root's
/// stream (collectives corrupt or delay — a dropped collective is a
/// crash, not a message fault).
fn complete_collective(
    cfg: &World<'_>,
    pool: &mut dyn RankPool,
    ctls: &mut [RankCtl],
) -> Result<bool, SimError> {
    let mut live = ctls.iter().filter(|c| c.is_live());
    let Some(first) = live.next().and_then(RankCtl::blocked) else {
        return Ok(false);
    };
    let kind = std::mem::discriminant(first);
    if matches!(first, Blocked::Recv { .. })
        || !live.all(|c| {
            c.blocked()
                .is_some_and(|b| std::mem::discriminant(b) == kind)
        })
    {
        return Ok(false);
    }
    if let Some(message) = disagreement(first, ctls) {
        return Err(SimError::World { message });
    }
    let first = *first;
    let latest = ctls
        .iter()
        .filter(|c| c.is_live())
        .map(|c| c.vclock)
        .max()
        .unwrap_or(0);
    let log2 = 32 - (cfg.size.max(1)).leading_zeros() as u64;
    let mut t = latest + cfg.cost.collective_alpha + cfg.cost.alpha * log2;
    let value = match first {
        Blocked::Allreduce { op, .. } => combine(op, ctls).map_err(|m| SimError::World {
            message: m.to_string(),
        })?,
        Blocked::Bcast { root, .. } => {
            let Some(&Blocked::Bcast {
                buf, off, count, ..
            }) = ctls[root as usize].blocked()
            else {
                return Err(err_on(root, "bcast root is not at the bcast"));
            };
            let mut payload = pool.read_floats(root, buf, off, count)?;
            let fate = pool.draw(root, Draw::Collective)?;
            if fate.corrupt {
                exec::fault::corrupt_f32(&mut payload);
            }
            for (r, ctl) in ctls.iter().enumerate() {
                if let Some(&Blocked::Bcast { buf, off, .. }) = ctl.blocked() {
                    if r as u32 != root {
                        pool.write_floats(r as u32, buf, off, &payload)?;
                    }
                }
            }
            t += msg_cost(&cfg.cost, (count * 4) as u64) + fate.delay;
            Val::Unit
        }
        _ => Val::Unit,
    };
    for (r, ctl) in ctls.iter_mut().enumerate() {
        if ctl.is_live() {
            ctl.wait_until(t);
            ctl.state = RankState::Ready;
            pool.resume(r as u32, value)?;
        }
    }
    Ok(true)
}

/// Why the live ranks, every one blocked on the same kind of collective
/// as `first`, cannot complete it together: an allreduce whose ranks
/// passed different ops, or a broadcast whose ranks name different roots
/// or counts. MPI calls either program erroneous; here it is a typed
/// error naming each rank and what it passed. `None` when they agree.
fn disagreement(first: &Blocked, ctls: &[RankCtl]) -> Option<String> {
    let agrees = |b: &Blocked| match (b, first) {
        (Blocked::Allreduce { op, .. }, Blocked::Allreduce { op: want, .. }) => op == want,
        (
            Blocked::Bcast { root, count, .. },
            Blocked::Bcast {
                root: want_root,
                count: want_count,
                ..
            },
        ) => (root, count) == (want_root, want_count),
        _ => true,
    };
    let blocked = || {
        ctls.iter()
            .enumerate()
            .filter_map(|(r, c)| Some((r, c.blocked()?)))
    };
    if blocked().all(|(_, b)| agrees(b)) {
        return None;
    }
    let kind = match first {
        Blocked::Allreduce { .. } => "an allreduce",
        _ => "a broadcast",
    };
    let what = |b: &Blocked| match *b {
        Blocked::Allreduce { op, .. } => op
            .row()
            .map_or_else(|| format!("{op:?}"), |row| row.key.to_string()),
        Blocked::Bcast { root, count, .. } => format!("root {root}, count {count}"),
        other => format!("{other:?}"),
    };
    let passed: Vec<String> = blocked()
        .map(|(r, b)| format!("rank {r} passed {}", what(b)))
        .collect();
    Some(format!("ranks disagree at {kind}: {}", passed.join("; ")))
}

/// One line per rank describing its state — the post-mortem attached to
/// deadlock, timeout, and crash errors. `Recv` lines include the
/// waited-on source/tag and the pending queue depths, so a mismatched
/// send/recv pair is diagnosable from the error text alone.
fn world_report(ctls: &[RankCtl], transport: &InMemTransport) -> String {
    ctls.iter()
        .enumerate()
        .map(|(i, rk)| {
            let state = match &rk.state {
                RankState::Crashed(step) => format!("crashed at step {step} (injected fault)"),
                RankState::Done(_) => "done".to_string(),
                RankState::Blocked(Blocked::Recv {
                    src, tag, count, ..
                }) => {
                    let matching = transport.queued(*src, i as u32, *tag);
                    let inbound = transport.inbound_total(i as u32);
                    format!(
                        "blocked on Recv {{ {count} floats from rank {src}, tag {tag} }} \
                         ({matching} matching queued, {inbound} inbound total)"
                    )
                }
                RankState::Blocked(Blocked::Barrier) => "blocked on Barrier".to_string(),
                RankState::Blocked(Blocked::Allreduce { .. }) => "blocked on Allreduce".to_string(),
                RankState::Blocked(Blocked::Bcast { root, count, .. }) => {
                    format!("blocked on Bcast {{ {count} floats, root {root} }}")
                }
                RankState::Ready => format!("runnable (vclock {})", rk.vclock),
            };
            format!("rank {i}: {state}")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// `v` as an in-range rank id, or a located typed error.
fn check_rank(pool: &mut dyn RankPool, size: u32, r: u32, v: i32) -> Result<u32, SimError> {
    if v < 0 || v as u32 >= size {
        Err(located(
            pool,
            r,
            format!("rank {v} out of range (world size {size})"),
        ))
    } else {
        Ok(v as u32)
    }
}

/// An MPI range offset or count as a `usize`. A negative one is refused
/// here, typed and located, before it can become a huge `usize`.
fn mpi_range(pool: &mut dyn RankPool, r: u32, v: Val, what: &str) -> Result<usize, SimError> {
    let n = v.as_i32().map_err(|m| located(pool, r, m))?;
    usize::try_from(n).map_err(|_| located(pool, r, format!("negative MPI range {what} {n}")))
}

/// Service one MPI yield: a point-to-point op runs here, reading and
/// writing rank memory through the pool seam; a receive or collective
/// only sets the rank's [`RankState`], which `drive` completes. `args`
/// has the operand count `exec::Image::build` checked for `op`
/// (`nir::IntrinOp::check_operands`), so it is indexed by position.
fn service_mpi(
    cfg: &World<'_>,
    pool: &mut dyn RankPool,
    ctls: &mut [RankCtl],
    r: u32,
    op: IntrinOp,
    args: Vec<Val>,
    transport: &mut InMemTransport,
) -> Result<(), SimError> {
    let ri = r as usize;
    match op {
        IntrinOp::MpiRank => {
            pool.resume(r, Val::I32(r as i32))?;
        }
        IntrinOp::MpiSize => {
            pool.resume(r, Val::I32(cfg.size as i32))?;
        }
        IntrinOp::MpiBarrier => {
            ctls[ri].state = RankState::Blocked(Blocked::Barrier);
        }
        IntrinOp::MpiSendF32 => {
            // sendF(buf, off, count, dest, tag)
            let buf = args[0].as_arr().map_err(|m| located(pool, r, m))?;
            let off = mpi_range(pool, r, args[1], "offset")?;
            let count = mpi_range(pool, r, args[2], "count")?;
            let dest_raw = args[3].as_i32().map_err(|m| located(pool, r, m))?;
            let dest = check_rank(pool, cfg.size, r, dest_raw)?;
            let tag = args[4].as_i32().map_err(|m| located(pool, r, m))?;
            let payload = pool.read_floats(r, buf, off, count)?;
            ctls[ri].wait(msg_cost(&cfg.cost, (count * 4) as u64));
            post_message(pool, &mut ctls[ri], r, dest, tag, payload, transport)?;
            pool.resume(r, Val::Unit)?;
        }
        IntrinOp::MpiRecvF32 => {
            // recvF(buf, off, count, src, tag)
            let buf = args[0].as_arr().map_err(|m| located(pool, r, m))?;
            let off = mpi_range(pool, r, args[1], "offset")?;
            let count = mpi_range(pool, r, args[2], "count")?;
            let src_raw = args[3].as_i32().map_err(|m| located(pool, r, m))?;
            let src = check_rank(pool, cfg.size, r, src_raw)?;
            let tag = args[4].as_i32().map_err(|m| located(pool, r, m))?;
            ctls[ri].state = RankState::Blocked(Blocked::Recv {
                buf,
                off,
                count,
                src,
                tag,
            });
        }
        IntrinOp::MpiSendRecvF32 => {
            // sendrecvF(sbuf, soff, count, dest, rbuf, roff, src, tag)
            let sbuf = args[0].as_arr().map_err(|m| located(pool, r, m))?;
            let soff = mpi_range(pool, r, args[1], "offset")?;
            let count = mpi_range(pool, r, args[2], "count")?;
            let dest_raw = args[3].as_i32().map_err(|m| located(pool, r, m))?;
            let dest = check_rank(pool, cfg.size, r, dest_raw)?;
            let rbuf = args[4].as_arr().map_err(|m| located(pool, r, m))?;
            let roff = mpi_range(pool, r, args[5], "offset")?;
            let src_raw = args[6].as_i32().map_err(|m| located(pool, r, m))?;
            let src = check_rank(pool, cfg.size, r, src_raw)?;
            let tag = args[7].as_i32().map_err(|m| located(pool, r, m))?;
            let payload = pool.read_floats(r, sbuf, soff, count)?;
            ctls[ri].wait(msg_cost(&cfg.cost, (count * 4) as u64));
            post_message(pool, &mut ctls[ri], r, dest, tag, payload, transport)?;
            ctls[ri].state = RankState::Blocked(Blocked::Recv {
                buf: rbuf,
                off: roff,
                count,
                src,
                tag,
            });
        }
        IntrinOp::MpiBcastF32 => {
            // bcastF(buf, off, count, root)
            let buf = args[0].as_arr().map_err(|m| located(pool, r, m))?;
            let off = mpi_range(pool, r, args[1], "offset")?;
            let count = mpi_range(pool, r, args[2], "count")?;
            let root_raw = args[3].as_i32().map_err(|m| located(pool, r, m))?;
            let root = check_rank(pool, cfg.size, r, root_raw)?;
            ctls[ri].state = RankState::Blocked(Blocked::Bcast {
                buf,
                off,
                count,
                root,
            });
        }
        IntrinOp::MpiAllreduceSumF64
        | IntrinOp::MpiAllreduceSumF32
        | IntrinOp::MpiAllreduceMaxF64 => {
            let v = contribute(pool, &mut ctls[ri], r, args[0])?;
            ctls[ri].state = RankState::Blocked(Blocked::Allreduce { op, v });
        }
        other => return Err(err_on(r, format!("unexpected MPI op {other:?}"))),
    }
    Ok(())
}

/// Decompose the world into the ordered byte sections a checkpoint chain
/// diffs over: one header section (scope salt, sizes, clocks,
/// completion), then each rank's [`RankSnapshot`] sections, and finally
/// the transport's in-flight snapshot. Only ever called at a collective
/// boundary, where all live ranks' clocks are synchronized and no
/// collective is partially complete.
fn world_sections(
    cfg: &World<'_>,
    pool: &mut dyn RankPool,
    ctls: &[RankCtl],
    transport: &InMemTransport,
) -> Result<Vec<Section>, SimError> {
    // Eight bytes of salt, a size and a count, then per rank at most 47:
    // the state tag and its value, four clocks, the device flag and the
    // array count.
    let mut header = Writer::with_capacity(16 + 47 * ctls.len());
    // The platform scope stamp leads the header so a foreign chain is
    // rejected before any state is decoded.
    header.u64(cfg.ckpt_salt);
    header.u32(cfg.size);
    header.len(ctls.len());
    let mut body: Vec<Section> = Vec::new();
    for (r, ctl) in ctls.iter().enumerate() {
        let snap = pool.capture_rank(r as u32)?;
        match &ctl.state {
            RankState::Done(None) => header.u8(1),
            RankState::Done(Some(v)) => {
                header.u8(2);
                v.put(&mut header);
            }
            _ => header.u8(0),
        }
        header.u64(ctl.vclock);
        header.u64(ctl.compute_cycles);
        header.u64(ctl.comm_cycles);
        header.u64(snap.last_cycles);
        header.bool(snap.has_gpu);
        // Count of sections elsewhere — not a same-buffer length, so
        // it must not go through the reader's `len()` sanity bound.
        let n_arrays = snap
            .n_arrays()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| SimError::World {
                message: format!(
                    "rank {r} captured {} sections, which fit no snapshot layout",
                    snap.sections.len()
                ),
            })?;
        header.u32(n_arrays);
        body.extend(snap.sections);
    }
    let mut sections = Vec::with_capacity(body.len() + 2);
    sections.push(header.into_bytes().into());
    sections.append(&mut body);
    sections.push(transport.snapshot().into());
    Ok(sections)
}

/// Decode resolved chain sections back into scheduler state, restoring
/// each rank's execution state through the pool. Every failure mode —
/// truncation, corruption, version/topology skew, a foreign platform
/// salt — is a typed [`CkptError`], never a panic.
fn world_from_sections(
    cfg: &World<'_>,
    pool: &mut dyn RankPool,
    transport: &mut InMemTransport,
    sections: &[Section],
) -> Result<Vec<RankCtl>, CkptError> {
    fn bad(message: impl Into<String>) -> CkptError {
        CkptError::Corrupt {
            offset: 0,
            message: message.into(),
        }
    }
    let mut h = Reader::new(sections.first().ok_or_else(|| bad("empty snapshot"))?);
    let salt = h.u64()?;
    if salt != cfg.ckpt_salt {
        return Err(CkptError::ScopeMismatch {
            expected: cfg.ckpt_salt,
            found: salt,
        });
    }
    let size = h.u32()?;
    if size != cfg.size {
        return Err(bad(format!(
            "checkpoint is for a {size}-rank world, this world has {} ranks",
            cfg.size
        )));
    }
    let n = h.len()?;
    if n != cfg.size as usize {
        return Err(bad("rank count does not match world size"));
    }
    let mut ctls = Vec::with_capacity(n);
    let mut pos = 1usize;
    for rank_id in 0..n {
        let state = match h.u8()? {
            0 => RankState::Ready,
            1 => RankState::Done(None),
            2 => RankState::Done(Some(Val::get(&mut h)?)),
            t => return Err(bad(format!("bad rank-done tag {t:#x}"))),
        };
        let vclock = h.u64()?;
        let compute_cycles = h.u64()?;
        let comm_cycles = h.u64()?;
        let last_cycles = h.u64()?;
        let has_gpu = h.bool()?;
        let n_arrays = h.u32()? as usize;
        if n_arrays > sections.len() {
            return Err(bad(format!(
                "rank {rank_id} claims {n_arrays} arrays in a {}-section snapshot",
                sections.len()
            )));
        }
        let want = 2 + n_arrays + has_gpu as usize;
        if pos + want > sections.len() {
            return Err(bad(format!("missing sections of rank {rank_id}")));
        }
        let snap = RankSnapshot {
            last_cycles,
            has_gpu,
            sections: sections[pos..pos + want].to_vec(),
        };
        pool.restore_rank(rank_id as u32, snap)?;
        pos += want;
        ctls.push(RankCtl {
            vclock,
            compute_cycles,
            comm_cycles,
            state,
            blocked_rounds: 0,
        });
    }
    let msgs = sections
        .get(pos)
        .ok_or_else(|| bad("missing message section"))?;
    transport.restore(msgs)?;
    if pos + 1 != sections.len() {
        return Err(bad("trailing sections after world snapshot"));
    }
    Ok(ctls)
}

/// The platform scope salt a snapshot's header carries, or `None` when
/// it has none to read (such a chain degrades to a cold start instead of
/// failing the scope check).
fn snapshot_salt(sections: &[Section]) -> Option<u64> {
    Reader::new(sections.first()?).u64().ok()
}

/// Live checkpointing state threaded through the scheduler by
/// [`run_world_with_restart`]: the current chain epoch as a stack of
/// snapshots, base first, plus the incremental encoder positioned at its
/// top. Only a persisted chain's links are sealed and written; in
/// process, each entry is the snapshot a rollback restores, sharing every
/// section that did not change with the entry below it.
struct CkptState {
    every: u64,
    rebase_every: u64,
    write_alpha: u64,
    write_bytes_per_cycle: u64,
    persist: Option<PathBuf>,
    since_last: u64,
    chain: chain::ChainState,
    stack: Vec<chain::Resolved>,
    deltas_since_base: u64,
    latest_vtime: Option<u64>,
    taken: u64,
    deltas: u64,
    rebases: u64,
    bytes_written: u64,
    links_dropped: u64,
}

impl CkptState {
    fn new(policy: &CheckpointPolicy) -> Self {
        CkptState {
            every: policy.every.max(1) as u64,
            rebase_every: policy.rebase_every as u64,
            write_alpha: policy.write_alpha,
            write_bytes_per_cycle: policy.write_bytes_per_cycle,
            persist: policy.persist.clone(),
            since_last: 0,
            chain: chain::ChainState::new(),
            stack: Vec::new(),
            deltas_since_base: 0,
            latest_vtime: None,
            taken: 0,
            deltas: 0,
            rebases: 0,
            bytes_written: 0,
            links_dropped: 0,
        }
    }

    /// Seed the stack from the chain persisted at the policy's path, if
    /// any, resolving it once: every link is verified, a damaged or
    /// orphaned tail is dropped (counted), and a bad base leaves the
    /// stack empty — a cold start, never an error. A *valid* chain from
    /// a different platform namespace is the one hard stop.
    fn warm_start(&mut self, cfg: &World<'_>) -> Result<(), SimError> {
        let Some(path) = &self.persist else {
            return Ok(());
        };
        let links = crate::load_chain_files(path);
        let (resolved, _) = chain::resolve_all(&links);
        if let Some(found) = resolved
            .last()
            .and_then(|head| snapshot_salt(&head.sections))
        {
            if found != cfg.ckpt_salt {
                return Err(SimError::CheckpointScope {
                    expected: cfg.ckpt_salt,
                    found,
                });
            }
        }
        self.links_dropped += (links.len() - resolved.len()) as u64;
        self.stack = resolved;
        Ok(())
    }

    /// Called by the scheduler immediately after a collective completes —
    /// the only globally consistent cut points (see [`CheckpointPolicy`]).
    fn collective_completed(
        &mut self,
        cfg: &World<'_>,
        pool: &mut dyn RankPool,
        ctls: &mut [RankCtl],
        transport: &InMemTransport,
    ) -> Result<(), SimError> {
        self.since_last += 1;
        if self.since_last < self.every {
            return Ok(());
        }
        self.since_last = 0;
        // Injected checkpoint-write I/O fault — a world-level decision
        // drawn from rank 0's stream (every rank's plan comes from one
        // config, so rank 0 has one whenever any rank does). The write
        // is skipped; the world keeps running on its previous snapshot.
        // Drawn before capture so full and delta modes see identical
        // streams.
        if pool.draw(0, Draw::CkptWrite)?.lost {
            return Ok(());
        }
        let sections = world_sections(cfg, pool, ctls, transport)?;
        let force_base = self.rebase_every == 0
            || self.stack.is_empty()
            || self.deltas_since_base >= self.rebase_every;
        let link = match &self.persist {
            // Nothing reads an in-process link's bytes: the stack holds
            // its snapshot, so it is only sized.
            None => self.chain.advance(sections, force_base),
            Some(path) => {
                let link = self.chain.push(sections, force_base);
                if link.is_base {
                    // Old-epoch deltas go first so a crash mid-rebase
                    // leaves either the old base alone (a valid, older
                    // ancestor) or the new base alone — never a base with
                    // foreign deltas (parent digests would reject those
                    // anyway).
                    crate::remove_persisted_deltas(path);
                    // Best-effort: a failed write costs only the warm
                    // restart.
                    let _ = crate::write_atomic(path, &link.bytes);
                } else {
                    let _ = crate::write_atomic(&crate::delta_path(path, link.seq), &link.bytes);
                }
                link.step()
            }
        };
        self.bytes_written += link.len as u64;
        if link.is_base {
            if !self.stack.is_empty() && self.rebase_every > 0 {
                self.rebases += 1;
            }
            self.stack.clear();
            self.deltas_since_base = 0;
        } else {
            self.deltas += 1;
            self.deltas_since_base += 1;
        }
        self.stack.push(self.chain.head());
        self.latest_vtime = Some(ctls.iter().map(|c| c.vclock).max().unwrap_or(0));
        self.taken += 1;
        // Charge the write cost after capture: the snapshot itself is
        // pre-cost, so a rollback also re-pays the time spent writing —
        // exactly the term delta chains shrink.
        // bytes_per_cycle == 0 means "size is free" (the default).
        let cost = self.write_alpha
            + (link.len as u64)
                .checked_div(self.write_bytes_per_cycle)
                .unwrap_or(0);
        if cost > 0 {
            for ctl in ctls.iter_mut().filter(|c| c.is_live()) {
                ctl.wait(cost);
            }
        }
        Ok(())
    }

    /// Restore the snapshot on top of the stack, degrading to the deepest
    /// one this world can decode: an entry that fails is dropped
    /// (counted) and the one below it is tried. `None` means the stack
    /// ran out — a cold restart.
    fn restore_latest(
        &mut self,
        cfg: &World<'_>,
        pool: &mut dyn RankPool,
        transport: &mut InMemTransport,
    ) -> Option<Vec<RankCtl>> {
        while let Some(top) = self.stack.last() {
            match world_from_sections(cfg, pool, transport, &top.sections) {
                Ok(ctls) => {
                    let depth = self.stack.len() as u64;
                    self.chain = chain::ChainState::resume(top.clone(), depth);
                    self.deltas_since_base = depth - 1;
                    self.latest_vtime = Some(ctls.iter().map(|c| c.vclock).max().unwrap_or(0));
                    return Some(ctls);
                }
                Err(_) => {
                    // Not decodable by this world (program/topology skew,
                    // or a pool that lost a worker mid-restore): try one
                    // snapshot deeper.
                    self.stack.pop();
                    self.links_dropped += 1;
                }
            }
        }
        self.latest_vtime = None;
        self.deltas_since_base = 0;
        None
    }
}

/// The cooperative scheduler: drives the pool's ranks to completion (or
/// a typed failure), optionally checkpointing at collective boundaries.
/// The pre-refactor `World::drive`, with every rank access behind the
/// [`RankPool`] seam.
fn drive(
    cfg: &World<'_>,
    pool: &mut dyn RankPool,
    ctls: &mut [RankCtl],
    transport: &mut InMemTransport,
    mut ckpt: Option<&mut CkptState>,
) -> Result<WorldRun, SimError> {
    // Connect-phase fault draws: each live rank (re-)joins the fabric at
    // the start of an attempt, paying any injected refusal backoff.
    // Zero-rate configs draw nothing, keeping legacy streams
    // bit-identical.
    for r in 0..cfg.size {
        if ctls[r as usize].is_live() {
            let fate = pool.draw(r, Draw::Connect)?;
            if fate.lost {
                return Err(err_on(
                    r,
                    format!(
                        "transport connect refused {MAX_CONNECT_RETRIES} times \
                         (injected refusals, retry budget exhausted)"
                    ),
                ));
            }
            ctls[r as usize].wait(fate.delay);
        }
    }

    // Scheduler rounds so far (the global half of the timeout bound).
    let mut rounds: u64 = 0;
    // PRNG for `Schedule::Seeded` (fresh per drive, so every restart
    // attempt replays the same interleaving for the same seed).
    let mut sched_rng = match cfg.schedule {
        Schedule::RankOrder => 0,
        Schedule::Seeded(seed) => seed | 1,
    };
    let mut order: Vec<usize> = (0..cfg.size as usize).collect();

    loop {
        let mut progress = false;

        // 1. Complete the receives whose message has arrived.
        #[allow(clippy::needless_range_loop)] // ctls + transport are both indexed by r
        for r in 0..cfg.size as usize {
            let Some(&Blocked::Recv {
                buf,
                off,
                count,
                src,
                tag,
            }) = ctls[r].blocked()
            else {
                continue;
            };
            let Some((payload, avail_at)) = transport.try_recv(r as u32, src, tag) else {
                continue;
            };
            if payload.len() != count {
                return Err(located(
                    pool,
                    r as u32,
                    format!(
                        "recv of {count} floats matched a message of {}",
                        payload.len()
                    ),
                ));
            }
            pool.write_floats(r as u32, buf, off, &payload)?;
            ctls[r].wait_until(avail_at);
            ctls[r].state = RankState::Ready;
            pool.resume(r as u32, Val::Unit)?;
            progress = true;
        }

        // 2. Complete the collective every live rank waits at, if any.
        if complete_collective(cfg, pool, ctls)? {
            progress = true;
            if let Some(ck) = ckpt.as_deref_mut() {
                ck.collective_completed(cfg, pool, ctls, transport)?;
            }
        }

        // 3. Run runnable ranks for a slice. Under `Seeded`, the
        // service order is a fresh Fisher–Yates permutation each
        // round — the deterministic analogue of an OS thread
        // scheduler picking workers in arbitrary order.
        if let Schedule::Seeded(_) = cfg.schedule {
            for i in (1..order.len()).rev() {
                let j = (sched_next(&mut sched_rng) % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
        }
        // Ready ranks in service order. Slice *execution* crosses the
        // executor seam as one batch (a slice only touches its own
        // rank's state); the yields come back in service order and are
        // applied here exactly as the historical run-one-service-one
        // loop did — bit-identical by construction.
        let ready: Vec<u32> = order
            .iter()
            .filter(|&&r| matches!(ctls[r].state, RankState::Ready))
            .map(|&r| r as u32)
            .collect();
        if !ready.is_empty() {
            progress = true;
        }
        for (r, y, delta) in pool.run_slices(&ready, cfg.slice)? {
            let r = r as usize;
            ctls[r].compute(delta);
            match y {
                RankYield::Done(v) => ctls[r].state = RankState::Done(v),
                RankYield::OutOfFuel => {}
                RankYield::Crashed { step } => {
                    // The rank is dead. Let the survivors run on —
                    // the world fails with a post-mortem once no one
                    // can make progress (see below).
                    ctls[r].state = RankState::Crashed(step);
                }
                RankYield::Misplaced => {
                    return Err(err_on(
                        r as u32,
                        "__syncthreads / __shared__ outside a kernel launch",
                    ));
                }
                RankYield::Device => match pool.service_device(r as u32)? {
                    DeviceOutcome::Advance(d) => ctls[r].wait(d),
                    DeviceOutcome::Crashed(step) => ctls[r].state = RankState::Crashed(step),
                },
                RankYield::HostCall => {
                    let backoff = pool.service_host(r as u32)?;
                    ctls[r].wait(backoff);
                }
                RankYield::Mpi { op, args } => {
                    service_mpi(cfg, pool, ctls, r as u32, op, args, transport)?;
                }
            }
        }

        if !ctls.iter().any(RankCtl::is_live) {
            break;
        }
        if !progress {
            // A crashed rank explains the stall: fail with its
            // post-mortem instead of reporting a plain deadlock.
            if let Some((cr, step)) = ctls.iter().enumerate().find_map(|(i, rk)| match rk.state {
                RankState::Crashed(s) => Some((i as u32, s)),
                _ => None,
            }) {
                return Err(SimError::Crash {
                    rank: cr,
                    step,
                    post_mortem: world_report(ctls, transport),
                });
            }
            return Err(SimError::Deadlock {
                report: world_report(ctls, transport),
            });
        }

        // Per-collective timeout clock: rounds spent in the current
        // blocked state. A would-be hang (e.g. a dropped message's
        // receiver while its sender spins) becomes a typed Timeout.
        rounds += 1;
        for ctl in ctls.iter_mut() {
            if ctl.blocked().is_some() {
                ctl.blocked_rounds += 1;
            } else {
                ctl.blocked_rounds = 0;
            }
        }
        if let Some(bound) = cfg.timeout_rounds {
            let over = ctls
                .iter()
                .enumerate()
                .filter(|(_, rk)| rk.blocked().is_some())
                .map(|(i, rk)| (i as u32, rk.blocked_rounds))
                .max_by_key(|&(_, w)| w)
                .filter(|&(_, w)| w > bound || rounds > bound);
            if let Some((tr, waited)) = over {
                return Err(SimError::Timeout {
                    rank: tr,
                    waited_rounds: waited.max(rounds),
                    report: world_report(ctls, transport),
                });
            }
        }
    }

    let vtime = ctls.iter().map(|c| c.vclock).max().unwrap_or(0);
    let total_cycles = ctls.iter().map(|c| c.compute_cycles).sum();
    let mut resilience = ResilienceStats::default();
    for r in 0..cfg.size {
        resilience.merge(&pool.stats(r)?);
    }
    Ok(WorldRun {
        ranks: pool.finish(ctls)?,
        vtime,
        total_cycles,
        resilience,
        restart: RestartStats::default(),
    })
}

/// Run a world cold: fresh ranks, empty queues, one attempt.
pub(crate) fn run_world(cfg: &World<'_>, pool: &mut dyn RankPool) -> Result<WorldRun, SimError> {
    pool.reinit()?;
    let mut ctls = vec![RankCtl::default(); cfg.size as usize];
    drive(cfg, pool, &mut ctls, &mut InMemTransport::default(), None)
}

/// [`run_world`] under `policy`'s checkpoints with up to `max_restarts`
/// rollbacks (see [`World::run_with_restart`]). A persisted chain found
/// at the policy's path is warm-started from — unless its platform scope
/// salt differs from `cfg.ckpt_salt`, which fails fast with
/// [`SimError::CheckpointScope`] (a foreign platform's chain must be
/// neither restored nor silently overwritten).
pub(crate) fn run_world_with_restart(
    cfg: &World<'_>,
    pool: &mut dyn RankPool,
    policy: &CheckpointPolicy,
    max_restarts: u32,
) -> Result<WorldRun, SimError> {
    let mut transport = InMemTransport::default();
    let mut ck = CkptState::new(policy);
    // Warm start: a killed process may have left a persisted chain
    // behind.
    ck.warm_start(cfg)?;
    let mut stats = RestartStats::default();
    let mut carried = ResilienceStats::default();
    loop {
        let attempt = stats.restarts;
        pool.prepare_resume()?;
        // Roll back to the deepest valid snapshot in the chain,
        // degrading link by link and to a cold restart at the end.
        let mut ctls = match ck.restore_latest(cfg, pool, &mut transport) {
            Some(ctls) => ctls,
            None => {
                pool.reinit()?;
                transport.clear();
                vec![RankCtl::default(); cfg.size as usize]
            }
        };
        if attempt > 0 {
            stats.ranks_rolled_back += ctls.iter().filter(|c| c.is_live()).count() as u64;
            // Everything the failed attempt observed is already in
            // `carried`; zero the counters and move every stream past
            // its consumed cursor so the fault that killed the last
            // attempt is not re-drawn identically forever.
            for r in 0..cfg.size {
                pool.reseed(r, attempt)?;
            }
        }
        match drive(cfg, pool, &mut ctls, &mut transport, Some(&mut ck)) {
            Ok(mut run) => {
                stats.checkpoints_taken = ck.taken;
                stats.delta_checkpoints = ck.deltas;
                stats.rebases = ck.rebases;
                stats.ckpt_bytes_written = ck.bytes_written;
                stats.chain_links_dropped = ck.links_dropped;
                run.resilience.merge(&carried);
                run.resilience.checkpoints_taken += ck.taken;
                run.resilience.restarts += stats.restarts;
                run.restart = stats;
                return Ok(run);
            }
            Err(err) => {
                let recoverable = matches!(err, SimError::Crash { .. } | SimError::Timeout { .. });
                if !recoverable || stats.restarts >= max_restarts as u64 {
                    return Err(err);
                }
                for r in 0..cfg.size {
                    if let Ok(s) = pool.stats(r) {
                        carried.merge(&s);
                    }
                }
                let fail_vtime = ctls.iter().map(|c| c.vclock).max().unwrap_or(0);
                let base = ck.latest_vtime.unwrap_or(0);
                stats.virtual_time_lost += fail_vtime.saturating_sub(base);
                stats.restarts += 1;
                // Adaptive cadence: each restart halves the interval
                // (floor 1), so a world that keeps crashing pays for
                // snapshots exactly when they earn their keep.
                if policy.adaptive {
                    ck.every = (ck.every / 2).max(1);
                    ck.since_last = 0;
                }
            }
        }
    }
}

/// Serialize the current world as a standalone full snapshot — a
/// single-link chain (one sealed base). Test-only: production paths go
/// through [`run_world_with_restart`]'s chain.
#[cfg(test)]
pub(crate) fn capture_world(
    cfg: &World<'_>,
    pool: &mut dyn RankPool,
    ctls: &[RankCtl],
    transport: &InMemTransport,
) -> Result<Vec<u8>, SimError> {
    Ok(chain::base_link(&world_sections(
        cfg, pool, ctls, transport,
    )?))
}

/// Decode a standalone full snapshot ([`capture_world`]) back into the
/// pool + transport. Test-only.
#[cfg(test)]
pub(crate) fn restore_world(
    cfg: &World<'_>,
    pool: &mut dyn RankPool,
    transport: &mut InMemTransport,
    bytes: &[u8],
) -> Result<Vec<RankCtl>, CkptError> {
    let links = [bytes.to_vec()];
    let out = chain::resolve_prefix(&links);
    if let Some(e) = out.error {
        return Err(e);
    }
    world_from_sections(cfg, pool, transport, &out.sections)
}

/// One in-process rank: the execution half the scheduler reaches
/// through [`RankPool`].
struct LocalRank {
    thread: Thread,
    machine: Machine,
    gpu: Option<Gpu>,
    last_cycles: u64,
}

/// The in-process rank pool — every rank a resumable [`exec::Thread`]
/// with its own memory space in this process. [`World::run`] and the
/// conformance suites drive this pool; the `dist` backend substitutes
/// one OS process per rank behind the same trait.
pub struct LocalPool<'p, 'a> {
    /// Program, size, device, fault plan, host registry and executor.
    world: &'a World<'p>,
    entry: FuncId,
    make_args: ArgBuilder<'a>,
    ranks: Vec<Option<LocalRank>>,
    /// Device / host-call yields parked between `run_slices` and their
    /// `service_*` call.
    pending: Vec<Option<Yield>>,
    /// The program decoded for `exec::run`: built when a run starts (or
    /// by the first slice or device launch of a pool driven without one,
    /// as a `dist` worker's is), then shared by every rank, crew worker
    /// and device launch (restarts included). A pool that never runs —
    /// `dist`'s cold-start seed — never builds one.
    image: Option<Arc<Image<'p>>>,
    /// The run's worker crew while [`RankPool::wrap_run`] holds one open
    /// (`Threads` executors only); without it a batch runs on the
    /// calling thread.
    crew: Option<Crew<'p, SliceJob, SliceDone>>,
    /// Per rank, the lengths of its last captured thread, machine-rest
    /// and device sections: the next capture presizes its writers from
    /// them, since one checkpoint's sections are about as long as the
    /// last one's.
    capture_lens: Vec<[usize; 3]>,
}

/// One ready rank's execution state, moved onto a worker for one slice
/// (slice execution owns it — that exclusivity is what makes parallel
/// batches sound). The device and the cycle watermark stay pool-side.
struct SliceJob {
    rank: u32,
    thread: Thread,
    machine: Machine,
    slice: u64,
}

/// A finished slice: the rank's state handed back, plus how it stopped.
struct SliceDone {
    rank: u32,
    thread: Thread,
    machine: Machine,
    outcome: Result<Yield, ExecError>,
}

fn run_slice(image: &Image<'_>, job: SliceJob) -> SliceDone {
    let SliceJob {
        rank,
        mut thread,
        mut machine,
        slice,
    } = job;
    let outcome = run(&mut thread, image, &mut machine, slice);
    SliceDone {
        rank,
        thread,
        machine,
        outcome,
    }
}

/// The pool's image, built on first use. A free function over the two
/// fields it needs so callers can hold it next to `&mut` ranks.
fn image_of<'i, 'p>(
    slot: &'i mut Option<Arc<Image<'p>>>,
    program: &'p Program,
) -> Result<&'i Arc<Image<'p>>, SimError> {
    if slot.is_none() {
        let image = Image::build(program).map_err(|e| SimError::World {
            message: e.to_string(),
        })?;
        *slot = Some(Arc::new(image));
    }
    Ok(slot.as_ref().expect("filled above"))
}

/// What the scheduler sees of a slice's yield. Device and host-call
/// yields are parked until their `service_*` call.
fn park_yield(pending: &mut [Option<Yield>], r: u32, y: Yield) -> RankYield {
    match y {
        Yield::Done(v) => RankYield::Done(v),
        Yield::OutOfFuel => RankYield::OutOfFuel,
        Yield::Crashed { step } => RankYield::Crashed { step },
        Yield::Sync | Yield::SharedAlloc { .. } => RankYield::Misplaced,
        Yield::Mpi { op, args } => RankYield::Mpi { op, args },
        y @ (Yield::Launch { .. } | Yield::GpuMem { .. }) => {
            pending[r as usize] = Some(y);
            RankYield::Device
        }
        y @ Yield::Host { .. } => {
            pending[r as usize] = Some(y);
            RankYield::HostCall
        }
    }
}

fn live_rank(ranks: &mut [Option<LocalRank>], r: u32) -> Result<&mut LocalRank, SimError> {
    ranks
        .get_mut(r as usize)
        .and_then(|o| o.as_mut())
        .ok_or_else(|| SimError::World {
            message: format!("rank {r} is not live in the local pool"),
        })
}

impl<'p, 'a> LocalPool<'p, 'a> {
    /// `world`'s ranks, each entering `entry` with the arguments
    /// `make_args` builds into its own memory space.
    pub fn new(world: &'a World<'p>, entry: FuncId, make_args: ArgBuilder<'a>) -> Self {
        LocalPool {
            world,
            entry,
            make_args,
            ranks: Vec::new(),
            pending: Vec::new(),
            image: None,
            crew: None,
            capture_lens: vec![[0; 3]; world.size as usize],
        }
    }

    fn rank_mut(&mut self, r: u32) -> Result<&mut LocalRank, SimError> {
        live_rank(&mut self.ranks, r)
    }

    /// Rank `r`'s machine, while the rank is live.
    pub fn machine(&self, r: u32) -> Option<&Machine> {
        let rank = self.ranks.get(r as usize)?.as_ref()?;
        Some(&rank.machine)
    }

    /// Drain one rank into its final outcome — the per-rank half of
    /// [`RankPool::finish`]. Remote pools that own a single live rank
    /// each (the `dist` workers) call this for their own rank only.
    pub fn finish_rank(&mut self, r: u32, ctl: &RankCtl) -> Result<RankOutcome, SimError> {
        let rank = self
            .ranks
            .get_mut(r as usize)
            .and_then(|o| o.take())
            .ok_or_else(|| SimError::World {
                message: format!("rank {r} is not live in the local pool"),
            })?;
        Ok(RankOutcome {
            result: ctl.result(),
            vclock: ctl.vclock,
            compute_cycles: ctl.compute_cycles,
            comm_cycles: ctl.comm_cycles,
            output: rank.machine.output.clone(),
            gpu_time: rank.gpu.as_ref().map(|g| g.vtime).unwrap_or(0),
            machine: rank.machine,
        })
    }
}

impl RankPool for LocalPool<'_, '_> {
    fn wrap_run(&mut self, run: &mut WorldBody<'_>) -> Result<WorldRun, SimError> {
        let image = Arc::clone(image_of(&mut self.image, self.world.program)?);
        let helpers = pool::helpers(self.world.executor, self.world.size);
        if helpers == 0 {
            return run(self);
        }
        pool::crew(
            helpers + 1,
            move |job| run_slice(&image, job),
            |crew| {
                self.crew = Some(crew);
                let out = run(self);
                self.crew = None;
                out
            },
        )
    }

    fn reinit(&mut self) -> Result<(), SimError> {
        self.ranks.clear();
        self.pending = (0..self.world.size).map(|_| None).collect();
        for r in 0..self.world.size {
            let mut machine = Machine::with_globals(self.world.program);
            if let Some(cfg) = self.world.fault {
                machine.fault = Some(FaultPlan::for_rank(cfg, r));
            }
            let args = (self.make_args)(r, &mut machine)
                .map_err(|m| err_on(r, format!("building entry args: {m}")))?;
            let thread = Thread::new(self.world.program, self.entry, &args)
                .map_err(|e| err_on(r, e.to_string()))?;
            let mut gpu = self.world.gpu.map(Gpu::new);
            if let (Some(g), Some(cfg)) = (gpu.as_mut(), self.world.fault) {
                g.set_fault(device_fault_config(cfg, r));
            }
            self.ranks.push(Some(LocalRank {
                thread,
                machine,
                gpu,
                last_cycles: 0,
            }));
        }
        Ok(())
    }

    fn run_slices(
        &mut self,
        ranks: &[u32],
        slice: u64,
    ) -> Result<Vec<(u32, RankYield, u64)>, SimError> {
        let image = image_of(&mut self.image, self.world.program)?;
        // Refuse a bad batch before any rank leaves the pool, so no rank
        // listed ahead of the bad one is stranded.
        for (i, &r) in ranks.iter().enumerate() {
            live_rank(&mut self.ranks, r)?;
            if ranks[..i].contains(&r) {
                return Err(SimError::World {
                    message: format!("rank {r} is listed twice in one batch"),
                });
            }
        }
        // Move each ready rank's execution state into a job. The device
        // and the cycle watermark stay pool-side — slices never touch
        // them (device yields are serviced after the batch).
        let mut parked: Vec<(Option<Gpu>, u64)> = Vec::with_capacity(ranks.len());
        let mut jobs = Vec::with_capacity(ranks.len());
        for &r in ranks {
            let lr = self.ranks[r as usize]
                .take()
                .expect("every listed rank was checked live and distinct");
            parked.push((lr.gpu, lr.last_cycles));
            jobs.push(SliceJob {
                rank: r,
                thread: lr.thread,
                machine: lr.machine,
                slice,
            });
        }
        // Results come back in batch order, from the run's crew or, outside
        // one (the `Sim` executor, a `dist` worker), from a plain loop on
        // this thread.
        // Reinstall every rank before surfacing any error so no state is
        // stranded.
        let done = match &mut self.crew {
            Some(crew) => crew.map(jobs),
            None => jobs.into_iter().map(|j| run_slice(image, j)).collect(),
        };
        let mut outcomes = Vec::with_capacity(ranks.len());
        for (done, (gpu, last_cycles)) in done.into_iter().zip(parked) {
            let cycles = done.machine.counters.cycles;
            self.ranks[done.rank as usize] = Some(LocalRank {
                thread: done.thread,
                machine: done.machine,
                gpu,
                last_cycles: cycles,
            });
            outcomes.push((done.rank, done.outcome, cycles - last_cycles));
        }
        outcomes
            .into_iter()
            .map(|(r, outcome, delta)| {
                let y = outcome.map_err(|e| err_on(r, e.to_string()))?;
                Ok((r, park_yield(&mut self.pending, r, y), delta))
            })
            .collect()
    }

    fn resume(&mut self, r: u32, v: Val) -> Result<(), SimError> {
        let program = self.world.program;
        (self.rank_mut(r)?.thread)
            .resume_with(program, v)
            .map_err(|e| err_on(r, e.to_string()))
    }

    fn service_device(&mut self, r: u32) -> Result<DeviceOutcome, SimError> {
        let y = self.pending[r as usize]
            .take()
            .ok_or_else(|| err_on(r, "no pending device yield"))?;
        let image = image_of(&mut self.image, self.world.program)?;
        let rank = live_rank(&mut self.ranks, r)?;
        service_device_yield(
            image,
            &mut rank.thread,
            &mut rank.machine,
            &mut rank.gpu,
            r,
            y,
        )
    }

    fn service_host(&mut self, r: u32) -> Result<u64, SimError> {
        let y = self.pending[r as usize]
            .take()
            .ok_or_else(|| err_on(r, "no pending host yield"))?;
        let Yield::Host { host, args } = y else {
            return Err(err_on(r, "host service on a non-host yield"));
        };
        let program = self.world.program;
        let registry = self.world.host;
        let rank = self.rank_mut(r)?;
        service_host_yield(
            program,
            registry,
            &mut rank.thread,
            &mut rank.machine,
            r,
            host,
            args,
        )
    }

    fn read_floats(
        &mut self,
        r: u32,
        buf: u32,
        off: usize,
        count: usize,
    ) -> Result<Vec<f32>, SimError> {
        let program = self.world.program;
        let rank = self.rank_mut(r)?;
        let loc = yield_location(program, &rank.thread);
        read_floats(&rank.machine, buf, off, count).map_err(|m| err_on(r, locate(m, &loc)))
    }

    fn write_floats(
        &mut self,
        r: u32,
        buf: u32,
        off: usize,
        payload: &[f32],
    ) -> Result<(), SimError> {
        let program = self.world.program;
        let rank = self.rank_mut(r)?;
        let loc = yield_location(program, &rank.thread);
        write_floats(&mut rank.machine, buf, off, payload).map_err(|m| err_on(r, locate(m, &loc)))
    }

    fn location(&mut self, r: u32) -> Option<(String, u32)> {
        self.ranks
            .get(r as usize)
            .and_then(|o| o.as_ref())
            .and_then(|rk| yield_location(self.world.program, &rk.thread))
    }

    fn draw(&mut self, r: u32, kind: Draw) -> Result<Fate, SimError> {
        let plan = self.rank_mut(r)?.machine.fault.as_mut();
        Ok(plan.map_or_else(Fate::default, |p| p.draw(kind)))
    }

    fn capture_rank(&mut self, r: u32) -> Result<RankSnapshot, SimError> {
        let program = self.world.program;
        let rank = live_rank(&mut self.ranks, r)?;
        let lens = &mut self.capture_lens[r as usize];
        let mut t = Writer::with_capacity(lens[0]);
        ckpt::write_thread(&mut t, &rank.thread, program);
        let thread: Section = t.into_bytes().into();
        let arrays = ckpt::machine_array_sections(&mut rank.machine);
        let mut m = Writer::with_capacity(lens[1]);
        ckpt::write_machine_rest(&mut m, &rank.machine);
        let rest: Section = m.into_bytes().into();
        let device: Option<Section> = rank.gpu.as_ref().map(|gpu| {
            let mut g = Writer::with_capacity(lens[2]);
            ckpt::write_machine(&mut g, &gpu.machine);
            g.u64(gpu.vtime);
            g.u64(gpu.allocated_bytes);
            g.into_bytes().into()
        });
        *lens = [
            thread.len(),
            rest.len(),
            device.as_ref().map_or(0, |d| d.len()),
        ];
        let mut sections = Vec::with_capacity(arrays.len() + 3);
        sections.push(thread);
        sections.extend(arrays);
        sections.push(rest);
        sections.extend(device);
        Ok(RankSnapshot {
            last_cycles: rank.last_cycles,
            has_gpu: rank.gpu.is_some(),
            sections,
        })
    }

    fn restore_rank(&mut self, r: u32, snap: RankSnapshot) -> Result<(), CkptError> {
        fn bad(message: impl Into<String>) -> CkptError {
            CkptError::Corrupt {
                offset: 0,
                message: message.into(),
            }
        }
        let n_arrays = snap.n_arrays().ok_or_else(|| {
            bad(format!(
                "rank {r}'s snapshot has {} sections, too few for its layout",
                snap.sections.len()
            ))
        })?;
        let sections = &snap.sections;
        // The rank's live arrays that still hold their snapshot section
        // are kept rather than decoded; they move over only once every
        // section has decoded, so a refused snapshot leaves them in place.
        let mut none = MemSpace::new();
        let live = match self.ranks.get_mut(r as usize) {
            Some(Some(rank)) => &mut rank.machine.mem,
            _ => &mut none,
        };
        let thread = ckpt::read_thread(&mut Reader::new(&sections[0]), self.world.program)?;
        let mem = ckpt::mem_from_sections(&sections[1..1 + n_arrays], live)?;
        let mut m = Reader::new(&sections[1 + n_arrays]);
        let mut machine = ckpt::read_machine_rest(&mut m, MemSpace::new())?;
        // Fault plans are restored with their exact PRNG cursors;
        // device-side plans are re-armed from the world's fault config
        // (their cursors advance via `Gpu::reseed_faults` on restart
        // instead).
        let gpu = if snap.has_gpu {
            let Some(cfg) = self.world.gpu else {
                return Err(bad("checkpoint has device state but this world has no GPU"));
            };
            let mut gr = Reader::new(&sections[2 + n_arrays]);
            let mut g = Gpu::new(cfg);
            g.machine = ckpt::read_machine(&mut gr)?;
            g.vtime = gr.u64()?;
            g.allocated_bytes = gr.u64()?;
            if let Some(fault) = self.world.fault {
                g.set_fault(device_fault_config(fault, r));
            }
            Some(g)
        } else {
            None
        };
        machine.mem = mem.finish();
        if (r as usize) >= self.ranks.len() {
            self.ranks.resize_with(self.world.size as usize, || None);
        }
        if (r as usize) >= self.pending.len() {
            self.pending.resize_with(self.world.size as usize, || None);
        }
        self.pending[r as usize] = None;
        self.ranks[r as usize] = Some(LocalRank {
            thread,
            machine,
            gpu,
            last_cycles: snap.last_cycles,
        });
        Ok(())
    }

    fn reseed(&mut self, r: u32, attempt: u64) -> Result<(), SimError> {
        let rank = self.rank_mut(r)?;
        if let Some(plan) = rank.machine.fault.as_mut() {
            plan.stats = ResilienceStats::default();
            plan.reseed(attempt);
        }
        if let Some(gpu) = rank.gpu.as_mut() {
            gpu.reseed_faults(attempt);
        }
        Ok(())
    }

    fn stats(&mut self, r: u32) -> Result<ResilienceStats, SimError> {
        let mut s = ResilienceStats::default();
        if let Some(rank) = self.ranks.get(r as usize).and_then(|o| o.as_ref()) {
            if let Some(plan) = &rank.machine.fault {
                s.merge(&plan.stats);
            }
            if let Some(gpu) = &rank.gpu {
                s.merge(&gpu.fault_stats());
            }
        }
        Ok(s)
    }

    fn finish(&mut self, ctls: &[RankCtl]) -> Result<Vec<RankOutcome>, SimError> {
        let mut out = Vec::with_capacity(ctls.len());
        for (r, ctl) in ctls.iter().enumerate() {
            out.push(self.finish_rank(r as u32, ctl)?);
        }
        Ok(out)
    }
}

//! # runtime — the transport-agnostic rank runtime
//!
//! The cooperative scheduler extracted from the historical
//! `World::run`: the step loop, collective boundaries, fault hooks, and
//! checkpoint capture, parameterized over *where the ranks live*
//! ([`RankPool`]) and *how messages travel* ([`Transport`]).
//!
//! `mpi-sim` itself drives a [`LocalPool`] (every rank an in-process
//! [`exec::Thread`]) over an [`InMemTransport`](crate::InMemTransport) —
//! bit-identical to the pre-refactor monolith. The `dist` backend drives
//! the *same* scheduler over a pool of one OS process per rank, reached
//! across loopback TCP; because every scheduling, cost-model, and
//! fault-stream decision is made here, on one side of the seam, the two
//! backends produce bit-identical rank outcomes by construction.
//!
//! The split of one historical `Rank` is:
//! - [`RankCtl`] — the scheduler-owned half (clocks, blocked state,
//!   completion), always on the driver side of the seam;
//! - the pool-owned half (thread, machine, device, fault stream), which
//!   may live in another process and is reached only through the
//!   [`RankPool`] methods.

use std::path::PathBuf;

use exec::ckpt::{self, chain, CkptError};
use exec::pool::{run_batch, SliceJob};
use exec::{
    run, ArrStore, ExecError, ExecutorCfg, FaultConfig, FaultPlan, HostRegistry, Image, Machine,
    MsgFault, ResilienceStats, Thread, TransportFault, Val, Yield,
};
use gpu_sim::{Gpu, GpuConfig, GpuErrorKind};
use nir::codec::{Reader, Wire, Writer};
use nir::{FuncId, IntrinOp, Program};

use crate::shared::SharedCacheStats;
use crate::transport::Transport;
#[cfg(test)]
use crate::WorldCheckpoint;
use crate::{
    device_fault_config, err_on, CheckpointPolicy, CostModel, RankOutcome, RestartStats, Schedule,
    SimError, WorldRun,
};

/// Per-rank entry-argument builder: rank id + its machine -> entry args.
pub type ArgBuilder<'a> = &'a mut dyn FnMut(u32, &mut Machine) -> Result<Vec<Val>, String>;

/// Connection attempts per rank before an injected refusal storm becomes
/// a typed error instead of another backoff.
pub const MAX_CONNECT_RETRIES: u32 = 16;

/// The scheduler-facing slice of a world configuration — everything the
/// scheduler loop needs that is not the program or the ranks themselves.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub size: u32,
    pub cost: CostModel,
    /// Fuel per scheduling slice.
    pub slice: u64,
    /// Per-collective fuel bound (see `World::timeout_rounds`).
    pub timeout_rounds: Option<u64>,
    pub schedule: Schedule,
    /// Platform namespace stamp written into every checkpoint header: a
    /// chain captured under one salt refuses to restore under another
    /// ([`CkptError::ScopeMismatch`] in-run,
    /// [`SimError::CheckpointScope`] at warm start).
    pub ckpt_salt: u64,
}

/// What a rank is blocked on, scheduler-side.
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
    Allreduce,
    Bcast {
        buf: u32,
        off: usize,
        count: usize,
        root: u32,
    },
}

/// The scheduler-owned half of one rank: virtual clocks, blocked state,
/// and completion. The execution state behind it (thread, machine,
/// device, fault stream) lives in the [`RankPool`].
#[derive(Debug, Clone, Default)]
pub struct RankCtl {
    pub vclock: u64,
    pub compute_cycles: u64,
    pub comm_cycles: u64,
    pub blocked: Option<Blocked>,
    pub done: Option<Option<Val>>,
    /// Step count at which an injected fault killed this rank.
    pub crashed: Option<u64>,
    /// Consecutive scheduler rounds spent in the current blocked state
    /// (the per-collective timeout clock).
    pub blocked_rounds: u64,
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
    pub sections: Vec<Vec<u8>>,
}

nir::wire_struct!(RankSnapshot {
    last_cycles,
    has_gpu,
    sections
});

/// Where ranks live. [`LocalPool`] keeps them in-process (the `mpi-sim`
/// backend); the `dist` backend reaches one OS process per rank over
/// loopback TCP. Every method is one scheduler-initiated operation on
/// one rank; implementations must be deterministic given the same call
/// sequence — cross-backend bit-identity depends on it.
///
/// Fault-stream draws are pool methods because the seeded PRNG cursors
/// live inside each rank's machine state (so checkpoints capture them);
/// the scheduler guards every draw with [`RankPool::has_fault_plan`] so
/// fault-free worlds pay no seam crossings.
pub trait RankPool {
    /// (Re-)create every rank from scratch: fresh machines, fresh entry
    /// args, fresh fault streams — the cold-start path.
    fn reinit(&mut self) -> Result<(), SimError>;
    /// Called once per restart attempt before any restore: a chance to
    /// respawn dead workers. No-op for in-process pools.
    fn prepare_resume(&mut self) -> Result<(), SimError> {
        Ok(())
    }
    /// Run rank `r` for one fuel slice; returns its yield and the cycles
    /// retired (already watermarked pool-side).
    fn run_slice(&mut self, r: u32, slice: u64) -> Result<(RankYield, u64), SimError>;
    /// Run one scheduler round's ready ranks, returning `(rank, yield,
    /// delta)` in *service order* — the order the scheduler must apply
    /// the yields in. The default is the historical serial loop (run
    /// each rank in the given order), which is exactly what every
    /// remote pool wants; executor-backed pools override this to fan
    /// slice execution out over OS threads. Sound because a slice only
    /// touches its own rank's state — all cross-rank effects happen
    /// when the *scheduler* services the returned yields.
    fn run_slices(
        &mut self,
        ranks: &[u32],
        slice: u64,
    ) -> Result<Vec<(u32, RankYield, u64)>, SimError> {
        let mut out = Vec::with_capacity(ranks.len());
        for &r in ranks {
            let (y, delta) = self.run_slice(r, slice)?;
            out.push((r, y, delta));
        }
        Ok(out)
    }
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
    /// Does rank `r` carry a fault stream? Guards every draw below.
    fn has_fault_plan(&self, r: u32) -> bool;
    /// Draw the fate of one outgoing point-to-point message.
    fn message_fault(&mut self, r: u32) -> Result<MsgFault, SimError>;
    /// Draw the fate of one collective contribution / payload.
    fn collective_fault(&mut self, r: u32) -> Result<MsgFault, SimError>;
    /// Draw the fate of one framed transport message (after its payload
    /// fault).
    fn transport_fault(&mut self, r: u32) -> Result<TransportFault, SimError>;
    /// Connect-phase fault: total backoff cycles spent re-dialing
    /// injected connection refusals (0 when none fire). A refusal storm
    /// past [`MAX_CONNECT_RETRIES`] is a typed error.
    fn connect_delay(&mut self, r: u32) -> Result<u64, SimError>;
    /// Does this checkpoint write fail with an injected I/O fault?
    fn ckpt_write_fails(&mut self, r: u32) -> Result<bool, SimError>;
    /// Capture rank `r`'s execution state as checkpoint sections.
    fn capture_rank(&mut self, r: u32) -> Result<RankSnapshot, SimError>;
    /// Replace rank `r`'s execution state from checkpoint sections
    /// (`thread, array*, machine_rest[, device]`).
    fn restore_rank(
        &mut self,
        r: u32,
        last_cycles: u64,
        has_gpu: bool,
        n_arrays: usize,
        sections: &[Vec<u8>],
    ) -> Result<(), CkptError>;
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
pub fn yield_location(program: &Program, thread: &Thread) -> Option<(String, u32)> {
    thread
        .frame_location()
        .map(|(f, pc)| (program.func(f).name.clone(), pc.saturating_sub(1)))
}

/// Attach a yield location to a context-free [`ExecError`].
pub fn locate(e: impl Into<ExecError>, loc: &Option<(String, u32)>) -> ExecError {
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

#[derive(Debug, Clone, Copy)]
enum AllOp {
    SumF64,
    SumF32,
    MaxF64,
}

/// Fold allreduce contributions **in rank order**, not arrival order.
/// Ranks reach the collective in schedule-dependent order; sorting by
/// rank id first makes the float reduction's association (and so its
/// exact bits) a function of the world alone — the property the
/// backend-matrix sweep asserts across schedules and platforms.
fn combine(op: AllOp, contributions: &[(u32, AllOp, Val)]) -> Result<Val, ExecError> {
    let mut contributions: Vec<(u32, AllOp, Val)> = contributions.to_vec();
    contributions.sort_by_key(|(r, _, _)| *r);
    let contributions = &contributions;
    match op {
        AllOp::SumF64 => {
            let mut s = 0.0f64;
            for (_, _, v) in contributions {
                s += v.as_f64()?;
            }
            Ok(Val::F64(s))
        }
        AllOp::SumF32 => {
            let mut s = 0.0f32;
            for (_, _, v) in contributions {
                s += v.as_f32()?;
            }
            Ok(Val::F32(s))
        }
        AllOp::MaxF64 => {
            let mut m = f64::NEG_INFINITY;
            for (_, _, v) in contributions {
                m = m.max(v.as_f64()?);
            }
            Ok(Val::F64(m))
        }
    }
}

/// Point-to-point / broadcast payload cost: `alpha + beta·bytes`.
fn msg_cost(cost: &CostModel, bytes: u64) -> u64 {
    cost.alpha + (bytes as f64 * cost.beta) as u64
}

/// Raw machine-side float read (context-free error; pools attach the
/// yield location). Shared with the `dist` worker so out-of-bounds MPI
/// buffers fail with byte-identical messages on every backend.
pub fn read_floats(
    machine: &Machine,
    buf: u32,
    off: usize,
    count: usize,
) -> Result<Vec<f32>, ExecError> {
    match machine.mem.arr(buf)? {
        ArrStore::F32(v) => v.get(off..off + count).map(|s| s.to_vec()).ok_or_else(|| {
            ExecError::msg(format!(
                "send range {off}..{} out of bounds (len {})",
                off + count,
                v.len()
            ))
        }),
        other => Err(ExecError::msg(format!(
            "MPI float op on non-float array {other:?}"
        ))),
    }
}

/// Raw machine-side float write (see [`read_floats`]).
pub fn write_floats(
    machine: &mut Machine,
    buf: u32,
    off: usize,
    payload: &[f32],
) -> Result<(), ExecError> {
    match machine.mem.arr_mut(buf)? {
        ArrStore::F32(v) => {
            let vlen = v.len();
            let tgt = v.get_mut(off..off + payload.len()).ok_or_else(|| {
                ExecError::msg(format!(
                    "recv range {off}..{} out of bounds (len {vlen})",
                    off + payload.len()
                ))
            })?;
            tgt.copy_from_slice(payload);
            Ok(())
        }
        other => Err(ExecError::msg(format!(
            "MPI float op on non-float array {other:?}"
        ))),
    }
}

/// Service a device yield (kernel launch or GPU memory op) against one
/// rank's thread/machine/device triple. Shared by [`LocalPool`] and the
/// `dist` worker so device errors carry byte-identical text everywhere.
///
/// A successful launch does **not** resume the thread (the interpreter
/// continues past the launch on its own); GPU memory ops resume with
/// their result. `args` has the operand count `exec::Image::build`
/// checked for `op` (`intrin_shape` in `exec/src/image.rs`), so it is
/// indexed by position.
pub fn service_device_yield(
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
            match op {
                IntrinOp::CopyToGpu => {
                    let host = args[0].as_arr().map_err(|m| err_on(r, locate(m, &loc)))?;
                    let store = machine
                        .mem
                        .arr(host)
                        .map_err(|m| err_on(r, locate(m, &loc)))?
                        .clone();
                    let dev = gpu.copy_in(&store).map_err(|e| err_on(r, e.to_string()))?;
                    thread.resume_with(Val::Arr(dev));
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
                    thread.resume_with(Val::Unit);
                }
                IntrinOp::CopyToGpuRange => {
                    // (dev, devOff, host, hostOff, len)
                    let dev = args[0].as_arr().map_err(|m| err_on(r, locate(m, &loc)))?;
                    let doff = args[1].as_i32().map_err(|m| err_on(r, locate(m, &loc)))? as usize;
                    let host = args[2].as_arr().map_err(|m| err_on(r, locate(m, &loc)))?;
                    let hoff = args[3].as_i32().map_err(|m| err_on(r, locate(m, &loc)))? as usize;
                    let len = args[4].as_i32().map_err(|m| err_on(r, locate(m, &loc)))? as usize;
                    let payload = read_floats(machine, host, hoff, len)
                        .map_err(|m| err_on(r, locate(m, &loc)))?;
                    gpu.write_range(dev, doff, &payload)
                        .map_err(|e| err_on(r, e.to_string()))?;
                    thread.resume_with(Val::Unit);
                }
                IntrinOp::CopyFromGpuRange => {
                    // (host, hostOff, dev, devOff, len)
                    let host = args[0].as_arr().map_err(|m| err_on(r, locate(m, &loc)))?;
                    let hoff = args[1].as_i32().map_err(|m| err_on(r, locate(m, &loc)))? as usize;
                    let dev = args[2].as_arr().map_err(|m| err_on(r, locate(m, &loc)))?;
                    let doff = args[3].as_i32().map_err(|m| err_on(r, locate(m, &loc)))? as usize;
                    let len = args[4].as_i32().map_err(|m| err_on(r, locate(m, &loc)))? as usize;
                    let payload = gpu
                        .read_range(dev, doff, len)
                        .map_err(|e| err_on(r, e.to_string()))?;
                    write_floats(machine, host, hoff, &payload)
                        .map_err(|m| err_on(r, locate(m, &loc)))?;
                    thread.resume_with(Val::Unit);
                }
                IntrinOp::GpuAllocF32 => {
                    let n = args[0].as_i32().map_err(|m| err_on(r, locate(m, &loc)))?;
                    if n < 0 {
                        return Err(err_on(r, "negative device allocation"));
                    }
                    let dev = gpu.alloc_f32(n as usize);
                    thread.resume_with(Val::Arr(dev));
                }
                IntrinOp::GpuFree => {
                    let dev = args[0].as_arr().map_err(|m| err_on(r, locate(m, &loc)))?;
                    gpu.free(dev).map_err(|e| err_on(r, e.to_string()))?;
                    thread.resume_with(Val::Unit);
                }
                other => {
                    return Err(err_on(
                        r,
                        format!("CUDA thread register {other:?} read outside a kernel"),
                    ))
                }
            }
            Ok(DeviceOutcome::Advance(gpu.vtime - before))
        }
        _ => Err(err_on(r, "device service on a non-device yield")),
    }
}

/// Service a host-FFI yield: resolve the foreign function, survive the
/// injected-transient retry loop (exponential virtual-time backoff up to
/// the configured budget), call it, resume the thread with the result.
/// Returns the total backoff cycles to charge to the rank's clock.
/// Shared by [`LocalPool`] and the `dist` worker.
pub fn service_host_yield(
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
    loop {
        let transient = machine
            .fault
            .as_mut()
            .is_some_and(|p| p.host_attempt_fails());
        if !transient {
            break;
        }
        let plan = machine.fault.as_mut().unwrap();
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
    thread.resume_with(v);
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
    transport: &mut dyn Transport,
) -> Result<(), SimError> {
    let mut avail_at = sender.vclock;
    if pool.has_fault_plan(from) {
        match pool.message_fault(from)? {
            MsgFault::Drop => return Ok(()),
            MsgFault::Corrupt => exec::fault::corrupt_f32(&mut payload),
            MsgFault::Delay(d) => avail_at += d,
            MsgFault::None => {}
        }
        match pool.transport_fault(from)? {
            TransportFault::Truncate => return Ok(()),
            TransportFault::DelayAck(d) => avail_at += d,
            TransportFault::None => {}
        }
    }
    transport.post(from, dest, tag, payload, avail_at);
    Ok(())
}

/// An allreduce contribution, possibly corrupted or delayed by the
/// contributing rank's fault stream (delay pushes the rank's clock,
/// which delays the collective's completion time).
fn contribute(pool: &mut dyn RankPool, ctl: &mut RankCtl, r: u32, v: Val) -> Result<Val, SimError> {
    if !pool.has_fault_plan(r) {
        return Ok(v);
    }
    Ok(match pool.collective_fault(r)? {
        MsgFault::Corrupt => corrupt_val(v),
        MsgFault::Delay(d) => {
            ctl.vclock += d;
            ctl.comm_cycles += d;
            v
        }
        MsgFault::None | MsgFault::Drop => v,
    })
}

/// Collective completion time: max participant clock + base cost +
/// a log2(size) latency term.
fn complete_collective(cfg: &RunCfg, ctls: &mut [RankCtl], participants: &[u32]) -> u64 {
    let max = participants
        .iter()
        .map(|&r| ctls[r as usize].vclock)
        .max()
        .unwrap_or(0);
    let log2 = 32 - (cfg.size.max(1)).leading_zeros() as u64;
    let t = max + cfg.cost.collective_alpha + cfg.cost.alpha * log2;
    for &r in participants {
        let ctl = &mut ctls[r as usize];
        ctl.comm_cycles += t - ctl.vclock;
    }
    t
}

/// One line per rank describing its state — the post-mortem attached to
/// deadlock, timeout, and crash errors. `Recv` lines include the
/// waited-on source/tag and the pending queue depths, so a mismatched
/// send/recv pair is diagnosable from the error text alone.
fn world_report(ctls: &[RankCtl], transport: &dyn Transport) -> String {
    ctls.iter()
        .enumerate()
        .map(|(i, rk)| {
            let state = if let Some(step) = rk.crashed {
                format!("crashed at step {step} (injected fault)")
            } else if rk.done.is_some() {
                "done".to_string()
            } else if let Some(b) = &rk.blocked {
                match b {
                    Blocked::Recv {
                        src, tag, count, ..
                    } => {
                        let matching = transport.queued(*src, i as u32, *tag);
                        let inbound = transport.inbound_total(i as u32);
                        format!(
                            "blocked on Recv {{ {count} floats from rank {src}, tag {tag} }} \
                             ({matching} matching queued, {inbound} inbound total)"
                        )
                    }
                    Blocked::Barrier => "blocked on Barrier".to_string(),
                    Blocked::Allreduce => "blocked on Allreduce".to_string(),
                    Blocked::Bcast { root, count, .. } => {
                        format!("blocked on Bcast {{ {count} floats, root {root} }}")
                    }
                }
            } else {
                format!("runnable (vclock {})", rk.vclock)
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

/// Service one MPI yield against the scheduler's collective rendezvous
/// state — the pre-refactor `service_mpi`, reading and writing rank
/// memory through the pool seam. `args` has the operand count
/// `exec::Image::build` checked for `op`, so it is indexed by position.
#[allow(clippy::too_many_arguments)]
fn service_mpi(
    cfg: &RunCfg,
    pool: &mut dyn RankPool,
    ctls: &mut [RankCtl],
    r: u32,
    op: IntrinOp,
    args: Vec<Val>,
    transport: &mut dyn Transport,
    barrier_waiters: &mut Vec<u32>,
    allreduce: &mut Vec<(u32, AllOp, Val)>,
    bcast_waiters: &mut Vec<u32>,
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
            ctls[ri].blocked = Some(Blocked::Barrier);
            barrier_waiters.push(r);
        }
        IntrinOp::MpiSendF32 => {
            // sendF(buf, off, count, dest, tag)
            let buf = args[0].as_arr().map_err(|m| located(pool, r, m))?;
            let off = args[1].as_i32().map_err(|m| located(pool, r, m))? as usize;
            let count = args[2].as_i32().map_err(|m| located(pool, r, m))? as usize;
            let dest_raw = args[3].as_i32().map_err(|m| located(pool, r, m))?;
            let dest = check_rank(pool, cfg.size, r, dest_raw)?;
            let tag = args[4].as_i32().map_err(|m| located(pool, r, m))?;
            let payload = pool.read_floats(r, buf, off, count)?;
            let cost = msg_cost(&cfg.cost, (count * 4) as u64);
            ctls[ri].vclock += cost;
            ctls[ri].comm_cycles += cost;
            post_message(pool, &mut ctls[ri], r, dest, tag, payload, transport)?;
            pool.resume(r, Val::Unit)?;
        }
        IntrinOp::MpiRecvF32 => {
            // recvF(buf, off, count, src, tag)
            let buf = args[0].as_arr().map_err(|m| located(pool, r, m))?;
            let off = args[1].as_i32().map_err(|m| located(pool, r, m))? as usize;
            let count = args[2].as_i32().map_err(|m| located(pool, r, m))? as usize;
            let src_raw = args[3].as_i32().map_err(|m| located(pool, r, m))?;
            let src = check_rank(pool, cfg.size, r, src_raw)?;
            let tag = args[4].as_i32().map_err(|m| located(pool, r, m))?;
            ctls[ri].blocked = Some(Blocked::Recv {
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
            let soff = args[1].as_i32().map_err(|m| located(pool, r, m))? as usize;
            let count = args[2].as_i32().map_err(|m| located(pool, r, m))? as usize;
            let dest_raw = args[3].as_i32().map_err(|m| located(pool, r, m))?;
            let dest = check_rank(pool, cfg.size, r, dest_raw)?;
            let rbuf = args[4].as_arr().map_err(|m| located(pool, r, m))?;
            let roff = args[5].as_i32().map_err(|m| located(pool, r, m))? as usize;
            let src_raw = args[6].as_i32().map_err(|m| located(pool, r, m))?;
            let src = check_rank(pool, cfg.size, r, src_raw)?;
            let tag = args[7].as_i32().map_err(|m| located(pool, r, m))?;
            let payload = pool.read_floats(r, sbuf, soff, count)?;
            let cost = msg_cost(&cfg.cost, (count * 4) as u64);
            ctls[ri].vclock += cost;
            ctls[ri].comm_cycles += cost;
            post_message(pool, &mut ctls[ri], r, dest, tag, payload, transport)?;
            ctls[ri].blocked = Some(Blocked::Recv {
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
            let off = args[1].as_i32().map_err(|m| located(pool, r, m))? as usize;
            let count = args[2].as_i32().map_err(|m| located(pool, r, m))? as usize;
            let root_raw = args[3].as_i32().map_err(|m| located(pool, r, m))?;
            let root = check_rank(pool, cfg.size, r, root_raw)?;
            ctls[ri].blocked = Some(Blocked::Bcast {
                buf,
                off,
                count,
                root,
            });
            bcast_waiters.push(r);
        }
        IntrinOp::MpiAllreduceSumF64 => {
            ctls[ri].blocked = Some(Blocked::Allreduce);
            let v = contribute(pool, &mut ctls[ri], r, args[0])?;
            allreduce.push((r, AllOp::SumF64, v));
        }
        IntrinOp::MpiAllreduceSumF32 => {
            ctls[ri].blocked = Some(Blocked::Allreduce);
            let v = contribute(pool, &mut ctls[ri], r, args[0])?;
            allreduce.push((r, AllOp::SumF32, v));
        }
        IntrinOp::MpiAllreduceMaxF64 => {
            ctls[ri].blocked = Some(Blocked::Allreduce);
            let v = contribute(pool, &mut ctls[ri], r, args[0])?;
            allreduce.push((r, AllOp::MaxF64, v));
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
    cfg: &RunCfg,
    pool: &mut dyn RankPool,
    ctls: &[RankCtl],
    transport: &dyn Transport,
) -> Result<Vec<Vec<u8>>, SimError> {
    let mut header = Writer::new();
    // The platform scope stamp leads the header so a foreign chain is
    // rejected before any state is decoded.
    header.u64(cfg.ckpt_salt);
    header.u32(cfg.size);
    header.len(ctls.len());
    let mut body: Vec<Vec<u8>> = Vec::new();
    for (r, ctl) in ctls.iter().enumerate() {
        let snap = pool.capture_rank(r as u32)?;
        match &ctl.done {
            None => header.u8(0),
            Some(None) => header.u8(1),
            Some(Some(v)) => {
                header.u8(2);
                v.put(&mut header);
            }
        }
        header.u64(ctl.vclock);
        header.u64(ctl.compute_cycles);
        header.u64(ctl.comm_cycles);
        header.u64(snap.last_cycles);
        header.bool(snap.has_gpu);
        // Count of sections elsewhere — not a same-buffer length, so
        // it must not go through the reader's `len()` sanity bound.
        let n_arrays = snap.sections.len() - 2 - snap.has_gpu as usize;
        header.u32(n_arrays as u32);
        body.extend(snap.sections);
    }
    let mut sections = Vec::with_capacity(body.len() + 2);
    sections.push(header.into_bytes());
    sections.append(&mut body);
    sections.push(transport.snapshot());
    Ok(sections)
}

/// Decode resolved chain sections back into scheduler state, restoring
/// each rank's execution state through the pool. Every failure mode —
/// truncation, corruption, version/topology skew, a foreign platform
/// salt — is a typed [`CkptError`], never a panic.
fn world_from_sections(
    cfg: &RunCfg,
    pool: &mut dyn RankPool,
    transport: &mut dyn Transport,
    sections: &[Vec<u8>],
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
        let done = match h.u8()? {
            0 => None,
            1 => Some(None),
            2 => Some(Some(Val::get(&mut h)?)),
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
        pool.restore_rank(
            rank_id as u32,
            last_cycles,
            has_gpu,
            n_arrays,
            &sections[pos..pos + want],
        )?;
        pos += want;
        ctls.push(RankCtl {
            vclock,
            compute_cycles,
            comm_cycles,
            blocked: None,
            done,
            crashed: None,
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

/// The platform scope salt of a resolved persisted chain, or `None` when
/// the chain is empty/unresolvable (those degrade to a cold start
/// instead of failing the scope check).
fn chain_salt(links: &[Vec<u8>]) -> Option<u64> {
    if links.is_empty() {
        return None;
    }
    let out = chain::resolve_prefix(links);
    if out.valid_links == 0 {
        return None;
    }
    let header = out.sections.first()?;
    Reader::new(header).u64().ok()
}

/// Live checkpointing state threaded through the scheduler by
/// [`run_world_with_restart`]: the current chain epoch (sealed links,
/// base first) plus the incremental encoder positioned at its head.
struct CkptState {
    every: u64,
    rebase_every: u64,
    write_alpha: u64,
    write_bytes_per_cycle: u64,
    persist: Option<PathBuf>,
    since_last: u64,
    chain: chain::ChainState,
    links: Vec<Vec<u8>>,
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
            links: Vec::new(),
            deltas_since_base: 0,
            latest_vtime: None,
            taken: 0,
            deltas: 0,
            rebases: 0,
            bytes_written: 0,
            links_dropped: 0,
        }
    }

    /// Called by the scheduler immediately after a collective completes —
    /// the only globally consistent cut points (see [`CheckpointPolicy`]).
    fn collective_completed(
        &mut self,
        cfg: &RunCfg,
        pool: &mut dyn RankPool,
        ctls: &mut [RankCtl],
        transport: &dyn Transport,
    ) -> Result<(), SimError> {
        self.since_last += 1;
        if self.since_last < self.every {
            return Ok(());
        }
        self.since_last = 0;
        // Injected checkpoint-write I/O fault — a world-level decision
        // drawn from the first live fault stream (rank 0). The write is
        // skipped; the world keeps running on its previous snapshot.
        // Drawn before capture so full and delta modes see identical
        // streams.
        if let Some(r) = (0..cfg.size).find(|&r| pool.has_fault_plan(r)) {
            if pool.ckpt_write_fails(r)? {
                return Ok(());
            }
        }
        let sections = world_sections(cfg, pool, ctls, transport)?;
        let force_base = self.rebase_every == 0
            || self.links.is_empty()
            || self.deltas_since_base >= self.rebase_every;
        let link = self.chain.push(sections, force_base);
        self.bytes_written += link.bytes.len() as u64;
        if link.is_base {
            if !self.links.is_empty() && self.rebase_every > 0 {
                self.rebases += 1;
            }
            if let Some(path) = &self.persist {
                // Old-epoch deltas go first so a crash mid-rebase leaves
                // either the old base alone (a valid, older ancestor) or
                // the new base alone — never a base with foreign deltas
                // (parent digests would reject those anyway).
                crate::remove_persisted_deltas(path);
                crate::persist_checkpoint(path, &link.bytes);
            }
            self.links.clear();
            self.deltas_since_base = 0;
        } else {
            self.deltas += 1;
            self.deltas_since_base += 1;
            if let Some(path) = &self.persist {
                crate::persist_checkpoint(&crate::delta_path(path, link.seq), &link.bytes);
            }
        }
        let link_len = link.bytes.len() as u64;
        self.links.push(link.bytes);
        self.latest_vtime = Some(ctls.iter().map(|c| c.vclock).max().unwrap_or(0));
        self.taken += 1;
        // Charge the write cost after capture: the snapshot itself is
        // pre-cost, so a rollback also re-pays the time spent writing —
        // exactly the term delta chains shrink.
        // bytes_per_cycle == 0 means "size is free" (the default).
        let cost = self.write_alpha
            + link_len
                .checked_div(self.write_bytes_per_cycle)
                .unwrap_or(0);
        if cost > 0 {
            for ctl in ctls.iter_mut().filter(|c| c.done.is_none()) {
                ctl.vclock += cost;
                ctl.comm_cycles += cost;
            }
        }
        Ok(())
    }

    /// Resolve the current chain into runnable world state, degrading to
    /// the deepest valid ancestor: any damaged or undecodable tail link
    /// is dropped (counted) and the next-older snapshot is tried. `None`
    /// means the base itself is gone — a cold restart.
    fn restore_latest(
        &mut self,
        cfg: &RunCfg,
        pool: &mut dyn RankPool,
        transport: &mut dyn Transport,
    ) -> Option<Vec<RankCtl>> {
        loop {
            if self.links.is_empty() {
                self.latest_vtime = None;
                self.deltas_since_base = 0;
                return None;
            }
            let out = chain::resolve_prefix(&self.links);
            if out.valid_links == self.links.len() {
                match world_from_sections(cfg, pool, transport, &out.sections) {
                    Ok(ctls) => {
                        let head = self.links.last().expect("non-empty chain");
                        self.chain =
                            chain::ChainState::resume(out.sections, head, self.links.len() as u64);
                        self.deltas_since_base = (self.links.len() - 1) as u64;
                        self.latest_vtime = Some(ctls.iter().map(|c| c.vclock).max().unwrap_or(0));
                        return Some(ctls);
                    }
                    Err(_) => {
                        // Chain-valid but not decodable by this world
                        // (program/topology skew, or a pool that lost a
                        // worker mid-restore): try one link deeper.
                        self.links.pop();
                        self.links_dropped += 1;
                    }
                }
            } else {
                self.links_dropped += (self.links.len() - out.valid_links) as u64;
                self.links.truncate(out.valid_links);
            }
        }
    }
}

/// The cooperative scheduler: drives the pool's ranks to completion (or
/// a typed failure), optionally checkpointing at collective boundaries.
/// The pre-refactor `World::drive`, with every rank access behind the
/// [`RankPool`] seam and every message behind [`Transport`].
fn drive(
    cfg: &RunCfg,
    pool: &mut dyn RankPool,
    ctls: &mut [RankCtl],
    transport: &mut dyn Transport,
    mut ckpt: Option<&mut CkptState>,
) -> Result<WorldRun, SimError> {
    // Connect-phase fault draws: each live rank (re-)joins the fabric at
    // the start of an attempt, paying any injected refusal backoff.
    // Zero-rate configs draw nothing, keeping legacy streams
    // bit-identical.
    for r in 0..cfg.size {
        if ctls[r as usize].done.is_none() && pool.has_fault_plan(r) {
            let d = pool.connect_delay(r)?;
            if d > 0 {
                let ctl = &mut ctls[r as usize];
                ctl.vclock += d;
                ctl.comm_cycles += d;
            }
        }
    }

    // Collective rendezvous state.
    let mut barrier_waiters: Vec<u32> = Vec::new();
    let mut allreduce: Vec<(u32, AllOp, Val)> = Vec::new();
    let mut bcast_waiters: Vec<u32> = Vec::new();
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

        // 1. Try to unblock receivers / collectives.
        #[allow(clippy::needless_range_loop)] // ctls + transport are both indexed by r
        for r in 0..cfg.size as usize {
            let Some(Blocked::Recv {
                buf,
                off,
                count,
                src,
                tag,
            }) = ctls[r].blocked
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
            let ctl = &mut ctls[r];
            let arrival = ctl.vclock.max(avail_at);
            ctl.comm_cycles += arrival - ctl.vclock;
            ctl.vclock = arrival;
            ctl.blocked = None;
            pool.resume(r as u32, Val::Unit)?;
            progress = true;
        }

        // 2. Complete collectives when everyone arrived.
        let live = ctls.iter().filter(|c| c.done.is_none()).count() as u32;
        if !barrier_waiters.is_empty() && barrier_waiters.len() as u32 == live {
            let t = complete_collective(cfg, ctls, &barrier_waiters);
            for &r in &barrier_waiters {
                let ctl = &mut ctls[r as usize];
                ctl.vclock = t;
                ctl.blocked = None;
                pool.resume(r, Val::Unit)?;
            }
            barrier_waiters.clear();
            progress = true;
            if let Some(ck) = ckpt.as_deref_mut() {
                ck.collective_completed(cfg, pool, ctls, transport)?;
            }
        }
        if !allreduce.is_empty() && allreduce.len() as u32 == live {
            let participants: Vec<u32> = allreduce.iter().map(|(r, _, _)| *r).collect();
            let t = complete_collective(cfg, ctls, &participants);
            let op = allreduce[0].1;
            let combined = combine(op, &allreduce).map_err(|m| SimError::World {
                message: m.to_string(),
            })?;
            for &(r, _, _) in allreduce.iter() {
                let ctl = &mut ctls[r as usize];
                ctl.vclock = t;
                ctl.blocked = None;
                pool.resume(r, combined)?;
            }
            allreduce.clear();
            progress = true;
            if let Some(ck) = ckpt.as_deref_mut() {
                ck.collective_completed(cfg, pool, ctls, transport)?;
            }
        }
        if !bcast_waiters.is_empty() && bcast_waiters.len() as u32 == live {
            // Copy the root's payload into everyone else's buffer.
            let (root, count) = {
                let Some(Blocked::Bcast { root, count, .. }) =
                    &ctls[bcast_waiters[0] as usize].blocked
                else {
                    return Err(SimError::World {
                        message: "inconsistent bcast state".into(),
                    });
                };
                (*root, *count)
            };
            let mut payload = {
                let Some(Blocked::Bcast { buf, off, .. }) = &ctls[root as usize].blocked else {
                    return Err(err_on(root, "bcast root is not at the bcast"));
                };
                let (buf, off) = (*buf, *off);
                pool.read_floats(root, buf, off, count)?
            };
            // Fault injection on the broadcast payload, drawn from
            // the root's stream (collectives corrupt or delay — a
            // dropped collective is a crash, not a message fault).
            let mut extra_delay = 0;
            if pool.has_fault_plan(root) {
                match pool.collective_fault(root)? {
                    MsgFault::Corrupt => exec::fault::corrupt_f32(&mut payload),
                    MsgFault::Delay(d) => extra_delay = d,
                    MsgFault::None | MsgFault::Drop => {}
                }
            }
            let t = complete_collective(cfg, ctls, &bcast_waiters)
                + msg_cost(&cfg.cost, (count * 4) as u64)
                + extra_delay;
            for &r in &bcast_waiters {
                if r != root {
                    let Some(Blocked::Bcast { buf, off, .. }) = &ctls[r as usize].blocked else {
                        unreachable!()
                    };
                    let (buf, off) = (*buf, *off);
                    pool.write_floats(r, buf, off, &payload)?;
                }
                let ctl = &mut ctls[r as usize];
                ctl.vclock = t;
                ctl.blocked = None;
                pool.resume(r, Val::Unit)?;
            }
            bcast_waiters.clear();
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
            .filter(|&&r| {
                ctls[r].done.is_none() && ctls[r].blocked.is_none() && ctls[r].crashed.is_none()
            })
            .map(|&r| r as u32)
            .collect();
        if !ready.is_empty() {
            progress = true;
        }
        for (r, y, delta) in pool.run_slices(&ready, cfg.slice)? {
            let r = r as usize;
            {
                let ctl = &mut ctls[r];
                ctl.vclock += delta;
                ctl.compute_cycles += delta;
            }
            match y {
                RankYield::Done(v) => ctls[r].done = Some(v),
                RankYield::OutOfFuel => {}
                RankYield::Crashed { step } => {
                    // The rank is dead. Let the survivors run on —
                    // the world fails with a post-mortem once no one
                    // can make progress (see below).
                    ctls[r].crashed = Some(step);
                }
                RankYield::Misplaced => {
                    return Err(err_on(
                        r as u32,
                        "__syncthreads / __shared__ outside a kernel launch",
                    ));
                }
                RankYield::Device => match pool.service_device(r as u32)? {
                    DeviceOutcome::Advance(d) => {
                        let ctl = &mut ctls[r];
                        ctl.vclock += d;
                        ctl.comm_cycles += d;
                    }
                    DeviceOutcome::Crashed(step) => ctls[r].crashed = Some(step),
                },
                RankYield::HostCall => {
                    let backoff = pool.service_host(r as u32)?;
                    let ctl = &mut ctls[r];
                    ctl.vclock += backoff;
                    ctl.comm_cycles += backoff;
                }
                RankYield::Mpi { op, args } => {
                    service_mpi(
                        cfg,
                        pool,
                        ctls,
                        r as u32,
                        op,
                        args,
                        transport,
                        &mut barrier_waiters,
                        &mut allreduce,
                        &mut bcast_waiters,
                    )?;
                }
            }
        }

        if ctls.iter().all(|c| c.done.is_some()) {
            break;
        }
        if !progress {
            // A crashed rank explains the stall: fail with its
            // post-mortem instead of reporting a plain deadlock.
            if let Some((cr, step)) = ctls
                .iter()
                .enumerate()
                .find_map(|(i, rk)| rk.crashed.map(|s| (i as u32, s)))
            {
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
            if ctl.blocked.is_some() {
                ctl.blocked_rounds += 1;
            } else {
                ctl.blocked_rounds = 0;
            }
        }
        if let Some(bound) = cfg.timeout_rounds {
            let over = ctls
                .iter()
                .enumerate()
                .filter(|(_, rk)| rk.blocked.is_some())
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
        shared_jit: SharedCacheStats::default(),
        ranks: pool.finish(ctls)?,
        vtime,
        total_cycles,
        resilience,
        restart: RestartStats::default(),
    })
}

/// Run a world cold: fresh ranks, empty transport, one attempt.
/// Equivalent to the pre-refactor `World::run` for a [`LocalPool`] over
/// an in-memory transport.
pub fn run_world(
    cfg: &RunCfg,
    pool: &mut dyn RankPool,
    transport: &mut dyn Transport,
) -> Result<WorldRun, SimError> {
    pool.reinit()?;
    transport.clear();
    let mut ctls = vec![RankCtl::default(); cfg.size as usize];
    drive(cfg, pool, &mut ctls, transport, None)
}

/// Like [`run_world`], but checkpoint every
/// [`CheckpointPolicy::every`] completed collectives and, on
/// [`SimError::Crash`] / [`SimError::Timeout`], roll every rank back
/// to the last checkpoint (cold-restart when none exists yet), reseed
/// every fault stream past its consumed cursor, and resume — up to
/// `max_restarts` times. Other errors, and restart-budget exhaustion,
/// propagate the typed error (with its last post-mortem) unchanged.
///
/// A persisted chain found at the policy's path is warm-started from —
/// unless its platform scope salt differs from `cfg.ckpt_salt`, which
/// fails fast with [`SimError::CheckpointScope`] (a foreign platform's
/// chain must be neither restored nor silently overwritten).
pub fn run_world_with_restart(
    cfg: &RunCfg,
    pool: &mut dyn RankPool,
    transport: &mut dyn Transport,
    policy: &CheckpointPolicy,
    max_restarts: u32,
) -> Result<WorldRun, SimError> {
    let mut ck = CkptState::new(policy);
    // Warm start: a killed process may have left a persisted chain
    // behind. Unreadable, corrupt, or mismatched links simply shorten
    // the chain (deepest valid ancestor); a bad base means a cold
    // start — never an error, never a panic. A *valid* chain from a
    // different platform namespace is the one hard stop.
    if let Some(path) = ck.persist.clone() {
        ck.links = crate::load_chain_files(&path);
        if let Some(found) = chain_salt(&ck.links) {
            if found != cfg.ckpt_salt {
                return Err(SimError::CheckpointScope {
                    expected: cfg.ckpt_salt,
                    found,
                });
            }
        }
    }
    let mut stats = RestartStats::default();
    let mut carried = ResilienceStats::default();
    loop {
        let attempt = stats.restarts;
        pool.prepare_resume()?;
        // Roll back to the deepest valid snapshot in the chain,
        // degrading link by link and to a cold restart at the end.
        let mut ctls = match ck.restore_latest(cfg, pool, transport) {
            Some(ctls) => ctls,
            None => {
                pool.reinit()?;
                transport.clear();
                vec![RankCtl::default(); cfg.size as usize]
            }
        };
        if attempt > 0 {
            stats.ranks_rolled_back += ctls.iter().filter(|c| c.done.is_none()).count() as u64;
            // Everything the failed attempt observed is already in
            // `carried`; zero the counters and move every stream past
            // its consumed cursor so the fault that killed the last
            // attempt is not re-drawn identically forever.
            for r in 0..cfg.size {
                pool.reseed(r, attempt)?;
            }
        }
        match drive(cfg, pool, &mut ctls, transport, Some(&mut ck)) {
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
pub fn capture_world(
    cfg: &RunCfg,
    pool: &mut dyn RankPool,
    ctls: &[RankCtl],
    transport: &dyn Transport,
) -> Result<WorldCheckpoint, SimError> {
    let sections = world_sections(cfg, pool, ctls, transport)?;
    let vtime = ctls.iter().map(|c| c.vclock).max().unwrap_or(0);
    Ok(WorldCheckpoint {
        bytes: chain::base_link(&sections),
        vtime,
    })
}

/// Decode a standalone full snapshot ([`capture_world`]) back into the
/// pool + transport. Test-only.
#[cfg(test)]
pub fn restore_world(
    cfg: &RunCfg,
    pool: &mut dyn RankPool,
    transport: &mut dyn Transport,
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
///
/// [`World::run`]: crate::World::run
pub struct LocalPool<'p, 'a> {
    program: &'p Program,
    size: u32,
    entry: FuncId,
    make_args: ArgBuilder<'a>,
    gpu: Option<GpuConfig>,
    fault: Option<FaultConfig>,
    host: Option<&'p HostRegistry>,
    ranks: Vec<Option<LocalRank>>,
    /// Device / host-call yields parked between `run_slice` and their
    /// `service_*` call.
    pending: Vec<Option<Yield>>,
    /// OS threads each round's batch of slices runs on; 0 keeps the
    /// historical in-process serial loop (the `run_slices` default).
    workers: u32,
    /// The program decoded for `exec::run`: built by the first slice of
    /// the run, then borrowed by every rank, pool worker and device
    /// launch (restarts included). A pool that never runs — `dist`'s
    /// cold-start seed — never builds one.
    image: Option<Image<'p>>,
}

/// The pool's image, built on first use. A free function over the two
/// fields it needs so callers can hold it next to `&mut` ranks.
fn image_of<'i, 'p>(
    slot: &'i mut Option<Image<'p>>,
    program: &'p Program,
) -> Result<&'i Image<'p>, SimError> {
    if slot.is_none() {
        *slot = Some(Image::build(program).map_err(|e| SimError::World {
            message: e.to_string(),
        })?);
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
    pub fn new(
        program: &'p Program,
        size: u32,
        entry: FuncId,
        make_args: ArgBuilder<'a>,
        gpu: Option<GpuConfig>,
        fault: Option<FaultConfig>,
        host: Option<&'p HostRegistry>,
    ) -> Self {
        LocalPool {
            program,
            size,
            entry,
            make_args,
            gpu,
            fault,
            host,
            ranks: Vec::new(),
            pending: Vec::new(),
            workers: 0,
            image: None,
        }
    }

    /// Choose who runs the slices. [`ExecutorCfg::Sim`] keeps the serial
    /// loop; thread configurations batch each round over OS workers.
    pub fn with_executor(mut self, cfg: ExecutorCfg) -> Self {
        self.workers = match cfg {
            ExecutorCfg::Sim => 0,
            ExecutorCfg::Threads { workers, .. } => workers.max(1),
        };
        self
    }

    fn rank_mut(&mut self, r: u32) -> Result<&mut LocalRank, SimError> {
        live_rank(&mut self.ranks, r)
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
            result: ctl.done.flatten(),
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
    fn reinit(&mut self) -> Result<(), SimError> {
        self.ranks.clear();
        self.pending = (0..self.size).map(|_| None).collect();
        for r in 0..self.size {
            let mut machine = Machine::with_globals(self.program);
            if let Some(cfg) = self.fault {
                machine.fault = Some(FaultPlan::for_rank(cfg, r));
            }
            let args = (self.make_args)(r, &mut machine)
                .map_err(|m| err_on(r, format!("building entry args: {m}")))?;
            let thread = Thread::new(self.program, self.entry, &args)
                .map_err(|e| err_on(r, e.to_string()))?;
            let mut gpu = self.gpu.map(Gpu::new);
            if let (Some(g), Some(cfg)) = (gpu.as_mut(), self.fault) {
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

    fn run_slice(&mut self, r: u32, slice: u64) -> Result<(RankYield, u64), SimError> {
        let image = image_of(&mut self.image, self.program)?;
        let (y, delta) = {
            let rank = live_rank(&mut self.ranks, r)?;
            let y = run(&mut rank.thread, image, &mut rank.machine, slice)
                .map_err(|e| err_on(r, e.to_string()))?;
            let delta = rank.machine.counters.cycles - rank.last_cycles;
            rank.last_cycles = rank.machine.counters.cycles;
            (y, delta)
        };
        Ok((park_yield(&mut self.pending, r, y), delta))
    }

    fn run_slices(
        &mut self,
        ranks: &[u32],
        slice: u64,
    ) -> Result<Vec<(u32, RankYield, u64)>, SimError> {
        if self.workers == 0 {
            let mut out = Vec::with_capacity(ranks.len());
            for &r in ranks {
                let (y, delta) = self.run_slice(r, slice)?;
                out.push((r, y, delta));
            }
            return Ok(out);
        }
        let image = image_of(&mut self.image, self.program)?;
        // Move each ready rank's execution state into a job. The device
        // and the cycle watermark stay pool-side — slices never touch
        // them (device yields are serviced after the batch).
        let mut parked: Vec<(Option<Gpu>, u64)> = Vec::with_capacity(ranks.len());
        let mut jobs = Vec::with_capacity(ranks.len());
        for &r in ranks {
            let lr = self
                .ranks
                .get_mut(r as usize)
                .and_then(|o| o.take())
                .ok_or_else(|| SimError::World {
                    message: format!("rank {r} is not live in the local pool"),
                })?;
            parked.push((lr.gpu, lr.last_cycles));
            jobs.push(SliceJob {
                rank: r,
                thread: lr.thread,
                machine: lr.machine,
                slice,
            });
        }
        // Results come back in batch order. Reinstall every rank before
        // surfacing any error so no state is stranded.
        let mut outcomes = Vec::with_capacity(ranks.len());
        for (done, (gpu, last_cycles)) in
            run_batch(self.workers, image, jobs).into_iter().zip(parked)
        {
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
        self.rank_mut(r)?.thread.resume_with(v);
        Ok(())
    }

    fn service_device(&mut self, r: u32) -> Result<DeviceOutcome, SimError> {
        let y = self.pending[r as usize]
            .take()
            .ok_or_else(|| err_on(r, "no pending device yield"))?;
        let image = image_of(&mut self.image, self.program)?;
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
        let program = self.program;
        let registry = self.host;
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
        let program = self.program;
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
        let program = self.program;
        let rank = self.rank_mut(r)?;
        let loc = yield_location(program, &rank.thread);
        write_floats(&mut rank.machine, buf, off, payload).map_err(|m| err_on(r, locate(m, &loc)))
    }

    fn location(&mut self, r: u32) -> Option<(String, u32)> {
        self.ranks
            .get(r as usize)
            .and_then(|o| o.as_ref())
            .and_then(|rk| yield_location(self.program, &rk.thread))
    }

    fn has_fault_plan(&self, r: u32) -> bool {
        self.ranks
            .get(r as usize)
            .and_then(|o| o.as_ref())
            .is_some_and(|rk| rk.machine.fault.is_some())
    }

    fn message_fault(&mut self, r: u32) -> Result<MsgFault, SimError> {
        Ok(self
            .rank_mut(r)?
            .machine
            .fault
            .as_mut()
            .map(|p| p.message_fault())
            .unwrap_or(MsgFault::None))
    }

    fn collective_fault(&mut self, r: u32) -> Result<MsgFault, SimError> {
        Ok(self
            .rank_mut(r)?
            .machine
            .fault
            .as_mut()
            .map(|p| p.collective_fault())
            .unwrap_or(MsgFault::None))
    }

    fn transport_fault(&mut self, r: u32) -> Result<TransportFault, SimError> {
        Ok(self
            .rank_mut(r)?
            .machine
            .fault
            .as_mut()
            .map(|p| p.transport_fault())
            .unwrap_or(TransportFault::None))
    }

    fn connect_delay(&mut self, r: u32) -> Result<u64, SimError> {
        let rank = self.rank_mut(r)?;
        let Some(plan) = rank.machine.fault.as_mut() else {
            return Ok(0);
        };
        let mut attempt: u32 = 0;
        let mut total: u64 = 0;
        while plan.connect_refused() {
            attempt += 1;
            if attempt >= MAX_CONNECT_RETRIES {
                return Err(err_on(
                    r,
                    format!(
                        "transport connect refused {attempt} times \
                         (injected refusals, retry budget exhausted)"
                    ),
                ));
            }
            total += plan.backoff_cycles(attempt);
        }
        Ok(total)
    }

    fn ckpt_write_fails(&mut self, r: u32) -> Result<bool, SimError> {
        Ok(self
            .rank_mut(r)?
            .machine
            .fault
            .as_mut()
            .is_some_and(|p| p.ckpt_write_fails()))
    }

    fn capture_rank(&mut self, r: u32) -> Result<RankSnapshot, SimError> {
        let rank = self.rank_mut(r)?;
        let mut sections = Vec::new();
        let mut t = Writer::new();
        ckpt::write_thread(&mut t, &rank.thread);
        sections.push(t.into_bytes());
        sections.extend(ckpt::machine_array_sections(&rank.machine));
        let mut m = Writer::new();
        ckpt::write_machine_rest(&mut m, &rank.machine);
        sections.push(m.into_bytes());
        if let Some(gpu) = &rank.gpu {
            let mut g = Writer::new();
            ckpt::write_machine(&mut g, &gpu.machine);
            g.u64(gpu.vtime);
            g.u64(gpu.allocated_bytes);
            sections.push(g.into_bytes());
        }
        Ok(RankSnapshot {
            last_cycles: rank.last_cycles,
            has_gpu: rank.gpu.is_some(),
            sections,
        })
    }

    fn restore_rank(
        &mut self,
        r: u32,
        last_cycles: u64,
        has_gpu: bool,
        n_arrays: usize,
        sections: &[Vec<u8>],
    ) -> Result<(), CkptError> {
        fn bad(message: impl Into<String>) -> CkptError {
            CkptError::Corrupt {
                offset: 0,
                message: message.into(),
            }
        }
        let mut it = sections.iter();
        let mut section = |what: &str| {
            it.next()
                .ok_or_else(|| bad(format!("missing {what} section of rank {r}")))
        };
        let mut t = Reader::new(section("thread")?);
        let thread = ckpt::read_thread(&mut t, self.program)?;
        let mut arrays = Vec::with_capacity(n_arrays);
        for i in 0..n_arrays {
            arrays.push(Wire::from_wire(section(&format!("array {i}"))?)?);
        }
        let mut m = Reader::new(section("machine")?);
        let machine = ckpt::read_machine_rest(&mut m, arrays)?;
        // Fault plans are restored with their exact PRNG cursors;
        // device-side plans are re-armed from the world's fault config
        // (their cursors advance via `Gpu::reseed_faults` on restart
        // instead).
        let gpu = if has_gpu {
            let Some(cfg) = self.gpu else {
                return Err(bad("checkpoint has device state but this world has no GPU"));
            };
            let mut gr = Reader::new(section("device")?);
            let mut g = Gpu::new(cfg);
            g.machine = ckpt::read_machine(&mut gr)?;
            g.vtime = gr.u64()?;
            g.allocated_bytes = gr.u64()?;
            if let Some(fault) = self.fault {
                g.set_fault(device_fault_config(fault, r));
            }
            Some(g)
        } else {
            None
        };
        if (r as usize) >= self.ranks.len() {
            self.ranks.resize_with(self.size as usize, || None);
        }
        if (r as usize) >= self.pending.len() {
            self.pending.resize_with(self.size as usize, || None);
        }
        self.pending[r as usize] = None;
        self.ranks[r as usize] = Some(LocalRank {
            thread,
            machine,
            gpu,
            last_cycles,
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

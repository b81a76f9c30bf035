//! # gpu-sim — a deterministic CUDA-like device
//!
//! Models what the paper's evaluation needs from an NVIDIA M2050:
//!
//! * a **separate device memory space** with explicit `cudaMemcpy`-style
//!   transfers (the paper: "the translated code is executed in a separate
//!   memory space ... arguments are deeply copied"),
//! * `<<<grid, block>>>` **kernel launches** with `threadIdx` /
//!   `blockIdx` / `blockDim` / `gridDim` registers,
//! * per-block `__shared__` arrays and a **barrier-correct
//!   `__syncthreads`**: all threads of a block run to the barrier before
//!   any proceeds (lockstep phases over resumable `exec::Thread`s),
//! * a **virtual-time model**: kernel time = launch overhead + executed
//!   cycles spread over `lanes_per_sm × n_sms` lanes; copies cost
//!   bytes / bandwidth. All deterministic — the scalability figures are
//!   reproducible bit for bit.
//!
//! Data races between CUDA threads are resolved deterministically (threads
//! are serialized in (block, thread) order within a phase); real CUDA
//! leaves them undefined, so any program whose result depends on this is
//! out of spec anyway.

#![forbid(unsafe_code)]

use exec::{
    run, ArrStore, Entry, ExecError, FaultConfig, FaultPlan, GpuCoords, Image, Machine,
    ResilienceStats, Thread, Val, Yield,
};
use nir::FuncId;
use std::collections::HashMap;

/// Device model parameters (defaults shaped after the paper's M2050).
#[derive(Debug, Clone, Copy)]
pub struct GpuConfig {
    /// Streaming multiprocessors.
    pub n_sms: u32,
    /// Parallel lanes per SM (warp width).
    pub lanes_per_sm: u32,
    /// Fixed kernel-launch overhead (cycles).
    pub launch_overhead: u64,
    /// Host<->device copy bandwidth (bytes per cycle).
    pub copy_bytes_per_cycle: f64,
    /// Copy latency (cycles per transfer).
    pub copy_latency: u64,
}

// Sent to `dist` workers with the world's `Init`.
nir::wire_struct!(GpuConfig {
    n_sms,
    lanes_per_sm,
    launch_overhead,
    copy_bytes_per_cycle,
    copy_latency,
});

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            n_sms: 14,
            lanes_per_sm: 32,
            launch_overhead: 5_000,
            copy_bytes_per_cycle: 8.0,
            copy_latency: 2_000,
        }
    }
}

nir::counters! {
    /// Statistics of one kernel launch.
    pub struct LaunchStats [] {
        blocks,
        threads,
        /// Total cycles executed by all kernel threads.
        executed_cycles,
        /// Modeled wall time of the launch (cycles).
        kernel_time,
    }
}

/// Classification of a device error: fatal programming/configuration
/// errors vs. injected faults that the checkpoint/restart path above the
/// MPI layer can recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GpuErrorKind {
    /// Programming or configuration error; not recoverable.
    #[default]
    Fatal,
    /// A per-SM fault stream killed a kernel thread. The MPI layer
    /// converts this into a rank crash, which a checkpointed world rolls
    /// back and resumes.
    InjectedCrash { step: u64, sm: u32 },
}

/// Simulation error.
#[derive(Debug)]
pub struct GpuError {
    pub message: String,
    pub kind: GpuErrorKind,
}

impl GpuError {
    /// Was this failure injected by a device fault stream (and therefore
    /// recoverable), as opposed to a programming error?
    pub fn is_injected(&self) -> bool {
        matches!(self.kind, GpuErrorKind::InjectedCrash { .. })
    }
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu-sim error: {}", self.message)
    }
}

impl std::error::Error for GpuError {}

impl From<ExecError> for GpuError {
    fn from(e: ExecError) -> Self {
        GpuError {
            message: e.to_string(),
            kind: GpuErrorKind::Fatal,
        }
    }
}

fn err(message: impl Into<String>) -> GpuError {
    GpuError {
        message: message.into(),
        kind: GpuErrorKind::Fatal,
    }
}

/// A CUDA thread stopped at a barrier: its context and its coordinates.
struct Parked {
    thread: Thread,
    coords: Option<GpuCoords>,
}

/// The kernel-thread contexts of one launch. Every block position runs
/// on `scratch`, re-armed in place from the launch's [`Entry`], until it
/// finishes; only a thread that stops at `__syncthreads` keeps a
/// context, parked in position order, and `scratch` is replaced from
/// `free`, where a parked context goes back when its thread finishes. A
/// kernel that never reaches a barrier runs the whole launch on
/// `scratch`.
#[derive(Default)]
struct Contexts {
    scratch: Thread,
    free: Vec<Thread>,
    parked: Vec<Parked>,
    /// The phase being resumed (kept to reuse its allocation).
    resuming: Vec<Parked>,
}

/// What every block of one launch shares.
struct Launch<'l, 'p> {
    image: &'l Image<'p>,
    grid: [u32; 3],
    block: [u32; 3],
    /// Threads per block: what releasing a barrier costs, in cycles.
    threads_per_block: u64,
}

/// The simulated device: its own [`Machine`] (memory space + counters)
/// plus the accumulated busy time.
pub struct Gpu {
    pub config: GpuConfig,
    pub machine: Machine,
    /// Device-busy virtual time (cycles): launches + copies.
    pub vtime: u64,
    /// Total bytes ever allocated on the device (for memory accounting).
    pub allocated_bytes: u64,
    /// Per-SM fault decision streams (empty = no injection). Blocks are
    /// scheduled round-robin over SMs, so each block draws from the
    /// stream of the SM it lands on — decorrelated per SM, deterministic
    /// per (config, launch order).
    sm_plans: Vec<FaultPlan>,
}

impl Gpu {
    pub fn new(config: GpuConfig) -> Self {
        Gpu {
            config,
            machine: Machine::new(),
            vtime: 0,
            allocated_bytes: 0,
            sm_plans: Vec::new(),
        }
    }

    /// Arm one decorrelated fault stream per SM — the device side of the
    /// failure model. Kernel threads running on an armed device draw
    /// crash checks at every yield point; an injected hit fails the
    /// launch with [`GpuErrorKind::InjectedCrash`].
    pub fn set_fault(&mut self, config: FaultConfig) {
        self.sm_plans = (0..self.config.n_sms.max(1))
            .map(|sm| FaultPlan::for_rank(config, sm))
            .collect();
    }

    /// Merged fault counters across all SM streams.
    pub fn fault_stats(&self) -> ResilienceStats {
        let mut stats = ResilienceStats::default();
        for plan in &self.sm_plans {
            stats.merge(&plan.stats);
        }
        stats
    }

    /// Perturb every SM stream past its consumed cursor and zero its
    /// counters — the rollback path, where pre-restart counters have
    /// already been folded into the world's carried totals.
    pub fn reseed_faults(&mut self, salt: u64) {
        for plan in self.sm_plans.iter_mut() {
            plan.stats = ResilienceStats::default();
            plan.reseed(salt);
        }
    }

    fn copy_cost(&self, bytes: u64) -> u64 {
        self.config.copy_latency + (bytes as f64 / self.config.copy_bytes_per_cycle) as u64
    }

    /// Allocate a zeroed f32 array on the device.
    pub fn alloc_f32(&mut self, len: usize) -> u32 {
        self.allocated_bytes += (len * 4) as u64;
        self.machine.mem.alloc(ArrStore::F32(vec![0.0; len]))
    }

    /// Copy a host array to a fresh device array (`cudaMemcpyHostToDevice`).
    pub fn copy_in(&mut self, host: &ArrStore) -> Result<u32, GpuError> {
        let bytes = store_bytes(host)?;
        self.vtime += self.copy_cost(bytes);
        self.allocated_bytes += bytes;
        Ok(self.machine.mem.alloc(host.clone()))
    }

    /// Copy a device array back over a host array
    /// (`cudaMemcpyDeviceToHost`); lengths must match.
    pub fn copy_out(&mut self, dev: u32, host: &mut ArrStore) -> Result<(), GpuError> {
        let src = self.machine.mem.arr(dev)?.clone();
        let bytes = store_bytes(&src)?;
        if src.len()? != host.len()? {
            return Err(err("copyFromGPU length mismatch"));
        }
        self.vtime += self.copy_cost(bytes);
        *host = src;
        Ok(())
    }

    pub fn free(&mut self, h: u32) -> Result<(), GpuError> {
        self.machine.mem.free(h).map_err(GpuError::from)
    }

    /// Read a float range from device memory (partial DtoH copy). The
    /// range is checked before the copy is charged.
    pub fn read_range(&mut self, dev: u32, off: usize, len: usize) -> Result<Vec<f32>, GpuError> {
        let out = match self.machine.mem.arr(dev)? {
            ArrStore::F32(v) => off
                .checked_add(len)
                .and_then(|end| v.get(off..end))
                .map(<[f32]>::to_vec)
                .ok_or_else(|| err("device range read out of bounds"))?,
            other => return Err(err(format!("range read on non-f32 device array: {other}"))),
        };
        self.vtime += self.copy_cost((len * 4) as u64);
        Ok(out)
    }

    /// Write a float range into device memory (partial HtoD copy). The
    /// range is checked before the copy is charged.
    pub fn write_range(&mut self, dev: u32, off: usize, data: &[f32]) -> Result<(), GpuError> {
        match self.machine.mem.arr_mut(dev)? {
            ArrStore::F32(v) => {
                let n = v.len();
                off.checked_add(data.len())
                    .and_then(|end| v.get_mut(off..end))
                    .ok_or_else(|| err(format!("device range write out of bounds (len {n})")))?
                    .copy_from_slice(data);
            }
            other => return Err(err(format!("range write on non-f32 device array: {other}"))),
        }
        self.vtime += self.copy_cost((data.len() * 4) as u64);
        Ok(())
    }

    /// Execute `kernel<<<grid, block>>>(args)` with barrier-correct
    /// semantics and return the launch statistics.
    pub fn launch(
        &mut self,
        image: &Image<'_>,
        kernel: FuncId,
        grid: [u32; 3],
        block: [u32; 3],
        args: Vec<Val>,
    ) -> Result<LaunchStats, GpuError> {
        // Dimensions are any positive `i32` a program computes: their
        // products are taken in `u64`, checked, before anything is built.
        let volume = |d: [u32; 3]| d.iter().try_fold(1u64, |n, &x| n.checked_mul(x.into()));
        let (threads_per_block, n_blocks) = match (volume(block), volume(grid)) {
            (Some(0), _) | (_, Some(0)) => return Err(err("empty launch configuration")),
            (Some(t), Some(b)) if t <= 1024 => (t, b),
            (_, Some(_)) => {
                return Err(err(format!(
                    "block {block:?} exceeds the 1024-thread limit"
                )))
            }
            (_, None) => return Err(err(format!("grid {grid:?} has more than 2^64 blocks"))),
        };
        // The arguments are checked once, before any instruction retires.
        let entry = Entry::new(image.program(), kernel, &args)?;
        let start_cycles = self.machine.counters.cycles;
        let launch = Launch {
            image,
            grid,
            block,
            threads_per_block,
        };
        self.machine.gpu_entry = Some(entry);
        let res = self.run_grid(&launch, &mut Contexts::default());
        self.machine.gpu_entry = None;
        res?;

        let executed = self.machine.counters.cycles - start_cycles;
        let lanes = (self.config.n_sms * self.config.lanes_per_sm) as u64;
        let kernel_time = self.config.launch_overhead + executed / lanes.max(1);
        self.vtime += kernel_time;
        Ok(LaunchStats {
            blocks: n_blocks,
            threads: n_blocks * threads_per_block,
            executed_cycles: executed,
            kernel_time,
        })
    }

    /// Run every block in (z, y, x) order.
    fn run_grid(&mut self, l: &Launch<'_, '_>, cx: &mut Contexts) -> Result<(), GpuError> {
        let mut linear: u64 = 0;
        for bz in 0..l.grid[2] {
            for by in 0..l.grid[1] {
                for bx in 0..l.grid[0] {
                    // Round-robin block-to-SM assignment; the block's
                    // threads draw fault decisions from that SM's stream
                    // (installed as the machine's plan for the duration).
                    let sm = (linear % self.sm_plans.len().max(1) as u64) as usize;
                    let armed = !self.sm_plans.is_empty();
                    let saved = self.machine.fault.take();
                    if armed {
                        self.machine.fault = Some(self.sm_plans[sm].clone());
                    }
                    let res = self.run_block(l, [bx, by, bz], sm as u32, cx);
                    self.machine.gpu_coords = None;
                    if armed {
                        if let Some(plan) = self.machine.fault.take() {
                            self.sm_plans[sm] = plan;
                        }
                    }
                    self.machine.fault = saved;
                    res?;
                    linear += 1;
                }
            }
        }
        Ok(())
    }

    /// Run one block's threads in lockstep phases separated by
    /// `__syncthreads`: every position in (z, y, x) order first, then,
    /// while any thread is parked at a barrier, the parked ones in the
    /// same order. Threads that already returned count as arrived (the
    /// common hardware behavior for exited threads).
    ///
    /// The first phase is one cursor loop: arm, run, park at a barrier,
    /// advance. On an unarmed device `run` itself starts the next
    /// position when a thread returns ([`Machine::next_position`]), so it
    /// comes back only at a barrier or after the block's last position;
    /// on an armed one it comes back after every thread, as it must for
    /// each fault draw to fall where it does, and the loop advances.
    ///
    /// The block's `__shared__` arrays are freed when its last phase
    /// ends. A failed block fails its launch, and a world that recovers
    /// from it restores the whole device.
    fn run_block(
        &mut self,
        l: &Launch<'_, '_>,
        block_idx: [u32; 3],
        sm: u32,
        cx: &mut Contexts,
    ) -> Result<(), GpuError> {
        // Per-block shared arrays, keyed by allocation site (pc).
        let mut shared: HashMap<u32, u32> = HashMap::new();
        self.machine.gpu_coords = Some(GpuCoords {
            thread_idx: [0; 3],
            block_idx,
            block_dim: l.block,
            grid_dim: l.grid,
        });
        // At most 1024 (checked at launch).
        self.machine.gpu_left = (l.threads_per_block - 1) as u32;
        if let Some(entry) = &self.machine.gpu_entry {
            cx.scratch.arm(entry);
        }
        loop {
            if self.run_thread(l.image, &mut cx.scratch, &mut shared, sm)? {
                let fresh = cx.free.pop().unwrap_or_default();
                cx.parked.push(Parked {
                    thread: std::mem::replace(&mut cx.scratch, fresh),
                    coords: self.machine.gpu_coords,
                });
            }
            if self.machine.next_position(&mut cx.scratch).is_none() {
                break;
            }
        }
        while !cx.parked.is_empty() {
            // Barrier cost: one sweep of the block.
            self.machine.counters.cycles += l.threads_per_block;
            std::mem::swap(&mut cx.parked, &mut cx.resuming);
            for mut p in cx.resuming.drain(..) {
                self.machine.gpu_coords = p.coords;
                if self.run_thread(l.image, &mut p.thread, &mut shared, sm)? {
                    cx.parked.push(p);
                } else {
                    cx.free.push(p.thread);
                }
            }
        }
        for h in shared.into_values() {
            self.machine.mem.free(h)?;
        }
        Ok(())
    }

    /// Run kernel threads from `thread` at [`Machine::gpu_coords`] until
    /// one stops at a barrier (`true`) or `run` returns `Done` (`false`);
    /// `run` answers their coordinate reads.
    fn run_thread(
        &mut self,
        image: &Image<'_>,
        thread: &mut Thread,
        shared: &mut HashMap<u32, u32>,
        sm: u32,
    ) -> Result<bool, GpuError> {
        loop {
            match run(thread, image, &mut self.machine, u64::MAX)? {
                Yield::Done(_) => return Ok(false),
                Yield::Sync => return Ok(true),
                Yield::SharedAlloc { elem, len, pc } => {
                    let h = *shared
                        .entry(pc)
                        .or_insert_with(|| self.machine.mem.alloc(ArrStore::new(elem, len)));
                    thread
                        .resume_with(image.program(), Val::Arr(h))
                        .expect("a verified SharedAlloc's destination holds an array handle");
                }
                Yield::GpuMem { op, .. } => {
                    return Err(err(format!("kernel performed host-only operation {op:?}")))
                }
                Yield::Mpi { .. } => return Err(err("kernel attempted an MPI operation")),
                Yield::Launch { .. } => return Err(err("nested kernel launch is not supported")),
                Yield::Host { .. } => {
                    return Err(err("kernels cannot call host (foreign) functions"))
                }
                Yield::OutOfFuel => {}
                Yield::Crashed { step } => {
                    return Err(GpuError {
                        message: format!(
                            "injected fault crashed a kernel thread on SM {sm} at step {step}"
                        ),
                        kind: GpuErrorKind::InjectedCrash { step, sm },
                    });
                }
            }
        }
    }
}

/// Size in bytes of an array store.
fn store_bytes(s: &ArrStore) -> Result<u64, GpuError> {
    let n = s.len()? as u64;
    Ok(match s {
        ArrStore::I32(_) | ArrStore::F32(_) => n * 4,
        ArrStore::I64(_) | ArrStore::F64(_) => n * 8,
        ArrStore::Bool(_) => n,
        ArrStore::Freed => 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jlang::ast::BinOp;
    use jlang::types::PrimKind;
    use nir::{ElemTy, FuncBuilder, FuncKind, Instr, IntrinOp, Program, Ty};

    /// Build a kernel: a[global_id] = a[global_id] * 2
    pub(super) fn scale_kernel(p: &mut Program) -> FuncId {
        let mut kb = FuncBuilder::new("scale", vec![Ty::Arr(ElemTy::F32)], None, FuncKind::Kernel);
        let tid = kb.reg(Ty::I32);
        let bid = kb.reg(Ty::I32);
        let bdim = kb.reg(Ty::I32);
        let gid = kb.reg(Ty::I32);
        let tmp = kb.reg(Ty::I32);
        let len = kb.reg(Ty::I32);
        let inb = kb.reg(Ty::Bool);
        let v = kb.reg(Ty::F32);
        let two = kb.reg(Ty::F32);
        let body = kb.label();
        let done = kb.label();
        kb.emit(Instr::Intrin {
            op: IntrinOp::ThreadIdx(0),
            args: vec![],
            dst: Some(tid),
        });
        kb.emit(Instr::Intrin {
            op: IntrinOp::BlockIdx(0),
            args: vec![],
            dst: Some(bid),
        });
        kb.emit(Instr::Intrin {
            op: IntrinOp::BlockDim(0),
            args: vec![],
            dst: Some(bdim),
        });
        kb.emit(Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Int,
            dst: tmp,
            lhs: bid,
            rhs: bdim,
        });
        kb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: gid,
            lhs: tmp,
            rhs: tid,
        });
        kb.emit(Instr::ArrLen { arr: 0, dst: len });
        kb.emit(Instr::Bin {
            op: BinOp::Lt,
            kind: PrimKind::Int,
            dst: inb,
            lhs: gid,
            rhs: len,
        });
        kb.br(inb, body, done);
        kb.bind(body);
        kb.emit(Instr::LdArr {
            arr: 0,
            idx: gid,
            dst: v,
        });
        kb.emit(Instr::ConstF32(two, 2.0));
        kb.emit(Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Float,
            dst: v,
            lhs: v,
            rhs: two,
        });
        kb.emit(Instr::StArr {
            arr: 0,
            idx: gid,
            src: v,
        });
        kb.jmp(done);
        kb.bind(done);
        kb.emit(Instr::Ret(None));
        p.add_func(kb.finish().unwrap())
    }

    #[test]
    fn memcpy_roundtrip_is_a_deep_copy() {
        let mut gpu = Gpu::new(GpuConfig::default());
        let host = ArrStore::F32(vec![1.0, 2.0, 3.0]);
        let dev = gpu.copy_in(&host).unwrap();
        gpu.machine
            .mem
            .arr_mut(dev)
            .unwrap()
            .set(0, Val::F32(9.0))
            .unwrap();
        let mut back = ArrStore::F32(vec![0.0; 3]);
        gpu.copy_out(dev, &mut back).unwrap();
        assert_eq!(back, ArrStore::F32(vec![9.0, 2.0, 3.0]));
        // The original host store is unaffected (separate memory space).
        assert_eq!(host, ArrStore::F32(vec![1.0, 2.0, 3.0]));
        assert!(gpu.vtime > 0, "copies must cost virtual time");
    }

    #[test]
    fn kernel_scales_array_across_blocks() {
        let mut p = Program::default();
        let k = scale_kernel(&mut p);
        let image = Image::build(&p).unwrap();
        p.verify().unwrap();
        let mut gpu = Gpu::new(GpuConfig::default());
        let dev = gpu
            .copy_in(&ArrStore::F32((0..10).map(|i| i as f32).collect()))
            .unwrap();
        let stats = gpu
            .launch(&image, k, [3, 1, 1], [4, 1, 1], vec![Val::Arr(dev)])
            .unwrap();
        assert_eq!(stats.blocks, 3);
        assert_eq!(stats.threads, 12);
        let mut out = ArrStore::F32(vec![0.0; 10]);
        gpu.copy_out(dev, &mut out).unwrap();
        assert_eq!(
            out,
            ArrStore::F32((0..10).map(|i| 2.0 * i as f32).collect())
        );
    }

    /// Kernel with a shared-memory reversal: t writes s[t], barrier,
    /// t reads s[blockDim-1-t]. Fails without a correct barrier.
    pub(super) fn reverse_kernel(p: &mut Program) -> FuncId {
        let mut kb = FuncBuilder::new("rev", vec![Ty::Arr(ElemTy::F32)], None, FuncKind::Kernel);
        let tid = kb.reg(Ty::I32);
        let bdim = kb.reg(Ty::I32);
        let sh = kb.reg(Ty::Arr(ElemTy::F32));
        let v = kb.reg(Ty::F32);
        let one = kb.reg(Ty::I32);
        let ridx = kb.reg(Ty::I32);
        kb.emit(Instr::Intrin {
            op: IntrinOp::ThreadIdx(0),
            args: vec![],
            dst: Some(tid),
        });
        kb.emit(Instr::Intrin {
            op: IntrinOp::BlockDim(0),
            args: vec![],
            dst: Some(bdim),
        });
        kb.emit(Instr::SharedAlloc {
            elem: ElemTy::F32,
            len: bdim,
            dst: sh,
        });
        kb.emit(Instr::LdArr {
            arr: 0,
            idx: tid,
            dst: v,
        });
        kb.emit(Instr::StArr {
            arr: sh,
            idx: tid,
            src: v,
        });
        kb.emit(Instr::Sync);
        kb.emit(Instr::ConstI32(one, 1));
        kb.emit(Instr::Bin {
            op: BinOp::Sub,
            kind: PrimKind::Int,
            dst: ridx,
            lhs: bdim,
            rhs: one,
        });
        kb.emit(Instr::Bin {
            op: BinOp::Sub,
            kind: PrimKind::Int,
            dst: ridx,
            lhs: ridx,
            rhs: tid,
        });
        kb.emit(Instr::LdArr {
            arr: sh,
            idx: ridx,
            dst: v,
        });
        kb.emit(Instr::StArr {
            arr: 0,
            idx: tid,
            src: v,
        });
        kb.emit(Instr::Ret(None));
        p.add_func(kb.finish().unwrap())
    }

    #[test]
    fn syncthreads_is_barrier_correct() {
        let mut p = Program::default();
        let k = reverse_kernel(&mut p);
        let image = Image::build(&p).unwrap();
        p.verify().unwrap();
        let mut gpu = Gpu::new(GpuConfig::default());
        let dev = gpu
            .copy_in(&ArrStore::F32(vec![1.0, 2.0, 3.0, 4.0, 5.0]))
            .unwrap();
        gpu.launch(&image, k, [1, 1, 1], [5, 1, 1], vec![Val::Arr(dev)])
            .unwrap();
        let mut out = ArrStore::F32(vec![0.0; 5]);
        gpu.copy_out(dev, &mut out).unwrap();
        // A sequential run-to-completion would read stale zeros for
        // indices written by later threads; the barrier makes it correct.
        assert_eq!(out, ArrStore::F32(vec![5.0, 4.0, 3.0, 2.0, 1.0]));
    }

    #[test]
    fn shared_memory_is_per_block() {
        // Two blocks run the reversal over the same 3 elements; reversing
        // twice restores the original order. Requires per-block shared
        // arrays (a shared global would corrupt the second pass).
        let mut p = Program::default();
        let k = reverse_kernel(&mut p);
        let image = Image::build(&p).unwrap();
        let mut gpu = Gpu::new(GpuConfig::default());
        let dev = gpu.copy_in(&ArrStore::F32(vec![1.0, 2.0, 3.0])).unwrap();
        gpu.launch(&image, k, [2, 1, 1], [3, 1, 1], vec![Val::Arr(dev)])
            .unwrap();
        let mut out = ArrStore::F32(vec![0.0; 3]);
        gpu.copy_out(dev, &mut out).unwrap();
        assert_eq!(out, ArrStore::F32(vec![1.0, 2.0, 3.0]));
    }

    /// A block's `__shared__` arrays die with the block: after any number
    /// of launches, only what the host allocated is live (a device
    /// checkpoint writes every array the device memory holds).
    #[test]
    fn shared_arrays_are_freed_when_their_block_ends() {
        let mut p = Program::default();
        let k = reverse_kernel(&mut p);
        let image = Image::build(&p).unwrap();
        let mut gpu = Gpu::new(GpuConfig::default());
        let dev = gpu.copy_in(&ArrStore::F32(vec![1.0; 4])).unwrap();
        let spare = gpu.alloc_f32(4);
        let live = |gpu: &Gpu| -> Vec<u32> {
            let arrays = gpu.machine.mem.arrays().iter();
            (0u32..)
                .zip(arrays)
                .filter(|(_, a)| !matches!(a, ArrStore::Freed))
                .map(|(h, _)| h)
                .collect()
        };
        for _ in 0..3 {
            gpu.launch(&image, k, [16, 1, 1], [4, 1, 1], vec![Val::Arr(dev)])
                .unwrap();
            assert_eq!(live(&gpu), vec![dev, spare]);
        }
    }

    /// A launch checks its arguments once, against the kernel's
    /// parameters, and refuses a wrong one with the text a thread's
    /// entry gives, before any instruction retires.
    #[test]
    fn launch_arguments_are_refused_before_any_thread_runs() {
        let mut p = Program::default();
        let k = scale_kernel(&mut p);
        let image = Image::build(&p).unwrap();
        let mut gpu = Gpu::new(GpuConfig::default());
        let dev = gpu.copy_in(&ArrStore::F32(vec![1.0; 8])).unwrap();
        let before = gpu.vtime;
        let cases = [
            (
                vec![Val::Arr(dev), Val::I32(1)],
                "`scale` expects 1 args, got 2",
            ),
            (
                vec![Val::I32(3)],
                "argument 0 of `scale` is I32(3), expected Arr(F32)",
            ),
        ];
        for (args, why) in cases {
            let e = gpu
                .launch(&image, k, [2, 1, 1], [4, 1, 1], args)
                .unwrap_err();
            assert_eq!(e.message, format!("exec error in `scale` at pc 0: {why}"));
            assert_eq!(e.kind, GpuErrorKind::Fatal);
        }
        let c = gpu.machine.counters;
        assert_eq!((c.instrs, c.cycles, gpu.vtime), (0, 0, before));
    }

    #[test]
    fn launch_time_scales_with_work() {
        let mut p = Program::default();
        let k = scale_kernel(&mut p);
        let image = Image::build(&p).unwrap();
        let mut gpu = Gpu::new(GpuConfig::default());
        let small = gpu.copy_in(&ArrStore::F32(vec![0.0; 64])).unwrap();
        let s1 = gpu
            .launch(&image, k, [2, 1, 1], [32, 1, 1], vec![Val::Arr(small)])
            .unwrap();
        let big = gpu.copy_in(&ArrStore::F32(vec![0.0; 4096])).unwrap();
        let s2 = gpu
            .launch(&image, k, [128, 1, 1], [32, 1, 1], vec![Val::Arr(big)])
            .unwrap();
        assert!(s2.executed_cycles > s1.executed_cycles);
        assert!(s2.kernel_time > s1.kernel_time);
        // More SMs => faster kernels for the same work.
        let mut fat = Gpu::new(GpuConfig {
            n_sms: 28,
            ..GpuConfig::default()
        });
        let big2 = fat.copy_in(&ArrStore::F32(vec![0.0; 4096])).unwrap();
        let s3 = fat
            .launch(&image, k, [128, 1, 1], [32, 1, 1], vec![Val::Arr(big2)])
            .unwrap();
        assert!(s3.kernel_time < s2.kernel_time);
    }

    #[test]
    fn oversized_block_rejected() {
        let mut p = Program::default();
        let k = scale_kernel(&mut p);
        let image = Image::build(&p).unwrap();
        let mut gpu = Gpu::new(GpuConfig::default());
        let dev = gpu.copy_in(&ArrStore::F32(vec![0.0; 4])).unwrap();
        let e = gpu
            .launch(&image, k, [1, 1, 1], [2048, 1, 1], vec![Val::Arr(dev)])
            .unwrap_err();
        assert!(e.message.contains("1024"), "{e}");
    }

    /// Block `[65536, 65536, 2]` multiplies to 2^33 threads: wrapped in
    /// `u32` it read 0 ("empty") in release and panicked in debug.
    #[test]
    fn launch_dimensions_multiply_without_wrapping() {
        let mut p = Program::default();
        let k = scale_kernel(&mut p);
        let image = Image::build(&p).unwrap();
        let mut gpu = Gpu::new(GpuConfig::default());
        let dev = gpu.copy_in(&ArrStore::F32(vec![0.0; 4])).unwrap();
        let mut launch = |grid, block| {
            gpu.launch(&image, k, grid, block, vec![Val::Arr(dev)])
                .unwrap_err()
                .message
        };
        let e = launch([1, 1, 1], [65536, 65536, 2]);
        assert!(e.contains("1024-thread limit"), "{e}");
        // 2^32 × 2^16 wraps to 0 in u32 but is 2^48 in u64.
        let e = launch([1, 1, 1], [65536, 65536, 65536]);
        assert!(e.contains("1024-thread limit"), "{e}");
        let max = i32::MAX as u32;
        let e = launch([max, max, max], [1, 1, 1]);
        assert!(e.contains("more than 2^64 blocks"), "{e}");
        assert_eq!(gpu.machine.counters.instrs, 0, "nothing may run");
    }

    #[test]
    fn range_copies_check_bounds_before_charging() {
        let mut gpu = Gpu::new(GpuConfig::default());
        let dev = gpu.copy_in(&ArrStore::F32(vec![1.0; 4])).unwrap();
        let before = gpu.vtime;
        for (off, len) in [(usize::MAX, 2), (0, usize::MAX), (3, 2)] {
            let e = gpu.read_range(dev, off, len).unwrap_err();
            assert!(e.message.contains("out of bounds"), "{e}");
        }
        for off in [usize::MAX, 3] {
            let e = gpu.write_range(dev, off, &[2.0, 2.0]).unwrap_err();
            assert!(e.message.contains("out of bounds"), "{e}");
        }
        assert_eq!(gpu.vtime, before, "a refused copy costs nothing");
        assert_eq!(gpu.read_range(dev, 1, 3).unwrap(), vec![1.0; 3]);
        gpu.write_range(dev, 2, &[5.0, 6.0]).unwrap();
        assert_eq!(gpu.read_range(dev, 0, 4).unwrap(), vec![1.0, 1.0, 5.0, 6.0]);
    }

    #[test]
    fn injected_device_crash_is_typed_and_deterministic() {
        let mut p = Program::default();
        let k = scale_kernel(&mut p);
        let image = Image::build(&p).unwrap();
        p.verify().unwrap();
        let run_once = || {
            let mut gpu = Gpu::new(GpuConfig::default());
            gpu.set_fault(FaultConfig {
                crash: 1.0,
                ..FaultConfig::seeded(77)
            });
            let dev = gpu.copy_in(&ArrStore::F32(vec![1.0; 16])).unwrap();
            let e = gpu
                .launch(&image, k, [2, 1, 1], [8, 1, 1], vec![Val::Arr(dev)])
                .unwrap_err();
            assert!(e.is_injected(), "{e}");
            assert!(gpu.fault_stats().crashes >= 1);
            let GpuErrorKind::InjectedCrash { step, sm } = e.kind else {
                panic!("expected InjectedCrash, got {:?}", e.kind);
            };
            (step, sm)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn zero_rate_device_plans_change_nothing() {
        let mut p = Program::default();
        let k = scale_kernel(&mut p);
        let image = Image::build(&p).unwrap();
        p.verify().unwrap();
        let mut armed = Gpu::new(GpuConfig::default());
        armed.set_fault(FaultConfig::seeded(5));
        let dev = armed
            .copy_in(&ArrStore::F32((0..10).map(|i| i as f32).collect()))
            .unwrap();
        armed
            .launch(&image, k, [3, 1, 1], [4, 1, 1], vec![Val::Arr(dev)])
            .unwrap();
        let mut out = ArrStore::F32(vec![0.0; 10]);
        armed.copy_out(dev, &mut out).unwrap();
        assert_eq!(
            out,
            ArrStore::F32((0..10).map(|i| 2.0 * i as f32).collect())
        );
        assert_eq!(armed.fault_stats(), ResilienceStats::default());
    }

    #[test]
    fn range_errors_name_the_array_without_its_elements() {
        let mut gpu = Gpu::new(GpuConfig::default());
        let dev = gpu.copy_in(&ArrStore::I32(vec![0; 1_000_000])).unwrap();
        let read = gpu.read_range(dev, 0, 4).unwrap_err().message;
        let write = gpu.write_range(dev, 0, &[1.0]).unwrap_err().message;
        for (e, what) in [(read, "read"), (write, "write")] {
            assert!(e.len() < 200, "{} bytes", e.len());
            assert_eq!(
                e,
                format!("range {what} on non-f32 device array: i32 array of length 1000000")
            );
        }
    }

    #[test]
    fn determinism_across_runs() {
        let mut p = Program::default();
        let k = scale_kernel(&mut p);
        let image = Image::build(&p).unwrap();
        let run_once = || {
            let mut gpu = Gpu::new(GpuConfig::default());
            let dev = gpu.copy_in(&ArrStore::F32(vec![1.0; 100])).unwrap();
            let stats = gpu
                .launch(&image, k, [4, 1, 1], [32, 1, 1], vec![Val::Arr(dev)])
                .unwrap();
            (stats.executed_cycles, stats.kernel_time, gpu.vtime)
        };
        assert_eq!(run_once(), run_once());
    }
}

#[cfg(test)]
mod tests_3d {
    use super::*;
    use jlang::ast::BinOp;
    use jlang::types::PrimKind;
    use nir::{ElemTy, FuncBuilder, FuncKind, Instr, IntrinOp, Program, Reg, Ty};

    /// Kernel writing a[linear(gid3)] = bx*100 + by*10 + bz + tz over a
    /// 3-D grid of 3-D blocks, exercising the y/z coordinate registers.
    pub(super) fn k3_kernel(p: &mut Program) -> FuncId {
        let mut kb = FuncBuilder::new("k3", vec![Ty::Arr(ElemTy::F32)], None, FuncKind::Kernel);
        let bx = kb.reg(Ty::I32);
        let by = kb.reg(Ty::I32);
        let bz = kb.reg(Ty::I32);
        let tz = kb.reg(Ty::I32);
        let gy = kb.reg(Ty::I32);
        let gz = kb.reg(Ty::I32);
        let idx = kb.reg(Ty::I32);
        let tmp = kb.reg(Ty::I32);
        let v = kb.reg(Ty::F32);
        kb.emit(Instr::Intrin {
            op: IntrinOp::BlockIdx(0),
            args: vec![],
            dst: Some(bx),
        });
        kb.emit(Instr::Intrin {
            op: IntrinOp::BlockIdx(1),
            args: vec![],
            dst: Some(by),
        });
        kb.emit(Instr::Intrin {
            op: IntrinOp::BlockIdx(2),
            args: vec![],
            dst: Some(bz),
        });
        kb.emit(Instr::Intrin {
            op: IntrinOp::ThreadIdx(2),
            args: vec![],
            dst: Some(tz),
        });
        kb.emit(Instr::Intrin {
            op: IntrinOp::GridDim(1),
            args: vec![],
            dst: Some(gy),
        });
        kb.emit(Instr::Intrin {
            op: IntrinOp::GridDim(2),
            args: vec![],
            dst: Some(gz),
        });
        // idx = ((bx * gridDim.y + by) * gridDim.z + bz) * 2 + tz
        kb.emit(Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Int,
            dst: idx,
            lhs: bx,
            rhs: gy,
        });
        kb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: idx,
            lhs: idx,
            rhs: by,
        });
        kb.emit(Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Int,
            dst: idx,
            lhs: idx,
            rhs: gz,
        });
        kb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: idx,
            lhs: idx,
            rhs: bz,
        });
        kb.emit(Instr::ConstI32(tmp, 2));
        kb.emit(Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Int,
            dst: idx,
            lhs: idx,
            rhs: tmp,
        });
        kb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: idx,
            lhs: idx,
            rhs: tz,
        });
        // value = bx*100 + by*10 + bz + tz (v is an f32 reg reserved above
        // and unused by the integer accumulation).
        let _reserved: Reg = v;
        let _ = _reserved;
        let acc = kb.reg(Ty::I32);
        let t2 = kb.reg(Ty::I32);
        kb.emit(Instr::ConstI32(tmp, 100));
        kb.emit(Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Int,
            dst: acc,
            lhs: bx,
            rhs: tmp,
        });
        kb.emit(Instr::ConstI32(tmp, 10));
        kb.emit(Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Int,
            dst: t2,
            lhs: by,
            rhs: tmp,
        });
        kb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: acc,
            lhs: acc,
            rhs: t2,
        });
        kb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: acc,
            lhs: acc,
            rhs: bz,
        });
        kb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: acc,
            lhs: acc,
            rhs: tz,
        });
        let vf = kb.reg(Ty::F32);
        kb.emit(Instr::Cast {
            to: PrimKind::Float,
            from: PrimKind::Int,
            dst: vf,
            src: acc,
        });
        kb.emit(Instr::StArr {
            arr: 0,
            idx,
            src: vf,
        });
        kb.emit(Instr::Ret(None));
        p.add_func(kb.finish().unwrap())
    }

    #[test]
    fn three_dimensional_launch_coordinates() {
        let mut p = Program::default();
        let k = k3_kernel(&mut p);
        p.verify().unwrap();
        let image = Image::build(&p).unwrap();

        let mut gpu = Gpu::new(GpuConfig::default());
        // grid 2x3x2, block 1x1x2 -> 24 cells
        let dev = gpu.copy_in(&ArrStore::F32(vec![-1.0; 24])).unwrap();
        gpu.launch(&image, k, [2, 3, 2], [1, 1, 2], vec![Val::Arr(dev)])
            .unwrap();
        let mut out = ArrStore::F32(vec![0.0; 24]);
        gpu.copy_out(dev, &mut out).unwrap();
        let ArrStore::F32(o) = out else { panic!() };
        // Check a few coordinates: (bx,by,bz,tz)=(1,2,1,1):
        // idx = ((1*3+2)*2+1)*2+1 = 23; value = 100+20+1+1 = 122.
        assert_eq!(o[23], 122.0);
        // (0,0,0,0) -> idx 0, value 0.
        assert_eq!(o[0], 0.0);
        // Every cell written (no -1 left).
        assert!(o.iter().all(|v| *v >= 0.0), "{o:?}");
    }
}

/// Every observable of a launch, pinned per kernel: the launch statistics,
/// the device clock, the retired-instruction count, the output array and,
/// on an armed device, the exact crash and the fault counters. A change to
/// how blocks are run must leave all of them where they are.
#[cfg(test)]
mod pins {
    use super::tests::{reverse_kernel, scale_kernel};
    use super::tests_3d::k3_kernel;
    use super::*;
    use jlang::ast::BinOp;
    use jlang::types::PrimKind;
    use nir::{ElemTy, FuncBuilder, FuncKind, Instr, IntrinOp, Program, Reg, Ty};

    type Builder = fn(&mut Program) -> FuncId;

    fn coord(kb: &mut FuncBuilder, op: IntrinOp) -> Reg {
        let r = kb.reg(Ty::I32);
        kb.emit(Instr::Intrin {
            op,
            args: vec![],
            dst: Some(r),
        });
        r
    }

    fn int(kb: &mut FuncBuilder, op: BinOp, lhs: Reg, rhs: Reg) -> Reg {
        let dst = kb.reg(Ty::I32);
        kb.emit(Instr::Bin {
            op,
            kind: PrimKind::Int,
            dst,
            lhs,
            rhs,
        });
        dst
    }

    fn konst(kb: &mut FuncBuilder, v: i32) -> Reg {
        let r = kb.reg(Ty::I32);
        kb.emit(Instr::ConstI32(r, v));
        r
    }

    /// `(tid, gid, blockDim.x, shared[blockDim.x])` of a 1-D kernel.
    fn prologue(kb: &mut FuncBuilder) -> (Reg, Reg, Reg, Reg) {
        let tid = coord(kb, IntrinOp::ThreadIdx(0));
        let bid = coord(kb, IntrinOp::BlockIdx(0));
        let bdim = coord(kb, IntrinOp::BlockDim(0));
        let base = int(kb, BinOp::Mul, bid, bdim);
        let gid = int(kb, BinOp::Add, base, tid);
        let sh = kb.reg(Ty::Arr(ElemTy::F32));
        kb.emit(Instr::SharedAlloc {
            elem: ElemTy::F32,
            len: bdim,
            dst: sh,
        });
        (tid, gid, bdim, sh)
    }

    /// Odd threads return before `__syncthreads`; even thread `t` then
    /// reads the value even thread `(t + 2) % blockDim` staged in shared
    /// memory. Only half of each block parks at the barrier.
    fn odd_return_kernel(p: &mut Program) -> FuncId {
        let mut kb = FuncBuilder::new("odd", vec![Ty::Arr(ElemTy::F32)], None, FuncKind::Kernel);
        let tid = coord(&mut kb, IntrinOp::ThreadIdx(0));
        let one = konst(&mut kb, 1);
        let zero = konst(&mut kb, 0);
        let bit = int(&mut kb, BinOp::BitAnd, tid, one);
        let odd = kb.reg(Ty::Bool);
        kb.emit(Instr::Bin {
            op: BinOp::Ne,
            kind: PrimKind::Int,
            dst: odd,
            lhs: bit,
            rhs: zero,
        });
        let leave = kb.label();
        let stay = kb.label();
        kb.br(odd, leave, stay);
        kb.bind(leave);
        kb.emit(Instr::Ret(None));
        kb.bind(stay);
        let (tid, gid, bdim, sh) = prologue(&mut kb);
        let v = kb.reg(Ty::F32);
        kb.emit(Instr::LdArr {
            arr: 0,
            idx: gid,
            dst: v,
        });
        kb.emit(Instr::StArr {
            arr: sh,
            idx: tid,
            src: v,
        });
        kb.emit(Instr::Sync);
        let two = konst(&mut kb, 2);
        let j = int(&mut kb, BinOp::Add, tid, two);
        let j = int(&mut kb, BinOp::Rem, j, bdim);
        kb.emit(Instr::LdArr {
            arr: sh,
            idx: j,
            dst: v,
        });
        kb.emit(Instr::StArr {
            arr: 0,
            idx: gid,
            src: v,
        });
        kb.emit(Instr::Ret(None));
        p.add_func(kb.finish().unwrap())
    }

    /// Two barriers around two racy phases: thread `t` stages its value
    /// in `shared[t]`, then after each barrier adds `shared[0]` to it and
    /// stores the sum back in `shared[t]`. Thread 0 overwrites `shared[0]`
    /// first when threads resume in position order, so what every other
    /// thread adds — and the output — depends on that order in both
    /// phases.
    fn two_sync_kernel(p: &mut Program) -> FuncId {
        let mut kb = FuncBuilder::new("two", vec![Ty::Arr(ElemTy::F32)], None, FuncKind::Kernel);
        let (tid, gid, _, sh) = prologue(&mut kb);
        let v = kb.reg(Ty::F32);
        kb.emit(Instr::LdArr {
            arr: 0,
            idx: gid,
            dst: v,
        });
        kb.emit(Instr::StArr {
            arr: sh,
            idx: tid,
            src: v,
        });
        let zero = konst(&mut kb, 0);
        let w = kb.reg(Ty::F32);
        for _ in 0..2 {
            kb.emit(Instr::Sync);
            kb.emit(Instr::LdArr {
                arr: sh,
                idx: zero,
                dst: w,
            });
            kb.emit(Instr::Bin {
                op: BinOp::Add,
                kind: PrimKind::Float,
                dst: v,
                lhs: v,
                rhs: w,
            });
            kb.emit(Instr::StArr {
                arr: sh,
                idx: tid,
                src: v,
            });
        }
        kb.emit(Instr::StArr {
            arr: 0,
            idx: gid,
            src: v,
        });
        kb.emit(Instr::Ret(None));
        p.add_func(kb.finish().unwrap())
    }

    /// `(blocks, threads, executed_cycles, kernel_time, gpu.vtime,
    /// counters.instrs, output)` of one launch over `input`.
    type Observed = (u64, u64, u64, u64, u64, u64, Vec<f32>);

    fn observe(build: Builder, grid: [u32; 3], block: [u32; 3], input: Vec<f32>) -> Observed {
        let gpu = Gpu::new(GpuConfig::default());
        let (Ok(s), vtime, instrs, out) = launch_on(gpu, build, grid, block, input) else {
            panic!("the launch failed");
        };
        (s.0, s.1, s.2, s.3, vtime, instrs, out)
    }

    /// What one launch on `gpu` shows: its `(blocks, threads,
    /// executed_cycles, kernel_time)` or its error text, then the device
    /// clock, the retired instructions and the array afterwards.
    type Outcome = (Result<(u64, u64, u64, u64), String>, u64, u64, Vec<f32>);

    fn launch_on(
        mut gpu: Gpu,
        build: Builder,
        grid: [u32; 3],
        block: [u32; 3],
        input: Vec<f32>,
    ) -> Outcome {
        let mut p = Program::default();
        let k = build(&mut p);
        p.verify().unwrap();
        let image = Image::build(&p).unwrap();
        let n = input.len();
        let dev = gpu.copy_in(&ArrStore::F32(input)).unwrap();
        let stats = gpu
            .launch(&image, k, grid, block, vec![Val::Arr(dev)])
            .map(|s| (s.blocks, s.threads, s.executed_cycles, s.kernel_time))
            .map_err(|e| e.message);
        let mut out = ArrStore::F32(vec![0.0; n]);
        gpu.copy_out(dev, &mut out).unwrap();
        let ArrStore::F32(out) = out else {
            unreachable!()
        };
        (stats, gpu.vtime, gpu.machine.counters.instrs, out)
    }

    /// The injected crash `(step, sm)`, the merged fault counters and the
    /// instructions retired before it, of one launch on an armed device.
    fn observe_armed(
        build: Builder,
        grid: [u32; 3],
        block: [u32; 3],
        n: usize,
        fault: FaultConfig,
    ) -> ((u64, u32), ResilienceStats, u64) {
        let mut p = Program::default();
        let k = build(&mut p);
        let image = Image::build(&p).unwrap();
        let mut gpu = Gpu::new(GpuConfig::default());
        gpu.set_fault(fault);
        let dev = gpu.copy_in(&ArrStore::F32(ramp(n))).unwrap();
        let e = gpu
            .launch(&image, k, grid, block, vec![Val::Arr(dev)])
            .unwrap_err();
        let GpuErrorKind::InjectedCrash { step, sm } = e.kind else {
            panic!("expected an injected crash, got {e}");
        };
        ((step, sm), gpu.fault_stats(), gpu.machine.counters.instrs)
    }

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 + 1.0).collect()
    }

    /// `a[block offset + (tz·bdy + ty)·bdx + tx] = tx + 10·ty + 100·tz`:
    /// every position of a 3-D block writes its own element.
    fn positions_kernel(p: &mut Program) -> FuncId {
        let mut kb = FuncBuilder::new("pos", vec![Ty::Arr(ElemTy::F32)], None, FuncKind::Kernel);
        let t = [0, 1, 2].map(|a| coord(&mut kb, IntrinOp::ThreadIdx(a)));
        let d = [0, 1, 2].map(|a| coord(&mut kb, IntrinOp::BlockDim(a)));
        let bx = coord(&mut kb, IntrinOp::BlockIdx(0));
        let plane = int(&mut kb, BinOp::Mul, d[0], d[1]);
        let volume = int(&mut kb, BinOp::Mul, plane, d[2]);
        let base = int(&mut kb, BinOp::Mul, bx, volume);
        let row = int(&mut kb, BinOp::Mul, t[2], d[1]);
        let row = int(&mut kb, BinOp::Add, row, t[1]);
        let at = int(&mut kb, BinOp::Mul, row, d[0]);
        let at = int(&mut kb, BinOp::Add, at, t[0]);
        let at = int(&mut kb, BinOp::Add, at, base);
        let (ten, hundred) = (konst(&mut kb, 10), konst(&mut kb, 100));
        let y = int(&mut kb, BinOp::Mul, t[1], ten);
        let z = int(&mut kb, BinOp::Mul, t[2], hundred);
        let v = int(&mut kb, BinOp::Add, t[0], y);
        let v = int(&mut kb, BinOp::Add, v, z);
        let f = kb.reg(Ty::F32);
        kb.emit(Instr::Cast {
            to: PrimKind::Float,
            from: PrimKind::Int,
            dst: f,
            src: v,
        });
        kb.emit(Instr::StArr {
            arr: 0,
            idx: at,
            src: f,
        });
        kb.emit(Instr::Ret(None));
        p.add_func(kb.finish().unwrap())
    }

    /// `a[tid] = 1 / (37 - threadIdx.x)`: thread 37 divides by zero.
    fn div_kernel(p: &mut Program) -> FuncId {
        let mut kb = FuncBuilder::new("div", vec![Ty::Arr(ElemTy::F32)], None, FuncKind::Kernel);
        let tid = coord(&mut kb, IntrinOp::ThreadIdx(0));
        let k = konst(&mut kb, 37);
        let one = konst(&mut kb, 1);
        let d = int(&mut kb, BinOp::Sub, k, tid);
        let q = int(&mut kb, BinOp::Div, one, d);
        let f = kb.reg(Ty::F32);
        kb.emit(Instr::Cast {
            to: PrimKind::Float,
            from: PrimKind::Int,
            dst: f,
            src: q,
        });
        kb.emit(Instr::StArr {
            arr: 0,
            idx: tid,
            src: f,
        });
        kb.emit(Instr::Ret(None));
        p.add_func(kb.finish().unwrap())
    }

    /// An unarmed device runs a block's threads back to back in one `run`
    /// entry; a zero-rate armed device enters `run` once per thread. Both
    /// must agree on the launch statistics, the device clock, the retired
    /// instructions and the output, for every kernel and block shape, and
    /// on a thread's error: its text, function and pc.
    #[test]
    fn back_to_back_threads_match_one_run_entry_per_thread() {
        let kernels: [(&str, Builder); 6] = [
            ("scale", scale_kernel),
            ("reverse", reverse_kernel),
            ("k3", k3_kernel),
            ("odd", odd_return_kernel),
            ("two", two_sync_kernel),
            ("pos", positions_kernel),
        ];
        let armed = || {
            let mut gpu = Gpu::new(GpuConfig::default());
            gpu.set_fault(FaultConfig::seeded(5));
            gpu
        };
        let both = |build, grid, block, input: Vec<f32>| {
            let plain = launch_on(
                Gpu::new(GpuConfig::default()),
                build,
                grid,
                block,
                input.clone(),
            );
            (plain, launch_on(armed(), build, grid, block, input))
        };
        for (name, build) in kernels {
            for block in [[4, 3, 2], [1, 1, 7], [7, 1, 1]] {
                let (plain, one_by_one) = both(build, [3, 1, 1], block, ramp(512));
                assert!(plain.0.is_ok(), "{name} {block:?}: {:?}", plain.0);
                assert_eq!(plain, one_by_one, "{name} {block:?}");
                if name == "pos" {
                    let [x, y, z] = block;
                    let want = (0..3).flat_map(|_| {
                        (0..z).flat_map(move |tz| {
                            (0..y).flat_map(move |ty| (0..x).map(move |tx| tx + 10 * ty + 100 * tz))
                        })
                    });
                    let want: Vec<f32> = want.map(|v| v as f32).collect();
                    assert_eq!(plain.3[..want.len()], want[..], "{block:?}");
                }
            }
        }
        let (plain, one_by_one) = both(div_kernel, [1, 1, 1], [64, 1, 1], ramp(64));
        let Err(e) = &plain.0 else {
            panic!("thread 37 divided by zero and the launch succeeded");
        };
        assert!(
            e.contains("`div`") && e.ends_with("division by zero"),
            "{e}"
        );
        assert_eq!(plain, one_by_one);
    }

    #[test]
    fn scale_is_pinned() {
        assert_eq!(
            observe(scale_kernel, [3, 1, 1], [4, 1, 1], ramp(10)),
            (
                3,
                12,
                454,
                5001,
                9011,
                158,
                vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0]
            )
        );
    }

    #[test]
    fn reverse_is_pinned() {
        assert_eq!(
            observe(reverse_kernel, [1, 1, 1], [5, 1, 1], ramp(5)),
            (1, 5, 220, 5000, 9004, 60, vec![5.0, 4.0, 3.0, 2.0, 1.0])
        );
    }

    #[test]
    fn shared_per_block_is_pinned() {
        assert_eq!(
            observe(reverse_kernel, [2, 1, 1], [3, 1, 1], ramp(3)),
            (2, 6, 264, 5000, 9002, 72, vec![1.0, 2.0, 3.0])
        );
    }

    #[test]
    fn three_dimensional_is_pinned() {
        let low = [0, 1, 1, 2, 10, 11, 11, 12, 20, 21, 21, 22];
        let high = low.map(|v| v + 100);
        let want = low.iter().chain(&high).map(|&v| v as f32);
        assert_eq!(
            observe(k3_kernel, [2, 3, 2], [1, 1, 2], vec![-1.0; 24]),
            (12, 24, 1608, 5003, 9027, 552, want.collect())
        );
    }

    /// Half of each block parks: the barrier still costs the block size.
    #[test]
    fn odd_threads_returning_before_the_barrier_is_pinned() {
        assert_eq!(
            observe(odd_return_kernel, [2, 1, 1], [6, 1, 1], ramp(12)),
            (
                2,
                12,
                498,
                5001,
                9013,
                168,
                vec![3.0, 2.0, 5.0, 4.0, 1.0, 6.0, 9.0, 8.0, 11.0, 10.0, 7.0, 12.0]
            )
        );
    }

    /// Both phases after a barrier read what thread 0 wrote in them, so
    /// the output pins the order parked threads are resumed in.
    #[test]
    fn two_barriers_are_pinned() {
        assert_eq!(
            observe(two_sync_kernel, [2, 1, 1], [4, 1, 1], ramp(8)),
            (
                2,
                8,
                520,
                5001,
                9009,
                152,
                vec![4.0, 8.0, 9.0, 10.0, 20.0, 36.0, 37.0, 38.0]
            )
        );
    }

    /// Crash draws fall at every yield point of every thread — coordinate
    /// reads included — and fuel draws at every slice, in (block, thread)
    /// order and then parked order; the crash each stream lands on pins
    /// both.
    #[test]
    fn armed_launches_are_pinned() {
        let fault = FaultConfig {
            crash: 0.004,
            fuel_exhaust: 0.3,
            ..FaultConfig::seeded(4)
        };
        // (kernel, grid, block, array length, (step, sm, fuel exhaustions))
        let cases = [
            (
                scale_kernel as Builder,
                [8, 1, 1],
                [32, 1, 1],
                256,
                (2564, 5, 60),
            ),
            (reverse_kernel, [8, 1, 1], [32, 1, 1], 32, (1682, 4, 117)),
            (k3_kernel, [4, 4, 4], [1, 1, 2], 256, (601, 13, 9)),
            (odd_return_kernel, [8, 1, 1], [16, 1, 1], 128, (1426, 6, 70)),
            (two_sync_kernel, [8, 1, 1], [16, 1, 1], 128, (1653, 5, 95)),
        ];
        for (i, (build, grid, block, n, (step, sm, fuel))) in cases.into_iter().enumerate() {
            let stats = ResilienceStats {
                crashes: 1,
                fuel_exhaustions: fuel,
                ..ResilienceStats::default()
            };
            assert_eq!(
                observe_armed(build, grid, block, n, fault),
                ((step, sm), stats, step),
                "case {i}"
            );
        }
    }
}

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
    run, ArrStore, ExecError, FaultConfig, FaultPlan, Image, Machine, ResilienceStats, Thread, Val,
    Yield,
};
use nir::{FuncId, IntrinOp};
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

/// Statistics of one kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchStats {
    pub blocks: u64,
    pub threads: u64,
    /// Total cycles executed by all kernel threads.
    pub executed_cycles: u64,
    /// Modeled wall time of the launch (cycles).
    pub kernel_time: u64,
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

#[derive(PartialEq)]
enum St {
    Runnable,
    AtBarrier,
    Done,
}

/// One CUDA thread of the block being executed.
struct Ctx {
    thread: Thread,
    idx: [u32; 3],
    st: St,
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

    /// Read a float range from device memory (partial DtoH copy).
    pub fn read_range(&mut self, dev: u32, off: usize, len: usize) -> Result<Vec<f32>, GpuError> {
        self.vtime += self.copy_cost((len * 4) as u64);
        match self.machine.mem.arr(dev)? {
            ArrStore::F32(v) => v
                .get(off..off + len)
                .map(|s| s.to_vec())
                .ok_or_else(|| err("device range read out of bounds")),
            other => Err(err(format!("range read on non-f32 device array {other:?}"))),
        }
    }

    /// Write a float range into device memory (partial HtoD copy).
    pub fn write_range(&mut self, dev: u32, off: usize, data: &[f32]) -> Result<(), GpuError> {
        self.vtime += self.copy_cost((data.len() * 4) as u64);
        match self.machine.mem.arr_mut(dev)? {
            ArrStore::F32(v) => {
                let n = v.len();
                let tgt = v
                    .get_mut(off..off + data.len())
                    .ok_or_else(|| err(format!("device range write out of bounds (len {n})")))?;
                tgt.copy_from_slice(data);
                Ok(())
            }
            other => Err(err(format!(
                "range write on non-f32 device array {other:?}"
            ))),
        }
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
        let threads_per_block = (block[0] * block[1] * block[2]) as u64;
        let n_blocks = (grid[0] * grid[1] * grid[2]) as u64;
        if threads_per_block == 0 || n_blocks == 0 {
            return Err(err("empty launch configuration"));
        }
        if threads_per_block > 1024 {
            return Err(err(format!(
                "block of {threads_per_block} threads exceeds the 1024-thread limit"
            )));
        }
        let start_cycles = self.machine.counters.cycles;

        // One resumable context per thread position of a block; every
        // block re-arms the same contexts instead of allocating its own.
        let mut threads = Vec::with_capacity(threads_per_block as usize);
        for tz in 0..block[2] {
            for ty in 0..block[1] {
                for tx in 0..block[0] {
                    threads.push(Ctx {
                        thread: Thread::new(image.program(), kernel, &args)?,
                        idx: [tx, ty, tz],
                        st: St::Runnable,
                    });
                }
            }
        }

        let mut linear: u64 = 0;
        for bz in 0..grid[2] {
            for by in 0..grid[1] {
                for bx in 0..grid[0] {
                    // Round-robin block-to-SM assignment; the block's
                    // threads draw fault decisions from that SM's stream
                    // (installed as the machine's plan for the duration).
                    let sm = (linear % self.sm_plans.len().max(1) as u64) as usize;
                    let armed = !self.sm_plans.is_empty();
                    let saved = self.machine.fault.take();
                    if armed {
                        self.machine.fault = Some(self.sm_plans[sm].clone());
                    }
                    let res = self.run_block(
                        image,
                        kernel,
                        grid,
                        block,
                        [bx, by, bz],
                        &args,
                        sm as u32,
                        &mut threads,
                    );
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

    /// Run one block's threads in lockstep phases separated by
    /// `__syncthreads`.
    #[allow(clippy::too_many_arguments)]
    fn run_block(
        &mut self,
        image: &Image<'_>,
        kernel: FuncId,
        grid: [u32; 3],
        block: [u32; 3],
        block_idx: [u32; 3],
        args: &[Val],
        sm: u32,
        threads: &mut [Ctx],
    ) -> Result<(), GpuError> {
        for ctx in threads.iter_mut() {
            ctx.thread.reset(image.program(), kernel, args)?;
            ctx.st = St::Runnable;
        }
        // Per-block shared arrays, keyed by allocation site (pc).
        let mut shared: HashMap<u32, u32> = HashMap::new();

        loop {
            let mut any_progress = false;
            for ctx in threads.iter_mut() {
                if ctx.st != St::Runnable {
                    continue;
                }
                any_progress = true;
                // Run this thread until it blocks at a barrier or finishes.
                loop {
                    match run(&mut ctx.thread, image, &mut self.machine, u64::MAX)? {
                        Yield::Done(_) => {
                            ctx.st = St::Done;
                            break;
                        }
                        Yield::Sync => {
                            ctx.st = St::AtBarrier;
                            break;
                        }
                        Yield::SharedAlloc { elem, len, pc } => {
                            let h = *shared.entry(pc).or_insert_with(|| {
                                self.machine.mem.alloc(ArrStore::new(elem, len))
                            });
                            ctx.thread.resume_with(Val::Arr(h));
                        }
                        Yield::GpuMem { op, .. } => {
                            // CUDA thread-coordinate registers.
                            let v = match op {
                                IntrinOp::ThreadIdx(a) => ctx.idx[a as usize] as i32,
                                IntrinOp::BlockIdx(a) => block_idx[a as usize] as i32,
                                IntrinOp::BlockDim(a) => block[a as usize] as i32,
                                IntrinOp::GridDim(a) => grid[a as usize] as i32,
                                other => {
                                    return Err(err(format!(
                                        "kernel performed host-only operation {other:?}"
                                    )))
                                }
                            };
                            ctx.thread.resume_with(Val::I32(v));
                        }
                        Yield::Mpi { .. } => {
                            return Err(err("kernel attempted an MPI operation"));
                        }
                        Yield::Launch { .. } => {
                            return Err(err("nested kernel launch is not supported"));
                        }
                        Yield::Host { .. } => {
                            return Err(err("kernels cannot call host (foreign) functions"));
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
            let done = threads.iter().filter(|t| t.st == St::Done).count();
            let at_barrier = threads.iter().filter(|t| t.st == St::AtBarrier).count();
            if done == threads.len() {
                return Ok(());
            }
            if at_barrier > 0 {
                // Release the barrier: every non-done thread has arrived
                // (guaranteed by the loop above); threads that already
                // returned are treated as arrived (the common hardware
                // behavior for exited threads).
                for ctx in threads.iter_mut() {
                    if ctx.st == St::AtBarrier {
                        ctx.st = St::Runnable;
                    }
                }
                // Barrier cost: one sweep of the block.
                self.machine.counters.cycles += threads.len() as u64;
                continue;
            }
            if !any_progress {
                return Err(err("kernel block made no progress (internal error)"));
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
    use nir::{ElemTy, FuncBuilder, FuncKind, Instr, Program, Ty};

    /// Build a kernel: a[global_id] = a[global_id] * 2
    fn scale_kernel(p: &mut Program) -> FuncId {
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
        p.validate().unwrap();
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
    fn reverse_kernel(p: &mut Program) -> FuncId {
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
        p.validate().unwrap();
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

    #[test]
    fn injected_device_crash_is_typed_and_deterministic() {
        let mut p = Program::default();
        let k = scale_kernel(&mut p);
        let image = Image::build(&p).unwrap();
        p.validate().unwrap();
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
        p.validate().unwrap();
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
    use nir::{ElemTy, FuncBuilder, FuncKind, Instr, Program, Reg, Ty};

    /// Kernel writing a[linear(gid3)] = bx*100 + by*10 + bz + tz*0.5 over a
    /// 3-D grid of 3-D blocks, exercising the y/z coordinate registers.
    #[test]
    fn three_dimensional_launch_coordinates() {
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
        let mut p = Program::default();
        let k = p.add_func(kb.finish().unwrap());
        p.validate().unwrap();
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

//! NIR — the flat "native" register IR that translation targets.
//!
//! This is the reproduction's analogue of the C/CUDA source WootinJ
//! generates: functions over primitive registers and flat arrays. In the
//! fully optimized configuration there are *no* objects — devirtualization
//! and object inlining have erased them. The unoptimized configurations
//! (the paper's *C++* and *Template* baselines) additionally use the
//! heap-object and vtable instructions.

use jlang::ast::BinOp;
use jlang::types::PrimKind;
use std::fmt;

/// A virtual register within a function.
pub type Reg = u32;

/// Index of a function in a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncId(pub u32);

/// A (not yet resolved) jump target handed out by [`FuncBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(pub u32);

/// Scalar/array register types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    I32,
    I64,
    F32,
    F64,
    Bool,
    Arr(ElemTy),
    /// Heap object reference — unoptimized configurations only.
    Obj,
}

/// Primitive element types of NIR arrays. (Object arrays never appear:
/// the coding rules confine bulk data to primitive arrays, and the
/// translator reports a clear error otherwise.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemTy {
    I32,
    I64,
    F32,
    F64,
    Bool,
}

impl ElemTy {
    pub fn ty(self) -> Ty {
        match self {
            ElemTy::I32 => Ty::I32,
            ElemTy::I64 => Ty::I64,
            ElemTy::F32 => Ty::F32,
            ElemTy::F64 => Ty::F64,
            ElemTy::Bool => Ty::Bool,
        }
    }

    pub fn c_name(self) -> &'static str {
        match self {
            ElemTy::I32 => "int",
            ElemTy::I64 => "long",
            ElemTy::F32 => "float",
            ElemTy::F64 => "double",
            ElemTy::Bool => "bool",
        }
    }
}

impl Ty {
    pub fn of_prim(kind: PrimKind) -> Ty {
        match kind {
            PrimKind::Int => Ty::I32,
            PrimKind::Long => Ty::I64,
            PrimKind::Float => Ty::F32,
            PrimKind::Double => Ty::F64,
            PrimKind::Boolean => Ty::Bool,
        }
    }

    pub fn prim(self) -> Option<PrimKind> {
        Some(match self {
            Ty::I32 => PrimKind::Int,
            Ty::I64 => PrimKind::Long,
            Ty::F32 => PrimKind::Float,
            Ty::F64 => PrimKind::Double,
            Ty::Bool => PrimKind::Boolean,
            _ => return None,
        })
    }

    pub fn c_name(self) -> String {
        match self {
            Ty::I32 => "int".into(),
            Ty::I64 => "long".into(),
            Ty::F32 => "float".into(),
            Ty::F64 => "double".into(),
            Ty::Bool => "bool".into(),
            Ty::Arr(e) => format!("{}*", e.c_name()),
            Ty::Obj => "struct obj*".into(),
        }
    }
}

/// Intrinsic operations: math, I/O, CUDA registers/memory, MPI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntrinOp {
    // math
    SqrtF64,
    SqrtF32,
    PowF64,
    ExpF64,
    AbsF32,
    AbsF64,
    AbsI32,
    MinI32,
    MaxI32,
    MinF32,
    MaxF32,
    // printing / util
    PrintI32,
    PrintI64,
    PrintF32,
    PrintF64,
    PrintBool,
    ArrayCopyF32,
    // CUDA thread registers; the axis is 0=x, 1=y, 2=z
    ThreadIdx(u8),
    BlockIdx(u8),
    BlockDim(u8),
    GridDim(u8),
    // CUDA memory
    CopyToGpu,
    CopyFromGpu,
    /// (dev, devOff, host, hostOff, len): copy a host range into a device range.
    CopyToGpuRange,
    /// (host, hostOff, dev, devOff, len): copy a device range into a host range.
    CopyFromGpuRange,
    GpuAllocF32,
    GpuFree,
    // MPI
    MpiRank,
    MpiSize,
    MpiBarrier,
    MpiSendF32,
    MpiRecvF32,
    MpiSendRecvF32,
    MpiBcastF32,
    MpiAllreduceSumF64,
    MpiAllreduceSumF32,
    MpiAllreduceMaxF64,
}

impl IntrinOp {
    /// The C spelling used by the source emitter.
    pub fn c_name(self) -> String {
        match self {
            IntrinOp::SqrtF64 => "sqrt".into(),
            IntrinOp::SqrtF32 => "sqrtf".into(),
            IntrinOp::PowF64 => "pow".into(),
            IntrinOp::ExpF64 => "exp".into(),
            IntrinOp::AbsF32 => "fabsf".into(),
            IntrinOp::AbsF64 => "fabs".into(),
            IntrinOp::AbsI32 => "abs".into(),
            IntrinOp::MinI32 => "min".into(),
            IntrinOp::MaxI32 => "max".into(),
            IntrinOp::MinF32 => "fminf".into(),
            IntrinOp::MaxF32 => "fmaxf".into(),
            IntrinOp::PrintI32 | IntrinOp::PrintI64 => "printf_int".into(),
            IntrinOp::PrintF32 | IntrinOp::PrintF64 => "printf_float".into(),
            IntrinOp::PrintBool => "printf_bool".into(),
            IntrinOp::ArrayCopyF32 => "memcpy_float".into(),
            IntrinOp::ThreadIdx(a) => format!("threadIdx.{}", axis(a)),
            IntrinOp::BlockIdx(a) => format!("blockIdx.{}", axis(a)),
            IntrinOp::BlockDim(a) => format!("blockDim.{}", axis(a)),
            IntrinOp::GridDim(a) => format!("gridDim.{}", axis(a)),
            IntrinOp::CopyToGpu => "cudaMemcpyHostToDevice".into(),
            IntrinOp::CopyFromGpu => "cudaMemcpyDeviceToHost".into(),
            IntrinOp::CopyToGpuRange => "cudaMemcpy/*range,HtoD*/".into(),
            IntrinOp::CopyFromGpuRange => "cudaMemcpy/*range,DtoH*/".into(),
            IntrinOp::GpuAllocF32 => "cudaMalloc".into(),
            IntrinOp::GpuFree => "cudaFree".into(),
            IntrinOp::MpiRank => "MPI_Comm_rank".into(),
            IntrinOp::MpiSize => "MPI_Comm_size".into(),
            IntrinOp::MpiBarrier => "MPI_Barrier".into(),
            IntrinOp::MpiSendF32 => "MPI_Send".into(),
            IntrinOp::MpiRecvF32 => "MPI_Recv".into(),
            IntrinOp::MpiSendRecvF32 => "MPI_Sendrecv".into(),
            IntrinOp::MpiBcastF32 => "MPI_Bcast".into(),
            IntrinOp::MpiAllreduceSumF64
            | IntrinOp::MpiAllreduceSumF32
            | IntrinOp::MpiAllreduceMaxF64 => "MPI_Allreduce".into(),
        }
    }

    /// Is this intrinsic pure (no side effects, safe to DCE)?
    pub fn is_pure(self) -> bool {
        matches!(
            self,
            IntrinOp::SqrtF64
                | IntrinOp::SqrtF32
                | IntrinOp::PowF64
                | IntrinOp::ExpF64
                | IntrinOp::AbsF32
                | IntrinOp::AbsF64
                | IntrinOp::AbsI32
                | IntrinOp::MinI32
                | IntrinOp::MaxI32
                | IntrinOp::MinF32
                | IntrinOp::MaxF32
                | IntrinOp::ThreadIdx(_)
                | IntrinOp::BlockIdx(_)
                | IntrinOp::BlockDim(_)
                | IntrinOp::GridDim(_)
        )
    }
}

fn axis(a: u8) -> &'static str {
    match a {
        0 => "x",
        1 => "y",
        _ => "z",
    }
}

/// One NIR instruction. Jump targets are instruction indices.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    ConstI32(Reg, i32),
    ConstI64(Reg, i64),
    ConstF32(Reg, f32),
    ConstF64(Reg, f64),
    ConstBool(Reg, bool),
    Mov(Reg, Reg),
    /// `dst = lhs op rhs`, both operands of `kind`.
    Bin {
        op: BinOp,
        kind: PrimKind,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    Neg {
        kind: PrimKind,
        dst: Reg,
        src: Reg,
    },
    Not {
        dst: Reg,
        src: Reg,
    },
    Cast {
        to: PrimKind,
        from: PrimKind,
        dst: Reg,
        src: Reg,
    },
    Jmp(u32),
    /// Branch to `t` when `cond` is true, else to `f`.
    Br {
        cond: Reg,
        t: u32,
        f: u32,
    },
    Ret(Option<Reg>),
    Call {
        func: FuncId,
        args: Vec<Reg>,
        dst: Option<Reg>,
    },
    /// Direct call to a registered host (foreign) function — the paper's
    /// FFI: "a method call that is translated into a direct call to the
    /// corresponding C function". `host` indexes [`Program::host_fns`].
    CallHost {
        host: u32,
        args: Vec<Reg>,
        dst: Option<Reg>,
    },
    // ---- heap objects (unoptimized configurations only) ----
    NewObj {
        class: u32,
        dst: Reg,
    },
    GetField {
        obj: Reg,
        slot: u32,
        dst: Reg,
    },
    PutField {
        obj: Reg,
        slot: u32,
        src: Reg,
    },
    /// Virtual dispatch through the receiver's class vtable.
    CallVirt {
        selector: u32,
        recv: Reg,
        args: Vec<Reg>,
        dst: Option<Reg>,
    },
    // ---- arrays ----
    NewArr {
        elem: ElemTy,
        len: Reg,
        dst: Reg,
    },
    LdArr {
        arr: Reg,
        idx: Reg,
        dst: Reg,
    },
    StArr {
        arr: Reg,
        idx: Reg,
        src: Reg,
    },
    ArrLen {
        arr: Reg,
        dst: Reg,
    },
    FreeArr {
        arr: Reg,
    },
    // ---- intrinsics ----
    Intrin {
        op: IntrinOp,
        args: Vec<Reg>,
        dst: Option<Reg>,
    },
    // ---- GPU ----
    /// Launch `kernel <<<grid, block>>> (args)`.
    Launch {
        kernel: FuncId,
        grid: [Reg; 3],
        block: [Reg; 3],
        args: Vec<Reg>,
    },
    /// Allocate a per-block `__shared__` array (kernel functions only).
    SharedAlloc {
        elem: ElemTy,
        len: Reg,
        dst: Reg,
    },
    /// `__syncthreads()` (kernel functions only, top level).
    Sync,
}

/// The destination operand of `$ins`, borrowed the way `$ins` is (`$opt`
/// is `as_ref` for `&Instr`, `as_mut` for `&mut Instr`).
macro_rules! dst_operand {
    ($ins:expr, $opt:ident) => {
        match $ins {
            Instr::ConstI32(d, _)
            | Instr::ConstI64(d, _)
            | Instr::ConstF32(d, _)
            | Instr::ConstF64(d, _)
            | Instr::ConstBool(d, _)
            | Instr::Mov(d, _) => Some(d),
            Instr::Bin { dst, .. }
            | Instr::Neg { dst, .. }
            | Instr::Not { dst, .. }
            | Instr::Cast { dst, .. }
            | Instr::NewObj { dst, .. }
            | Instr::GetField { dst, .. }
            | Instr::NewArr { dst, .. }
            | Instr::LdArr { dst, .. }
            | Instr::ArrLen { dst, .. }
            | Instr::SharedAlloc { dst, .. } => Some(dst),
            Instr::Call { dst, .. }
            | Instr::CallHost { dst, .. }
            | Instr::CallVirt { dst, .. }
            | Instr::Intrin { dst, .. } => dst.$opt(),
            _ => None,
        }
    };
}

/// Hand every source operand of `$ins` to `$f`, in operand order, borrowed
/// the way `$ins` is. The one per-variant operand walk: an instruction
/// added to [`Instr`] is added here (the match is exhaustive) and every
/// pass that reads or rewrites operands sees it.
macro_rules! source_operands {
    ($ins:expr, $f:ident) => {
        match $ins {
            Instr::Mov(_, s) => $f(s),
            Instr::Bin { lhs, rhs, .. } => {
                $f(lhs);
                $f(rhs);
            }
            Instr::Neg { src, .. } | Instr::Not { src, .. } | Instr::Cast { src, .. } => $f(src),
            Instr::Br { cond, .. } => $f(cond),
            Instr::Ret(Some(r)) => $f(r),
            Instr::Call { args, .. }
            | Instr::CallHost { args, .. }
            | Instr::Intrin { args, .. } => {
                for a in args {
                    $f(a);
                }
            }
            Instr::GetField { obj, .. } => $f(obj),
            Instr::PutField { obj, src, .. } => {
                $f(obj);
                $f(src);
            }
            Instr::CallVirt { recv, args, .. } => {
                $f(recv);
                for a in args {
                    $f(a);
                }
            }
            Instr::NewArr { len, .. } | Instr::SharedAlloc { len, .. } => $f(len),
            Instr::LdArr { arr, idx, .. } => {
                $f(arr);
                $f(idx);
            }
            Instr::StArr { arr, idx, src } => {
                $f(arr);
                $f(idx);
                $f(src);
            }
            Instr::ArrLen { arr, .. } | Instr::FreeArr { arr } => $f(arr),
            Instr::Launch {
                grid, block, args, ..
            } => {
                for r in grid {
                    $f(r);
                }
                for r in block {
                    $f(r);
                }
                for a in args {
                    $f(a);
                }
            }
            Instr::ConstI32(..)
            | Instr::ConstI64(..)
            | Instr::ConstF32(..)
            | Instr::ConstF64(..)
            | Instr::ConstBool(..)
            | Instr::Jmp(_)
            | Instr::Ret(None)
            | Instr::NewObj { .. }
            | Instr::Sync => {}
        }
    };
}

impl Instr {
    /// Destination register written by this instruction, if any.
    pub fn dst(&self) -> Option<Reg> {
        dst_operand!(self, as_ref).copied()
    }

    /// The destination operand itself, for passes that renumber registers.
    pub(crate) fn dst_mut(&mut self) -> Option<&mut Reg> {
        dst_operand!(self, as_mut)
    }

    /// Call `f` on every register this instruction reads, in operand
    /// order, without allocating.
    pub fn for_each_source(&self, mut f: impl FnMut(Reg)) {
        let mut f = |r: &Reg| f(*r);
        source_operands!(self, f)
    }

    /// Call `f` on every source operand, in operand order, so a pass can
    /// rewrite what the instruction reads.
    pub fn for_each_source_mut(&mut self, mut f: impl FnMut(&mut Reg)) {
        source_operands!(self, f)
    }

    /// Registers read by this instruction.
    pub fn sources(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        self.for_each_source(|r| out.push(r));
        out
    }

    /// Does this instruction have side effects (must not be removed)?
    pub fn has_side_effects(&self) -> bool {
        match self {
            Instr::Jmp(_)
            | Instr::Br { .. }
            | Instr::Ret(_)
            | Instr::Call { .. }
            | Instr::CallHost { .. }
            | Instr::CallVirt { .. }
            | Instr::PutField { .. }
            | Instr::StArr { .. }
            | Instr::FreeArr { .. }
            | Instr::Launch { .. }
            | Instr::Sync => true,
            // Allocation results may escape via later instructions; keep
            // them unless the destination is provably dead AND unaliased —
            // we conservatively treat allocation as effectful.
            Instr::NewObj { .. } | Instr::NewArr { .. } | Instr::SharedAlloc { .. } => true,
            Instr::Intrin { op, .. } => !op.is_pure(),
            _ => false,
        }
    }
}

/// Where a function runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuncKind {
    /// Ordinary host function.
    Host,
    /// CUDA `__global__` kernel entry.
    Kernel,
    /// CUDA `__device__` function callable from kernels.
    Device,
}

/// A NIR function.
#[derive(Debug, Clone)]
pub struct Function {
    pub name: String,
    /// Parameter registers are `0..params.len()`.
    pub params: Vec<Ty>,
    pub ret: Option<Ty>,
    /// Types of all registers (length = register count).
    pub regs: Vec<Ty>,
    pub code: Vec<Instr>,
    pub kind: FuncKind,
}

/// Per-class metadata for the unoptimized (heap objects + vtable) mode.
#[derive(Debug, Clone)]
pub struct ClassMeta {
    pub name: String,
    pub field_count: u32,
    /// `(selector, target)` pairs; selectors index [`Program::selectors`].
    pub vtable: Vec<(u32, FuncId)>,
}

/// Signature of a registered host (foreign) function.
#[derive(Debug, Clone, PartialEq)]
pub struct HostFnSig {
    /// The `@Native("key")` key, e.g. `"ext.hypot"`.
    pub name: String,
    pub params: Vec<Ty>,
    pub ret: Option<Ty>,
}

/// A compile-time constant global (from `static final` fields).
#[derive(Debug, Clone)]
pub struct Global {
    pub name: String,
    pub ty: Ty,
    pub value: ConstVal,
}

/// Constant values storable in globals.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstVal {
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
    Bool(bool),
}

/// A complete translated program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub funcs: Vec<Function>,
    pub globals: Vec<Global>,
    pub classes: Vec<ClassMeta>,
    /// Method-name selectors for `CallVirt`.
    pub selectors: Vec<String>,
    /// Foreign-function signatures referenced by `CallHost`.
    pub host_fns: Vec<HostFnSig>,
    /// The entry function invoked by `JitCode::invoke`.
    pub entry: Option<FuncId>,
}

impl Program {
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    pub fn add_func(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(f);
        id
    }

    /// Total instruction count (a code-size metric used by Table 3).
    pub fn instr_count(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }

    /// Validate structural invariants: register indices and types, jump
    /// targets, call arities, and placement constraints (Sync/SharedAlloc
    /// only in kernels, Launch only outside kernels).
    pub fn validate(&self) -> Result<(), String> {
        for (fi, f) in self.funcs.iter().enumerate() {
            let check_reg = |r: Reg| -> Result<(), String> {
                if (r as usize) < f.regs.len() {
                    Ok(())
                } else {
                    Err(format!(
                        "function `{}`: register r{} out of range",
                        f.name, r
                    ))
                }
            };
            if f.params.len() > f.regs.len() {
                return Err(format!("function `{}`: params exceed registers", f.name));
            }
            for (i, p) in f.params.iter().enumerate() {
                if f.regs[i] != *p {
                    return Err(format!("function `{}`: param {} type mismatch", f.name, i));
                }
            }
            for (pc, ins) in f.code.iter().enumerate() {
                let mut operands = Ok(());
                ins.for_each_source(|r| {
                    if operands.is_ok() {
                        operands = check_reg(r);
                    }
                });
                operands?;
                if let Some(d) = ins.dst() {
                    check_reg(d)?;
                }
                match ins {
                    Instr::Jmp(t) if *t as usize > f.code.len() => {
                        return Err(format!(
                            "function `{}` pc {}: jump target {} out of range",
                            f.name, pc, t
                        ));
                    }
                    Instr::Br { t, f: fl, .. }
                        if (*t as usize > f.code.len() || *fl as usize > f.code.len()) =>
                    {
                        return Err(format!(
                            "function `{}` pc {}: branch target out of range",
                            f.name, pc
                        ));
                    }
                    Instr::Call { func, args, .. } => {
                        let callee = self
                            .funcs
                            .get(func.0 as usize)
                            .ok_or_else(|| format!("call to unknown function {}", func.0))?;
                        if callee.params.len() != args.len() {
                            return Err(format!(
                                "function `{}` pc {}: call to `{}` with {} args, expects {}",
                                f.name,
                                pc,
                                callee.name,
                                args.len(),
                                callee.params.len()
                            ));
                        }
                        if f.kind != FuncKind::Host && callee.kind == FuncKind::Host {
                            return Err(format!(
                                "kernel/device function `{}` calls host function `{}`",
                                f.name, callee.name
                            ));
                        }
                    }
                    Instr::CallHost { host, args, .. } => {
                        let sig = self
                            .host_fns
                            .get(*host as usize)
                            .ok_or_else(|| format!("call to unknown host fn {host}"))?;
                        if sig.params.len() != args.len() {
                            return Err(format!(
                                "function `{}` pc {}: host call to `{}` with {} args, expects {}",
                                f.name,
                                pc,
                                sig.name,
                                args.len(),
                                sig.params.len()
                            ));
                        }
                    }
                    Instr::CallVirt { selector, .. }
                        if *selector as usize >= self.selectors.len() =>
                    {
                        return Err(format!(
                            "function `{}` pc {}: unknown selector {}",
                            f.name, pc, selector
                        ));
                    }
                    Instr::Launch { kernel, .. } => {
                        if f.kind != FuncKind::Host {
                            return Err(format!("launch inside non-host function `{}`", f.name));
                        }
                        let k = self
                            .funcs
                            .get(kernel.0 as usize)
                            .ok_or_else(|| format!("launch of unknown function {}", kernel.0))?;
                        if k.kind != FuncKind::Kernel {
                            return Err(format!("launch of non-kernel function `{}`", k.name));
                        }
                    }
                    Instr::Sync | Instr::SharedAlloc { .. } if f.kind != FuncKind::Kernel => {
                        return Err(format!(
                            "`{}`: __syncthreads/__shared__ outside a kernel",
                            f.name
                        ));
                    }
                    Instr::NewObj { class, .. } if *class as usize >= self.classes.len() => {
                        return Err(format!("new of unknown class {class}"));
                    }
                    _ => {}
                }
            }
            // Code must not fall off the end.
            match f.code.last() {
                Some(Instr::Ret(_)) | Some(Instr::Jmp(_)) | Some(Instr::Br { .. }) => {}
                _ => {
                    return Err(format!(
                        "function `{}` (index {fi}) does not end in ret/jmp",
                        f.name
                    ))
                }
            }
        }
        if let Some(e) = self.entry {
            if e.0 as usize >= self.funcs.len() {
                return Err("entry function out of range".into());
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, func) in self.funcs.iter().enumerate() {
            writeln!(
                f,
                "fn {} #{} ({} params, {} regs) {:?}:",
                func.name,
                i,
                func.params.len(),
                func.regs.len(),
                func.kind
            )?;
            for (pc, ins) in func.code.iter().enumerate() {
                writeln!(f, "  {pc:4}: {ins:?}")?;
            }
        }
        Ok(())
    }
}

/// Incremental builder for a [`Function`] with label patching.
///
/// ```
/// use nir::{FuncBuilder, FuncKind, Instr, Ty, Program};
/// use jlang::ast::BinOp;
/// use jlang::types::PrimKind;
///
/// // fn add1(x: i32) -> i32 { x + 1 }
/// let mut fb = FuncBuilder::new("add1", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
/// let one = fb.reg(Ty::I32);
/// let out = fb.reg(Ty::I32);
/// fb.emit(Instr::ConstI32(one, 1));
/// fb.emit(Instr::Bin { op: BinOp::Add, kind: PrimKind::Int, dst: out, lhs: 0, rhs: one });
/// fb.emit(Instr::Ret(Some(out)));
/// let mut p = Program::default();
/// p.add_func(fb.finish().unwrap());
/// assert!(p.validate().is_ok());
/// ```
pub struct FuncBuilder {
    pub name: String,
    pub params: Vec<Ty>,
    pub ret: Option<Ty>,
    pub kind: FuncKind,
    regs: Vec<Ty>,
    code: Vec<Instr>,
    /// label -> resolved pc
    labels: Vec<Option<u32>>,
    /// (pc, which-slot, label) fixups
    fixups: Vec<(usize, u8, Label)>,
}

impl FuncBuilder {
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Option<Ty>, kind: FuncKind) -> Self {
        FuncBuilder {
            name: name.into(),
            regs: params.clone(),
            params,
            ret,
            kind,
            code: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Allocate a fresh register of type `ty`.
    pub fn reg(&mut self, ty: Ty) -> Reg {
        let r = self.regs.len() as Reg;
        self.regs.push(ty);
        r
    }

    pub fn reg_ty(&self, r: Reg) -> Ty {
        self.regs[r as usize]
    }

    pub fn emit(&mut self, ins: Instr) -> usize {
        self.code.push(ins);
        self.code.len() - 1
    }

    /// Create an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() as u32 - 1)
    }

    /// Bind `label` to the next instruction to be emitted.
    pub fn bind(&mut self, label: Label) {
        self.labels[label.0 as usize] = Some(self.code.len() as u32);
    }

    pub fn jmp(&mut self, label: Label) {
        let pc = self.emit(Instr::Jmp(u32::MAX));
        self.fixups.push((pc, 0, label));
    }

    pub fn br(&mut self, cond: Reg, t: Label, f: Label) {
        let pc = self.emit(Instr::Br {
            cond,
            t: u32::MAX,
            f: u32::MAX,
        });
        self.fixups.push((pc, 1, t));
        self.fixups.push((pc, 2, f));
    }

    /// Current instruction count (useful for tests).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Resolve labels and produce the function.
    pub fn finish(mut self) -> Result<Function, String> {
        for (pc, slot, label) in &self.fixups {
            let target = self.labels[label.0 as usize]
                .ok_or_else(|| format!("unbound label {} in `{}`", label.0, self.name))?;
            match (&mut self.code[*pc], slot) {
                (Instr::Jmp(t), 0) => *t = target,
                (Instr::Br { t, .. }, 1) => *t = target,
                (Instr::Br { f, .. }, 2) => *f = target,
                other => return Err(format!("bad fixup {other:?}")),
            }
        }
        // Ensure control cannot fall (or jump) off the end: a label bound
        // after the last instruction (e.g. the end label of a trailing
        // `if`) needs a real terminator to land on.
        let len = self.code.len() as u32;
        let jumps_to_end = self.code.iter().any(|i| match i {
            Instr::Jmp(t) => *t == len,
            Instr::Br { t, f, .. } => *t == len || *f == len,
            _ => false,
        });
        if jumps_to_end || !matches!(self.code.last(), Some(Instr::Ret(_))) {
            self.code.push(Instr::Ret(None));
        }
        Ok(Function {
            name: self.name,
            params: self.params,
            ret: self.ret,
            regs: self.regs,
            code: self.code,
            kind: self.kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_add() -> Program {
        // fn add(a: i32, b: i32) -> i32 { a + b }
        let mut fb = FuncBuilder::new("add", vec![Ty::I32, Ty::I32], Some(Ty::I32), FuncKind::Host);
        let dst = fb.reg(Ty::I32);
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst,
            lhs: 0,
            rhs: 1,
        });
        fb.emit(Instr::Ret(Some(dst)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        p.entry = Some(id);
        p
    }

    #[test]
    fn builder_produces_valid_program() {
        let p = sample_add();
        p.validate().expect("valid");
        assert_eq!(p.instr_count(), 2);
    }

    #[test]
    fn labels_resolve() {
        // fn loop10() -> i32 { s=0; for i in 0..10 { s+=i }; s }
        let mut fb = FuncBuilder::new("loop10", vec![], Some(Ty::I32), FuncKind::Host);
        let s = fb.reg(Ty::I32);
        let i = fb.reg(Ty::I32);
        let ten = fb.reg(Ty::I32);
        let one = fb.reg(Ty::I32);
        let cond = fb.reg(Ty::Bool);
        fb.emit(Instr::ConstI32(s, 0));
        fb.emit(Instr::ConstI32(i, 0));
        fb.emit(Instr::ConstI32(ten, 10));
        fb.emit(Instr::ConstI32(one, 1));
        let head = fb.label();
        let body = fb.label();
        let done = fb.label();
        fb.bind(head);
        fb.emit(Instr::Bin {
            op: BinOp::Lt,
            kind: PrimKind::Int,
            dst: cond,
            lhs: i,
            rhs: ten,
        });
        fb.br(cond, body, done);
        fb.bind(body);
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: s,
            lhs: s,
            rhs: i,
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
        fb.emit(Instr::Ret(Some(s)));
        let f = fb.finish().unwrap();
        // No u32::MAX placeholders remain.
        for ins in &f.code {
            match ins {
                Instr::Jmp(t) => assert_ne!(*t, u32::MAX),
                Instr::Br { t, f, .. } => {
                    assert_ne!(*t, u32::MAX);
                    assert_ne!(*f, u32::MAX);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn unbound_label_is_error() {
        let mut fb = FuncBuilder::new("bad", vec![], None, FuncKind::Host);
        let l = fb.label();
        fb.jmp(l);
        assert!(fb.finish().is_err());
    }

    #[test]
    fn validate_rejects_bad_register() {
        let mut p = sample_add();
        p.funcs[0].code[0] = Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: 99,
            lhs: 0,
            rhs: 1,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_sync_outside_kernel() {
        let mut p = sample_add();
        p.funcs[0].code.insert(0, Instr::Sync);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_terminator() {
        let mut p = sample_add();
        p.funcs[0].code.pop();
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_host_call_from_kernel() {
        let mut p = sample_add();
        let mut fb = FuncBuilder::new("k", vec![], None, FuncKind::Kernel);
        fb.emit(Instr::Call {
            func: FuncId(0),
            args: vec![],
            dst: None,
        });
        fb.emit(Instr::Ret(None));
        // wrong arg count AND host call — both should be errors; arity hits first
        p.add_func(fb.finish().unwrap());
        assert!(p.validate().is_err());
    }

    #[test]
    fn instr_dst_and_sources() {
        let i = Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Float,
            dst: 5,
            lhs: 1,
            rhs: 2,
        };
        assert_eq!(i.dst(), Some(5));
        assert_eq!(i.sources(), vec![1, 2]);
        let st = Instr::StArr {
            arr: 1,
            idx: 2,
            src: 3,
        };
        assert_eq!(st.dst(), None);
        assert!(st.has_side_effects());
    }
}

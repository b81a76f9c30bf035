//! NIR — the flat "native" register IR that translation targets.
//!
//! This is the reproduction's analogue of the C/CUDA source WootinJ
//! generates: functions over primitive registers and flat arrays. In the
//! fully optimized configuration there are *no* objects — devirtualization
//! and object inlining have erased them. The unoptimized configurations
//! (the paper's *C++* and *Template* baselines) additionally use the
//! heap-object and vtable instructions.

use crate::intrin::{IntrinOp, Platform};
use jlang::ast::{BinOp, UnOp};
use jlang::types::PrimKind;
use std::fmt;
use std::sync::Arc;

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

    /// The primitive kind of an element.
    pub fn prim(self) -> PrimKind {
        match self {
            ElemTy::I32 => PrimKind::Int,
            ElemTy::I64 => PrimKind::Long,
            ElemTy::F32 => PrimKind::Float,
            ElemTy::F64 => PrimKind::Double,
            ElemTy::Bool => PrimKind::Boolean,
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

    /// Does this instruction end a basic block (`ret`, `jmp` or `br`)?
    pub(crate) fn ends_block(&self) -> bool {
        matches!(self, Instr::Ret(_) | Instr::Jmp(_) | Instr::Br { .. })
    }

    /// Call `f` on every branch target, a `br`'s true target first.
    pub(crate) fn for_each_target(&self, mut f: impl FnMut(u32)) {
        match *self {
            Instr::Jmp(t) => f(t),
            Instr::Br { t, f: e, .. } => {
                f(t);
                f(e);
            }
            _ => {}
        }
    }

    /// Call `f` on every branch target, in [`Instr::for_each_target`]'s
    /// order, so a pass can remap where the instruction goes.
    pub(crate) fn for_each_target_mut(&mut self, mut f: impl FnMut(&mut u32)) {
        match self {
            Instr::Jmp(t) => f(t),
            Instr::Br { t, f: e, .. } => {
                f(t);
                f(e);
            }
            _ => {}
        }
    }

    /// The value a constant instruction loads ([`ConstVal::instr`]'s
    /// inverse); `None` for every other instruction.
    pub fn const_val(&self) -> Option<ConstVal> {
        Some(match *self {
            Instr::ConstI32(_, v) => ConstVal::I32(v),
            Instr::ConstI64(_, v) => ConstVal::I64(v),
            Instr::ConstF32(_, v) => ConstVal::F32(v),
            Instr::ConstF64(_, v) => ConstVal::F64(v),
            Instr::ConstBool(_, v) => ConstVal::Bool(v),
            _ => return None,
        })
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
            Instr::Intrin { op, .. } => !op.row().is_some_and(|r| r.pure),
            _ => false,
        }
    }
}

/// Where a function runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// A constant of one primitive kind: a global's value, a constant
/// instruction's operand, and the one place that decides what a Java
/// operator or cast makes of constants. The translator folds `static
/// final` initializers with it and the optimizer folds `Bin` and `Cast`
/// instructions with it, so the two cannot disagree with each other; both
/// agree with `exec`, which computes the same operators at run time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstVal {
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
    Bool(bool),
}

impl ConstVal {
    /// The zero of `kind`: Java's default value for a field or local.
    pub fn zero(kind: PrimKind) -> ConstVal {
        match kind {
            PrimKind::Int => ConstVal::I32(0),
            PrimKind::Long => ConstVal::I64(0),
            PrimKind::Float => ConstVal::F32(0.0),
            PrimKind::Double => ConstVal::F64(0.0),
            PrimKind::Boolean => ConstVal::Bool(false),
        }
    }

    /// The primitive kind it is a value of.
    pub fn kind(self) -> PrimKind {
        match self {
            ConstVal::I32(_) => PrimKind::Int,
            ConstVal::I64(_) => PrimKind::Long,
            ConstVal::F32(_) => PrimKind::Float,
            ConstVal::F64(_) => PrimKind::Double,
            ConstVal::Bool(_) => PrimKind::Boolean,
        }
    }

    /// The type of a register that holds it.
    pub fn ty(self) -> Ty {
        Ty::of_prim(self.kind())
    }

    /// Its bit pattern, zero-extended. With [`ConstVal::kind`] it is a
    /// key under which `0` and `0.0`, or `0.0` and `-0.0`, stay apart and
    /// a NaN equals itself.
    pub fn bits(self) -> u64 {
        match self {
            ConstVal::I32(v) => u64::from(v as u32),
            ConstVal::I64(v) => v as u64,
            ConstVal::F32(v) => u64::from(v.to_bits()),
            ConstVal::F64(v) => v.to_bits(),
            ConstVal::Bool(v) => u64::from(v),
        }
    }

    /// The instruction that loads it into `dst`.
    pub fn instr(self, dst: Reg) -> Instr {
        match self {
            ConstVal::I32(v) => Instr::ConstI32(dst, v),
            ConstVal::I64(v) => Instr::ConstI64(dst, v),
            ConstVal::F32(v) => Instr::ConstF32(dst, v),
            ConstVal::F64(v) => Instr::ConstF64(dst, v),
            ConstVal::Bool(v) => Instr::ConstBool(dst, v),
        }
    }

    /// `l op r`, as Java computes it: integer arithmetic wraps, a shift
    /// count is masked to the width of the kind (31 or 63), float `/` and
    /// `%` are IEEE, and every kind but `boolean` has all six comparisons.
    /// `None` when the operands differ in kind, when the operator does
    /// not exist for the kind (those `exec` refuses too), and for an int
    /// or long `/` or `%` by zero, which throws at run time.
    pub fn bin(op: BinOp, l: ConstVal, r: ConstVal) -> Option<ConstVal> {
        use BinOp::*;
        use ConstVal::{Bool, F32, F64, I32, I64};
        macro_rules! compare {
            ($a:expr, $b:expr) => {
                match op {
                    Lt => Bool($a < $b),
                    Le => Bool($a <= $b),
                    Gt => Bool($a > $b),
                    Ge => Bool($a >= $b),
                    Eq => Bool($a == $b),
                    Ne => Bool($a != $b),
                    _ => return None,
                }
            };
        }
        macro_rules! integral {
            ($a:expr, $b:expr, $ctor:path, $mask:expr) => {
                match op {
                    Add => $ctor($a.wrapping_add($b)),
                    Sub => $ctor($a.wrapping_sub($b)),
                    Mul => $ctor($a.wrapping_mul($b)),
                    Div | Rem if $b == 0 => return None,
                    Div => $ctor($a.wrapping_div($b)),
                    Rem => $ctor($a.wrapping_rem($b)),
                    Shl => $ctor($a.wrapping_shl($b as u32 & $mask)),
                    Shr => $ctor($a.wrapping_shr($b as u32 & $mask)),
                    BitAnd => $ctor($a & $b),
                    BitOr => $ctor($a | $b),
                    BitXor => $ctor($a ^ $b),
                    _ => compare!($a, $b),
                }
            };
        }
        macro_rules! floating {
            ($a:expr, $b:expr, $ctor:path) => {
                match op {
                    Add => $ctor($a + $b),
                    Sub => $ctor($a - $b),
                    Mul => $ctor($a * $b),
                    Div => $ctor($a / $b),
                    Rem => $ctor($a % $b),
                    _ => compare!($a, $b),
                }
            };
        }
        Some(match (l, r) {
            (I32(a), I32(b)) => integral!(a, b, I32, 31),
            (I64(a), I64(b)) => integral!(a, b, I64, 63),
            (F32(a), F32(b)) => floating!(a, b, F32),
            (F64(a), F64(b)) => floating!(a, b, F64),
            (Bool(a), Bool(b)) => match op {
                And => Bool(a && b),
                Or => Bool(a || b),
                Eq => Bool(a == b),
                Ne => Bool(a != b),
                _ => return None,
            },
            _ => return None,
        })
    }

    /// `(to) self`, as Java converts: a number to a number rounds once
    /// (to nearest even) and a float to an integer saturates, with NaN
    /// going to 0; a `boolean` converts only to itself.
    pub fn cast(self, to: PrimKind) -> Option<ConstVal> {
        macro_rules! number {
            ($x:expr) => {
                match to {
                    PrimKind::Int => ConstVal::I32($x as i32),
                    PrimKind::Long => ConstVal::I64($x as i64),
                    PrimKind::Float => ConstVal::F32($x as f32),
                    PrimKind::Double => ConstVal::F64($x as f64),
                    PrimKind::Boolean => return None,
                }
            };
        }
        Some(match self {
            ConstVal::I32(x) => number!(x),
            ConstVal::I64(x) => number!(x),
            ConstVal::F32(x) => number!(x),
            ConstVal::F64(x) => number!(x),
            ConstVal::Bool(_) if to == PrimKind::Boolean => self,
            ConstVal::Bool(_) => return None,
        })
    }

    /// `op self`: `-` wraps on integers and flips a float's sign, `!`
    /// negates a `boolean`; `None` for any other kind.
    pub fn un(self, op: UnOp) -> Option<ConstVal> {
        Some(match (op, self) {
            (UnOp::Neg, ConstVal::I32(v)) => ConstVal::I32(v.wrapping_neg()),
            (UnOp::Neg, ConstVal::I64(v)) => ConstVal::I64(v.wrapping_neg()),
            (UnOp::Neg, ConstVal::F32(v)) => ConstVal::F32(-v),
            (UnOp::Neg, ConstVal::F64(v)) => ConstVal::F64(-v),
            (UnOp::Not, ConstVal::Bool(v)) => ConstVal::Bool(!v),
            _ => return None,
        })
    }
}

/// A complete translated program.
///
/// Functions are immutable and shared: an incremental translator's memo
/// and every program that replays it hold the same allocation, and cloning
/// a program bumps counts. A pass that rewrites a function goes through
/// [`Program::func_mut`], which copies it first only if it is shared.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub funcs: Vec<Arc<Function>>,
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

    /// A function to rewrite: its own copy if it is shared.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        Arc::make_mut(&mut self.funcs[id.0 as usize])
    }

    /// Append a function, fresh or shared.
    pub fn add_func(&mut self, f: impl Into<Arc<Function>>) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(f.into());
        id
    }

    /// The index of the host function named `sig.name`, registering
    /// `sig` if there is none yet.
    pub fn host_fn(&mut self, sig: HostFnSig) -> u32 {
        let known = self.host_fns.iter().position(|h| h.name == sig.name);
        known.unwrap_or_else(|| {
            self.host_fns.push(sig);
            self.host_fns.len() - 1
        }) as u32
    }

    /// Total instruction count (a code-size metric used by Table 3).
    pub fn instr_count(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }

    /// `(mpi, gpu)`: does some instruction need an MPI world, and does one
    /// need a GPU (a GPU intrinsic, a launch, a barrier or a shared
    /// allocation)? One walk, by each intrinsic's [`Platform`].
    pub fn uses(&self) -> (bool, bool) {
        let platform = |ins: &Instr| match ins {
            Instr::Launch { .. } | Instr::Sync | Instr::SharedAlloc { .. } => Some(Platform::Gpu),
            Instr::Intrin { op, .. } => op.row().map(|r| r.platform),
            _ => None,
        };
        let (mut mpi, mut gpu) = (false, false);
        for f in &self.funcs {
            for p in f.code.iter().filter_map(platform) {
                mpi |= p == Platform::Mpi;
                gpu |= p == Platform::Gpu;
            }
        }
        (mpi, gpu)
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
/// assert!(p.verify().is_ok());
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
    /// (pc, which target in `for_each_target` order, label) fixups
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

    /// Load `v` into a fresh register.
    pub fn constant(&mut self, v: ConstVal) -> Reg {
        let r = self.reg(v.ty());
        self.emit(v.instr(r));
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
        self.fixups.push((pc, 0, t));
        self.fixups.push((pc, 1, f));
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
        for &(pc, slot, label) in &self.fixups {
            let target = self.labels[label.0 as usize]
                .ok_or_else(|| format!("unbound label {} in `{}`", label.0, self.name))?;
            let mut i = 0;
            self.code[pc].for_each_target_mut(|t| {
                if i == slot {
                    *t = target;
                }
                i += 1;
            });
        }
        // Ensure control cannot fall (or jump) off the end: a label bound
        // after the last instruction (e.g. the end label of a trailing
        // `if`) needs a real terminator to land on.
        let len = self.code.len() as u32;
        let mut jumps_to_end = false;
        for ins in &self.code {
            ins.for_each_target(|t| jumps_to_end |= t == len);
        }
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
        p.verify().expect("valid");
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

    /// A launch needs a GPU even when neither side reads a GPU
    /// intrinsic, and so does either range copy; an MPI op needs MPI.
    #[test]
    fn uses_names_each_platform_an_instruction_needs() {
        let with = |ins: Instr| {
            let mut fb = FuncBuilder::new("f", vec![Ty::I32; 5], None, FuncKind::Host);
            fb.emit(ins);
            fb.emit(Instr::Ret(None));
            let mut p = Program::default();
            p.add_func(fb.finish().unwrap());
            p.uses()
        };
        let intrin = |op, args: Vec<Reg>| Instr::Intrin {
            op,
            args,
            dst: None,
        };
        let launch = Instr::Launch {
            kernel: FuncId(0),
            grid: [0; 3],
            block: [0; 3],
            args: vec![],
        };
        assert_eq!(with(launch), (false, true));
        for op in [IntrinOp::CopyToGpuRange, IntrinOp::CopyFromGpuRange] {
            assert_eq!(
                with(intrin(op, vec![0, 1, 2, 3, 4])),
                (false, true),
                "{op:?}"
            );
        }
        assert_eq!(with(intrin(IntrinOp::MpiBarrier, vec![])), (true, false));
        assert_eq!(with(intrin(IntrinOp::PrintI32, vec![0])), (false, false));
    }

    /// An integer `/` or `%` by zero throws in Java, so it folds to no
    /// constant; a float one is IEEE. Shift counts are masked to the
    /// width of the kind, and a `long` rounds once on its way to `float`.
    #[test]
    fn constants_compute_as_java_does() {
        use ConstVal::{F32, F64, I32, I64};
        for op in [BinOp::Div, BinOp::Rem] {
            assert_eq!(ConstVal::bin(op, I32(1), I32(0)), None, "{op:?}");
            assert_eq!(ConstVal::bin(op, I64(1), I64(0)), None, "{op:?}");
        }
        let inf = ConstVal::bin(BinOp::Div, F64(1.0), F64(0.0));
        assert_eq!(inf, Some(F64(f64::INFINITY)));
        assert_eq!(ConstVal::bin(BinOp::Shl, I32(1), I32(33)), Some(I32(2)));
        assert_eq!(
            ConstVal::bin(BinOp::Shl, I64(1), I64(33)),
            Some(I64(1 << 33))
        );
        assert_eq!(ConstVal::bin(BinOp::Shr, I64(-8), I64(65)), Some(I64(-4)));
        assert_eq!(ConstVal::bin(BinOp::Add, I32(1), I64(1)), None);
        let twice = (1i64 << 60) + (1 << 36) + 1;
        let once = ((1i64 << 60) + (1 << 37)) as f32;
        assert_eq!(I64(twice).cast(PrimKind::Float), Some(F32(once)));
        assert_eq!(F32(f32::NAN).cast(PrimKind::Int), Some(I32(0)));
        assert_eq!(I32(1).cast(PrimKind::Boolean), None);
    }

    /// A constant instruction and its value convert both ways, and a
    /// register of the value's type holds it.
    #[test]
    fn constant_instructions_round_trip() {
        let kinds = [
            PrimKind::Int,
            PrimKind::Long,
            PrimKind::Float,
            PrimKind::Double,
            PrimKind::Boolean,
        ];
        for kind in kinds {
            let zero = ConstVal::zero(kind);
            assert_eq!(zero.kind(), kind);
            assert_eq!(zero.ty(), Ty::of_prim(kind));
            let ins = zero.instr(7);
            assert_eq!((ins.dst(), ins.const_val()), (Some(7), Some(zero)));
            let mut fb = FuncBuilder::new("k", vec![], Some(zero.ty()), FuncKind::Host);
            let r = fb.constant(zero);
            fb.emit(Instr::Ret(Some(r)));
            let mut p = Program::default();
            p.add_func(fb.finish().unwrap());
            p.verify().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
        assert_eq!(Instr::Mov(1, 2).const_val(), None);
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

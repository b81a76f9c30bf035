//! # exec — the NIR execution engine
//!
//! Executes translated programs. One engine powers every series of the
//! paper's evaluation except *Java*:
//!
//! * the fully optimized WootinJ output (flat code, direct calls),
//! * the hand-written "C" programs (built directly as flat NIR),
//! * the *C++* / *Template* baselines (heap objects, vtable dispatch),
//! * CUDA kernels under `gpu-sim` and MPI ranks under `mpi-sim`.
//!
//! The engine is **resumable**: `run()` executes until completion, fuel
//! exhaustion, or a *yield point* — `__syncthreads`, an MPI operation, a
//! kernel launch, or a GPU memory operation. The surrounding runtime
//! (gpu-sim, mpi-sim, or the wootinj facade) services the yield and
//! resumes the thread. This is what makes barrier-correct GPU execution
//! and deterministic cooperative MPI scheduling possible without host
//! threads.
//!
//! Every retired instruction is charged a weight; the accumulated
//! `Counters::cycles` is the deterministic virtual-time metric behind the
//! scalability figures.

#![forbid(unsafe_code)]

pub mod ckpt;
pub mod fault;
mod image;
pub mod pool;

pub use ckpt::CkptError;
pub use fault::{FaultConfig, FaultPlan, FaultRng, MsgFault, ResilienceStats, TransportFault};
pub use image::Image;
pub use pool::{ExecMode, ExecutorCfg};

use image::{reg_of, Op, OpKind};
use jlang::types::PrimKind;
use nir::{ElemTy, FuncId, Instr, IntrinOp, Program, Reg};

/// A runtime value: primitives plus array/object handles into a
/// [`MemSpace`] / [`ObjHeap`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
    Bool(bool),
    Arr(u32),
    Obj(u32),
    /// Uninitialized register / void result.
    Unit,
}

/// The tag-mismatch error every typed operand check raises.
#[cold]
#[inline(never)]
fn expected(what: &str, found: Val) -> ExecError {
    ExecError::msg(format!("expected {what}, found {found:?}"))
}

impl Val {
    #[inline]
    pub fn as_i32(self) -> Result<i32, ExecError> {
        match self {
            Val::I32(v) => Ok(v),
            other => Err(expected("i32", other)),
        }
    }

    #[inline]
    pub fn as_i64(self) -> Result<i64, ExecError> {
        match self {
            Val::I64(v) => Ok(v),
            other => Err(expected("i64", other)),
        }
    }

    #[inline]
    pub fn as_f32(self) -> Result<f32, ExecError> {
        match self {
            Val::F32(v) => Ok(v),
            other => Err(expected("f32", other)),
        }
    }

    #[inline]
    pub fn as_f64(self) -> Result<f64, ExecError> {
        match self {
            Val::F64(v) => Ok(v),
            other => Err(expected("f64", other)),
        }
    }

    #[inline]
    pub fn as_bool(self) -> Result<bool, ExecError> {
        match self {
            Val::Bool(v) => Ok(v),
            other => Err(expected("bool", other)),
        }
    }

    #[inline]
    pub fn as_arr(self) -> Result<u32, ExecError> {
        match self {
            Val::Arr(v) => Ok(v),
            other => Err(expected("array handle", other)),
        }
    }

    #[inline]
    pub fn as_obj(self) -> Result<u32, ExecError> {
        match self {
            Val::Obj(v) => Ok(v),
            other => Err(expected("object handle", other)),
        }
    }
}

/// Typed array storage within a memory space.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrStore {
    I32(Vec<i32>),
    I64(Vec<i64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
    /// Explicitly freed (use-after-free is detected and reported).
    Freed,
}

impl ArrStore {
    pub fn new(elem: ElemTy, len: usize) -> ArrStore {
        match elem {
            ElemTy::I32 => ArrStore::I32(vec![0; len]),
            ElemTy::I64 => ArrStore::I64(vec![0; len]),
            ElemTy::F32 => ArrStore::F32(vec![0.0; len]),
            ElemTy::F64 => ArrStore::F64(vec![0.0; len]),
            ElemTy::Bool => ArrStore::Bool(vec![false; len]),
        }
    }

    pub fn len(&self) -> Result<usize, ExecError> {
        Ok(match self {
            ArrStore::I32(v) => v.len(),
            ArrStore::I64(v) => v.len(),
            ArrStore::F32(v) => v.len(),
            ArrStore::F64(v) => v.len(),
            ArrStore::Bool(v) => v.len(),
            ArrStore::Freed => return Err("use of freed array".into()),
        })
    }

    pub fn is_empty(&self) -> bool {
        matches!(self.len(), Ok(0))
    }

    #[inline]
    pub fn get(&self, i: usize) -> Result<Val, ExecError> {
        let v = match self {
            ArrStore::I32(v) => v.get(i).map(|x| Val::I32(*x)),
            ArrStore::I64(v) => v.get(i).map(|x| Val::I64(*x)),
            ArrStore::F32(v) => v.get(i).map(|x| Val::F32(*x)),
            ArrStore::F64(v) => v.get(i).map(|x| Val::F64(*x)),
            ArrStore::Bool(v) => v.get(i).map(|x| Val::Bool(*x)),
            ArrStore::Freed => None,
        };
        v.ok_or_else(|| self.access_error(i, None))
    }

    #[inline]
    pub fn set(&mut self, i: usize, val: Val) -> Result<(), ExecError> {
        let slot = match (&mut *self, val) {
            (ArrStore::I32(v), Val::I32(x)) => v.get_mut(i).map(|s| *s = x),
            (ArrStore::I64(v), Val::I64(x)) => v.get_mut(i).map(|s| *s = x),
            (ArrStore::F32(v), Val::F32(x)) => v.get_mut(i).map(|s| *s = x),
            (ArrStore::F64(v), Val::F64(x)) => v.get_mut(i).map(|s| *s = x),
            (ArrStore::Bool(v), Val::Bool(x)) => v.get_mut(i).map(|s| *s = x),
            _ => None,
        };
        slot.ok_or_else(|| self.access_error(i, Some(val)))
    }

    /// Why element `i` could not be read (or `stored` written): freed,
    /// out of bounds, or an element of another type — in that order.
    #[cold]
    #[inline(never)]
    fn access_error(&self, i: usize, stored: Option<Val>) -> ExecError {
        match (self.len(), stored) {
            (Err(freed), _) => freed,
            (Ok(n), _) if i >= n => {
                ExecError::msg(format!("array index {i} out of bounds (len {n})"))
            }
            (Ok(_), Some(x)) => {
                ExecError::msg(format!("type mismatch storing {x:?} into {self:?}"))
            }
            (Ok(_), None) => unreachable!("an in-bounds read of a live array succeeds"),
        }
    }
}

#[cold]
#[inline(never)]
fn bad_handle(h: u32) -> ExecError {
    ExecError::msg(format!("bad array handle {h}"))
}

/// A flat memory space (host, one per MPI rank, or a GPU device space).
#[derive(Debug, Default)]
pub struct MemSpace {
    pub arrays: Vec<ArrStore>,
}

impl MemSpace {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn alloc(&mut self, store: ArrStore) -> u32 {
        self.arrays.push(store);
        self.arrays.len() as u32 - 1
    }

    #[inline]
    pub fn arr(&self, h: u32) -> Result<&ArrStore, ExecError> {
        self.arrays.get(h as usize).ok_or_else(|| bad_handle(h))
    }

    #[inline]
    pub fn arr_mut(&mut self, h: u32) -> Result<&mut ArrStore, ExecError> {
        self.arrays.get_mut(h as usize).ok_or_else(|| bad_handle(h))
    }

    pub fn free(&mut self, h: u32) -> Result<(), ExecError> {
        let a = self.arr_mut(h)?;
        if matches!(a, ArrStore::Freed) {
            return Err("double free".into());
        }
        *a = ArrStore::Freed;
        Ok(())
    }
}

/// Heap objects for the unoptimized (C++/Template baseline) configurations.
#[derive(Debug, Default)]
pub struct ObjHeap {
    pub objects: Vec<(u32, Vec<Val>)>,
}

impl ObjHeap {
    pub fn alloc(&mut self, class: u32, fields: usize) -> u32 {
        self.objects.push((class, vec![Val::Unit; fields]));
        self.objects.len() as u32 - 1
    }

    #[inline]
    pub fn class_of(&self, h: u32) -> Result<u32, ExecError> {
        self.objects
            .get(h as usize)
            .map(|(c, _)| *c)
            .ok_or_else(|| ExecError::msg(format!("bad object {h}")))
    }

    #[inline]
    pub fn get(&self, h: u32, slot: u32) -> Result<Val, ExecError> {
        self.objects
            .get(h as usize)
            .and_then(|(_, f)| f.get(slot as usize).copied())
            .ok_or_else(|| ExecError::msg(format!("bad field {slot} of object {h}")))
    }

    #[inline]
    pub fn set(&mut self, h: u32, slot: u32, v: Val) -> Result<(), ExecError> {
        let rec = self
            .objects
            .get_mut(h as usize)
            .ok_or_else(|| ExecError::msg(format!("bad object {h}")))?;
        let f = rec
            .1
            .get_mut(slot as usize)
            .ok_or_else(|| ExecError::msg(format!("bad field {slot}")))?;
        *f = v;
        Ok(())
    }
}

/// Deterministic work accounting.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Retired instructions.
    pub instrs: u64,
    /// Weighted cost ("virtual cycles").
    pub cycles: u64,
}

/// Per-opcode weights (virtual cycles). Heap indirection and dynamic
/// dispatch are deliberately more expensive, mirroring their real costs.
pub fn weight(ins: &Instr) -> u64 {
    match ins {
        Instr::ConstI32(..)
        | Instr::ConstI64(..)
        | Instr::ConstF32(..)
        | Instr::ConstF64(..)
        | Instr::ConstBool(..)
        | Instr::Mov(..) => 1,
        Instr::Bin { .. } | Instr::Neg { .. } | Instr::Not { .. } | Instr::Cast { .. } => 1,
        Instr::Jmp(_) | Instr::Br { .. } => 1,
        Instr::Ret(_) => 2,
        Instr::Call { .. } => 6,
        // FFI transitions cost more than an internal call (the paper's
        // motivation for making MPI an intrinsic, not a JNI wrapper).
        Instr::CallHost { .. } => 12,
        Instr::NewObj { .. } => 30,
        Instr::GetField { .. } | Instr::PutField { .. } => 4,
        Instr::CallVirt { .. } => 14,
        Instr::NewArr { .. } => 30,
        Instr::LdArr { .. } | Instr::StArr { .. } => 2,
        Instr::ArrLen { .. } => 2,
        Instr::FreeArr { .. } => 10,
        Instr::Intrin { op, .. } => match op {
            IntrinOp::PrintI32
            | IntrinOp::PrintI64
            | IntrinOp::PrintF32
            | IntrinOp::PrintF64
            | IntrinOp::PrintBool => 20,
            IntrinOp::ArrayCopyF32 => 10,
            _ => 8,
        },
        Instr::Launch { .. } => 20,
        Instr::SharedAlloc { .. } => 10,
        Instr::Sync => 4,
    }
}

/// The machine state shared by all threads of one execution context (one
/// process / one rank / one device).
#[derive(Debug, Default)]
pub struct Machine {
    pub mem: MemSpace,
    pub objs: ObjHeap,
    pub globals: Vec<Val>,
    pub output: Vec<String>,
    pub counters: Counters,
    /// Optional deterministic fault-injection stream; when set, [`run`]
    /// consults it at slice starts (fuel exhaustion) and yield points
    /// (rank crashes). `None` (the default) injects nothing.
    pub fault: Option<FaultPlan>,
}

impl Machine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Initialize globals from the program's constant pool.
    pub fn with_globals(program: &Program) -> Self {
        let globals = program
            .globals
            .iter()
            .map(|g| match &g.value {
                nir::ConstVal::I32(v) => Val::I32(*v),
                nir::ConstVal::I64(v) => Val::I64(*v),
                nir::ConstVal::F32(v) => Val::F32(*v),
                nir::ConstVal::F64(v) => Val::F64(*v),
                nir::ConstVal::Bool(v) => Val::Bool(*v),
            })
            .collect();
        Machine {
            globals,
            ..Default::default()
        }
    }
}

/// Why `run` stopped.
#[derive(Debug)]
pub enum Yield {
    /// The entry frame returned.
    Done(Option<Val>),
    /// Fuel ran out; call `run` again to continue.
    OutOfFuel,
    /// Kernel thread reached `__syncthreads`.
    Sync,
    /// Kernel thread executed `SharedAlloc` at `pc` of the kernel; the GPU
    /// runtime must provide the (per-block) handle via `resume_with`.
    SharedAlloc { elem: ElemTy, len: usize, pc: u32 },
    /// Blocked on an MPI operation; the MPI runtime services it.
    Mpi { op: IntrinOp, args: Vec<Val> },
    /// Host requested a kernel launch.
    Launch {
        kernel: FuncId,
        grid: [u32; 3],
        block: [u32; 3],
        args: Vec<Val>,
    },
    /// Host requested a GPU memory operation (copy/alloc/free) or a CUDA
    /// thread-register read that gpu-sim must service.
    GpuMem { op: IntrinOp, args: Vec<Val> },
    /// A registered foreign (host) function call; the runtime services it
    /// through its [`HostRegistry`].
    Host { host: u32, args: Vec<Val> },
    /// An injected fault killed this execution context at the given
    /// retired-instruction count. The thread must not be resumed; the
    /// surrounding runtime decides how the world degrades.
    Crashed { step: u64 },
}

/// A registered foreign function: the reproduction's stand-in for a C
/// function linked into the generated program.
pub type HostFn = Box<dyn Fn(&[Val], &mut MemSpace) -> Result<Val, ExecError>>;

/// Foreign functions by registration order (indices must match the
/// program's `host_fns` table; the translator guarantees this when both
/// are built from the same registry keys).
#[derive(Default)]
pub struct HostRegistry {
    entries: Vec<(String, HostFn)>,
}

impl HostRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `f` under `key` (the `@Native("key")` string); returns its id.
    pub fn register(
        &mut self,
        key: impl Into<String>,
        f: impl Fn(&[Val], &mut MemSpace) -> Result<Val, ExecError> + 'static,
    ) -> u32 {
        self.entries.push((key.into(), Box::new(f)));
        self.entries.len() as u32 - 1
    }

    pub fn id_of(&self, key: &str) -> Option<u32> {
        self.entries
            .iter()
            .position(|(k, _)| k == key)
            .map(|i| i as u32)
    }

    pub fn call(&self, id: u32, args: &[Val], mem: &mut MemSpace) -> Result<Val, ExecError> {
        let (_, f) = self
            .entries
            .get(id as usize)
            .ok_or_else(|| ExecError::msg(format!("unregistered host function {id}")))?;
        f(args, mem)
    }

    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }
}

/// Execution error with function/pc context. Errors raised outside the
/// interpreter loop (value coercions, memory accesses, host functions)
/// start context-free; [`run`] attaches the function and pc of the
/// faulting instruction before surfacing them.
#[derive(Debug, Clone)]
pub struct ExecError {
    pub message: String,
    pub func: String,
    pub pc: u32,
}

impl ExecError {
    /// A context-free error (no function/pc yet).
    pub fn msg(message: impl Into<String>) -> Self {
        ExecError {
            message: message.into(),
            func: String::new(),
            pc: 0,
        }
    }

    /// Attach function/pc context unless the error already carries some.
    pub fn at(mut self, func: &str, pc: u32) -> Self {
        if self.func.is_empty() {
            self.func = func.to_string();
            self.pc = pc;
        }
        self
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.func.is_empty() {
            write!(f, "exec error: {}", self.message)
        } else {
            write!(
                f,
                "exec error in `{}` at pc {}: {}",
                self.func, self.pc, self.message
            )
        }
    }
}

impl std::error::Error for ExecError {}

impl From<String> for ExecError {
    fn from(message: String) -> Self {
        ExecError::msg(message)
    }
}

impl From<&str> for ExecError {
    fn from(message: &str) -> Self {
        ExecError::msg(message)
    }
}

#[derive(Debug, Clone)]
struct Frame {
    func: FuncId,
    pc: u32,
    /// Where this frame's registers start in [`Thread::stack`]; they end
    /// where the next frame's start (or at the top of the stack).
    base: usize,
    /// Register in the *caller* frame to receive our return value.
    ret_to: Option<Reg>,
}

/// A resumable execution context (call stack). CUDA threads, MPI ranks,
/// and plain host executions are all `Thread`s.
#[derive(Debug)]
pub struct Thread {
    frames: Vec<Frame>,
    /// The registers of every live frame, outermost first.
    stack: Vec<Val>,
    /// Where to deliver a value provided by `resume_with`.
    pending_dst: Option<Reg>,
    done: bool,
}

impl Thread {
    /// Create a thread poised to execute `func(args)`.
    pub fn new(program: &Program, func: FuncId, args: &[Val]) -> Result<Thread, ExecError> {
        let mut thread = Thread {
            frames: Vec::new(),
            stack: Vec::new(),
            pending_dst: None,
            done: false,
        };
        thread.reset(program, func, args)?;
        Ok(thread)
    }

    /// Discard whatever this thread was doing and poise it to execute
    /// `func(args)`, keeping its allocations (gpu-sim re-arms one set of
    /// threads block after block).
    pub fn reset(
        &mut self,
        program: &Program,
        func: FuncId,
        args: &[Val],
    ) -> Result<(), ExecError> {
        let f = program.func(func);
        if f.params.len() != args.len() {
            return Err(ExecError {
                message: format!(
                    "`{}` expects {} args, got {}",
                    f.name,
                    f.params.len(),
                    args.len()
                ),
                func: f.name.clone(),
                pc: 0,
            });
        }
        self.stack.clear();
        self.stack.resize(f.regs.len(), Val::Unit);
        self.stack[..args.len()].copy_from_slice(args);
        self.frames.clear();
        self.frames.push(Frame {
            func,
            pc: 0,
            base: 0,
            ret_to: None,
        });
        self.pending_dst = None;
        self.done = false;
        Ok(())
    }

    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Deliver the result of a serviced yield (pass `Val::Unit` for void).
    pub fn resume_with(&mut self, v: Val) {
        if let Some(dst) = self.pending_dst.take() {
            if let Some(top) = self.frames.last() {
                self.stack[top.base + dst as usize] = v;
            }
        }
    }

    /// Current call depth (for diagnostics).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Function and pc of the innermost frame. While a yield is being
    /// serviced the pc has already advanced past the yielding
    /// instruction, so the *faulting* instruction is `pc - 1`; runtimes
    /// use this to attach location context to errors raised outside the
    /// interpreter loop (see [`ExecError::at`]).
    pub fn frame_location(&self) -> Option<(FuncId, u32)> {
        self.frames.last().map(|f| (f.func, f.pc))
    }

    /// The registers of frame `i` (0 = outermost).
    fn frame_regs(&self, i: usize) -> &[Val] {
        let end = self.frames.get(i + 1).map_or(self.stack.len(), |f| f.base);
        &self.stack[self.frames[i].base..end]
    }
}

/// Maximum call depth (the coding rules forbid recursion, so this only
/// guards against translator bugs).
const MAX_DEPTH: usize = 256;

/// A formatted error, built out of line so the dispatch loop carries no
/// formatting code.
#[cold]
#[inline(never)]
fn error(message: std::fmt::Arguments<'_>) -> ExecError {
    ExecError::msg(message.to_string())
}

/// The error of a `Bin` whose operator does not exist for its operand
/// kind. Operand tags are checked first, as every well-formed `Bin` does.
#[cold]
fn bad_bin(kind: PrimKind, l: Val, r: Val) -> ExecError {
    let (tags, message) = match kind {
        PrimKind::Int => (l.as_i32().and(r.as_i32()).err(), "logical op on int"),
        PrimKind::Long => (l.as_i64().and(r.as_i64()).err(), "logical op on long"),
        PrimKind::Float => (l.as_f32().and(r.as_f32()).err(), "bitwise op on float"),
        PrimKind::Double => (l.as_f64().and(r.as_f64()).err(), "bitwise op on double"),
        PrimKind::Boolean => (l.as_bool().and(r.as_bool()).err(), "arith op on bool"),
    };
    tags.unwrap_or_else(|| message.into())
}

/// Why the dispatch loop left the current frame.
enum Exit {
    /// Enter `callee`; `pc` still names the call instruction, whose
    /// operand list the frame switch reads. `recv` is the receiver of a
    /// virtual call (the callee's register 0).
    Call {
        callee: FuncId,
        recv: Option<Val>,
        dst: Option<Reg>,
    },
    Ret(Option<Val>),
    Yield(Yield),
    Fail(ExecError),
}

/// Run `thread` until completion, a yield point, or `fuel` retired
/// instructions.
///
/// The loop dispatches on the image's decoded ops; the innermost frame's
/// op stream, registers and pc live in locals and are written back only
/// where control leaves the frame (call, return, yield, fuel-out, error).
pub fn run(
    thread: &mut Thread,
    image: &Image<'_>,
    machine: &mut Machine,
    mut fuel: u64,
) -> Result<Yield, ExecError> {
    if thread.done {
        return Ok(Yield::Done(None));
    }
    // Fault injection: a slice may deterministically get its fuel cut
    // short (the caller sees OutOfFuel earlier than expected).
    if let Some(plan) = machine.fault.as_mut() {
        fuel = plan.slice_fuel(fuel);
    }
    let program = image.program();
    // What this slice adds to `machine.counters`. Every retired
    // instruction burns one unit of fuel, so the retired count is the fuel
    // spent; only cycles need an accumulator of their own.
    let granted = fuel;
    let mut cycles = 0u64;
    let outcome = loop {
        let depth = thread.frames.len();
        let Some(frame) = thread.frames.last_mut() else {
            break Err(ExecError::msg("thread has no frame to run"));
        };
        let f = program.func(frame.func);
        let code = &f.code[..];
        let ops = image.ops(frame.func);
        let base = frame.base;
        let regs = &mut thread.stack[base..];
        let mut pc = frame.pc as usize;

        let exit = loop {
            if fuel == 0 {
                break Exit::Yield(Yield::OutOfFuel);
            }
            let Some(&op) = ops.get(pc) else {
                break Exit::Fail("fell off the end of function".into());
            };
            cycles += op.weight as u64;
            fuel -= 1;
            let (a, b, c) = (op.a as usize, op.b as usize, op.c as usize);

            macro_rules! fail {
                ($e:expr) => {
                    break Exit::Fail($e)
                };
            }
            // dst = f(x) over one operand of variant $T.
            macro_rules! un {
                ($T:ident $what:literal => $R:ident, |$x:ident| $e:expr) => {
                    match regs[b] {
                        Val::$T($x) => regs[a] = Val::$R($e),
                        other => fail!(expected($what, other)),
                    }
                };
            }
            // dst = f(x, y) over two operands of variant $T; the left
            // operand's tag is checked first.
            macro_rules! bin {
                ($T:ident $what:literal => $R:ident, |$x:ident, $y:ident| $e:expr) => {
                    // Matched in place: a by-value pair would be built
                    // on the stack and read back.
                    match (&regs[b], &regs[c]) {
                        (&Val::$T($x), &Val::$T($y)) => regs[a] = Val::$R($e),
                        (&Val::$T(_), &other) | (&other, _) => fail!(expected($what, other)),
                    }
                };
            }
            macro_rules! neg {
                ($T:ident, $kind:ident, |$x:ident| $e:expr) => {
                    match regs[b] {
                        Val::$T($x) => regs[a] = Val::$T($e),
                        v => fail!(error(format_args!(
                            "bad neg {:?} on {v:?}",
                            PrimKind::$kind
                        ))),
                    }
                };
            }
            macro_rules! cast {
                ($to:ident) => {
                    match numcast(PrimKind::$to, regs[b]) {
                        Ok(v) => regs[a] = v,
                        Err(e) => fail!(e),
                    }
                };
            }
            // The operand in register $r, which must be of variant $T.
            // Matched in place: `Val::as_*` take `self` by value, which
            // costs a copy to the stack on this path.
            macro_rules! expect {
                ($r:expr, $T:ident $what:literal) => {
                    match regs[$r] {
                        Val::$T(v) => v,
                        other => fail!(expected($what, other)),
                    }
                };
            }
            macro_rules! attempt {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(e) => fail!(e),
                    }
                };
            }

            match op.kind {
                OpKind::ConstI32 => regs[a] = Val::I32(op.b as i32),
                OpKind::ConstI64 => regs[a] = Val::I64(((op.c as u64) << 32 | op.b as u64) as i64),
                OpKind::ConstF32 => regs[a] = Val::F32(f32::from_bits(op.b)),
                OpKind::ConstF64 => {
                    regs[a] = Val::F64(f64::from_bits((op.c as u64) << 32 | op.b as u64))
                }
                OpKind::ConstBool => regs[a] = Val::Bool(op.b != 0),
                OpKind::Mov => regs[a] = regs[b],

                OpKind::AddI32 => bin!(I32 "i32" => I32, |x, y| x.wrapping_add(y)),
                OpKind::SubI32 => bin!(I32 "i32" => I32, |x, y| x.wrapping_sub(y)),
                OpKind::MulI32 => bin!(I32 "i32" => I32, |x, y| x.wrapping_mul(y)),
                OpKind::DivI32 => bin!(I32 "i32" => I32, |x, y| {
                    if y == 0 {
                        fail!("division by zero".into());
                    }
                    x.wrapping_div(y)
                }),
                OpKind::RemI32 => bin!(I32 "i32" => I32, |x, y| {
                    if y == 0 {
                        fail!("remainder by zero".into());
                    }
                    x.wrapping_rem(y)
                }),
                OpKind::LtI32 => bin!(I32 "i32" => Bool, |x, y| x < y),
                OpKind::LeI32 => bin!(I32 "i32" => Bool, |x, y| x <= y),
                OpKind::GtI32 => bin!(I32 "i32" => Bool, |x, y| x > y),
                OpKind::GeI32 => bin!(I32 "i32" => Bool, |x, y| x >= y),
                OpKind::EqI32 => bin!(I32 "i32" => Bool, |x, y| x == y),
                OpKind::NeI32 => bin!(I32 "i32" => Bool, |x, y| x != y),
                OpKind::ShlI32 => bin!(I32 "i32" => I32, |x, y| x.wrapping_shl(y as u32 & 31)),
                OpKind::ShrI32 => bin!(I32 "i32" => I32, |x, y| x.wrapping_shr(y as u32 & 31)),
                OpKind::AndI32 => bin!(I32 "i32" => I32, |x, y| x & y),
                OpKind::OrI32 => bin!(I32 "i32" => I32, |x, y| x | y),
                OpKind::XorI32 => bin!(I32 "i32" => I32, |x, y| x ^ y),

                OpKind::AddI64 => bin!(I64 "i64" => I64, |x, y| x.wrapping_add(y)),
                OpKind::SubI64 => bin!(I64 "i64" => I64, |x, y| x.wrapping_sub(y)),
                OpKind::MulI64 => bin!(I64 "i64" => I64, |x, y| x.wrapping_mul(y)),
                OpKind::DivI64 => bin!(I64 "i64" => I64, |x, y| {
                    if y == 0 {
                        fail!("division by zero".into());
                    }
                    x.wrapping_div(y)
                }),
                OpKind::RemI64 => bin!(I64 "i64" => I64, |x, y| {
                    if y == 0 {
                        fail!("remainder by zero".into());
                    }
                    x.wrapping_rem(y)
                }),
                OpKind::LtI64 => bin!(I64 "i64" => Bool, |x, y| x < y),
                OpKind::LeI64 => bin!(I64 "i64" => Bool, |x, y| x <= y),
                OpKind::GtI64 => bin!(I64 "i64" => Bool, |x, y| x > y),
                OpKind::GeI64 => bin!(I64 "i64" => Bool, |x, y| x >= y),
                OpKind::EqI64 => bin!(I64 "i64" => Bool, |x, y| x == y),
                OpKind::NeI64 => bin!(I64 "i64" => Bool, |x, y| x != y),
                OpKind::ShlI64 => bin!(I64 "i64" => I64, |x, y| x.wrapping_shl(y as u32 & 63)),
                OpKind::ShrI64 => bin!(I64 "i64" => I64, |x, y| x.wrapping_shr(y as u32 & 63)),
                OpKind::AndI64 => bin!(I64 "i64" => I64, |x, y| x & y),
                OpKind::OrI64 => bin!(I64 "i64" => I64, |x, y| x | y),
                OpKind::XorI64 => bin!(I64 "i64" => I64, |x, y| x ^ y),

                OpKind::AddF32 => bin!(F32 "f32" => F32, |x, y| x + y),
                OpKind::SubF32 => bin!(F32 "f32" => F32, |x, y| x - y),
                OpKind::MulF32 => bin!(F32 "f32" => F32, |x, y| x * y),
                OpKind::DivF32 => bin!(F32 "f32" => F32, |x, y| x / y),
                OpKind::RemF32 => bin!(F32 "f32" => F32, |x, y| x % y),
                OpKind::LtF32 => bin!(F32 "f32" => Bool, |x, y| x < y),
                OpKind::LeF32 => bin!(F32 "f32" => Bool, |x, y| x <= y),
                OpKind::GtF32 => bin!(F32 "f32" => Bool, |x, y| x > y),
                OpKind::GeF32 => bin!(F32 "f32" => Bool, |x, y| x >= y),
                OpKind::EqF32 => bin!(F32 "f32" => Bool, |x, y| x == y),
                OpKind::NeF32 => bin!(F32 "f32" => Bool, |x, y| x != y),

                OpKind::AddF64 => bin!(F64 "f64" => F64, |x, y| x + y),
                OpKind::SubF64 => bin!(F64 "f64" => F64, |x, y| x - y),
                OpKind::MulF64 => bin!(F64 "f64" => F64, |x, y| x * y),
                OpKind::DivF64 => bin!(F64 "f64" => F64, |x, y| x / y),
                OpKind::RemF64 => bin!(F64 "f64" => F64, |x, y| x % y),
                OpKind::LtF64 => bin!(F64 "f64" => Bool, |x, y| x < y),
                OpKind::LeF64 => bin!(F64 "f64" => Bool, |x, y| x <= y),
                OpKind::GtF64 => bin!(F64 "f64" => Bool, |x, y| x > y),
                OpKind::GeF64 => bin!(F64 "f64" => Bool, |x, y| x >= y),
                OpKind::EqF64 => bin!(F64 "f64" => Bool, |x, y| x == y),
                OpKind::NeF64 => bin!(F64 "f64" => Bool, |x, y| x != y),

                OpKind::EqBool => bin!(Bool "bool" => Bool, |x, y| x == y),
                OpKind::NeBool => bin!(Bool "bool" => Bool, |x, y| x != y),
                OpKind::AndBool => bin!(Bool "bool" => Bool, |x, y| x && y),
                OpKind::OrBool => bin!(Bool "bool" => Bool, |x, y| x || y),
                OpKind::BadBin => {
                    let Instr::Bin { kind, .. } = &code[pc] else {
                        unreachable!("ops[pc] decodes code[pc]")
                    };
                    fail!(bad_bin(*kind, regs[b], regs[c]))
                }

                OpKind::NegI32 => neg!(I32, Int, |x| x.wrapping_neg()),
                OpKind::NegI64 => neg!(I64, Long, |x| x.wrapping_neg()),
                OpKind::NegF32 => neg!(F32, Float, |x| -x),
                OpKind::NegF64 => neg!(F64, Double, |x| -x),
                OpKind::NegBad => fail!(error(format_args!(
                    "bad neg {:?} on {:?}",
                    PrimKind::Boolean,
                    regs[b]
                ))),
                OpKind::Not => un!(Bool "bool" => Bool, |x| !x),
                OpKind::CastI32 => cast!(Int),
                OpKind::CastI64 => cast!(Long),
                OpKind::CastF32 => cast!(Float),
                OpKind::CastF64 => cast!(Double),
                OpKind::CastBool => cast!(Boolean),

                OpKind::Jmp => {
                    pc = a;
                    continue;
                }
                OpKind::Br => {
                    pc = if expect!(a, Bool "bool") { b } else { c };
                    continue;
                }
                OpKind::Ret => break Exit::Ret(reg_of(op.a).map(|r| regs[r as usize])),
                OpKind::Call => {
                    if depth >= MAX_DEPTH {
                        fail!("call depth limit exceeded".into());
                    }
                    break Exit::Call {
                        callee: FuncId(op.a),
                        recv: None,
                        dst: reg_of(op.b),
                    };
                }
                OpKind::CallVirt => {
                    if depth >= MAX_DEPTH {
                        fail!("call depth limit exceeded".into());
                    }
                    let h = expect!(b, Obj "object handle");
                    let class = attempt!(machine.objs.class_of(h));
                    let meta = &program.classes[class as usize];
                    let Some(&(_, callee)) = meta.vtable.iter().find(|(s, _)| *s == op.a) else {
                        fail!(error(format_args!(
                            "class `{}` has no vtable entry for `{}`",
                            meta.name, program.selectors[a]
                        )));
                    };
                    break Exit::Call {
                        callee,
                        recv: Some(Val::Obj(h)),
                        dst: reg_of(op.c),
                    };
                }
                OpKind::NewObj => regs[a] = Val::Obj(machine.objs.alloc(op.b, c)),
                OpKind::GetField => {
                    let h = expect!(b, Obj "object handle");
                    regs[a] = attempt!(machine.objs.get(h, op.c));
                }
                OpKind::PutField => {
                    let h = expect!(a, Obj "object handle");
                    attempt!(machine.objs.set(h, op.b, regs[c]));
                }

                OpKind::LdArr => {
                    let h = expect!(b, Arr "array handle");
                    let i = expect!(c, I32 "i32");
                    if i < 0 {
                        fail!(error(format_args!("negative index {i}")));
                    }
                    let store = attempt!(machine.mem.arr(h));
                    regs[a] = attempt!(store.get(i as usize));
                }
                OpKind::StArr => {
                    let h = expect!(a, Arr "array handle");
                    let i = expect!(b, I32 "i32");
                    if i < 0 {
                        fail!(error(format_args!("negative index {i}")));
                    }
                    let store = attempt!(machine.mem.arr_mut(h));
                    attempt!(store.set(i as usize, regs[c]));
                }
                OpKind::ArrLen => {
                    let h = expect!(b, Arr "array handle");
                    let n = attempt!(attempt!(machine.mem.arr(h)).len());
                    regs[a] = Val::I32(n as i32);
                }
                OpKind::SqrtF64 => un!(F64 "f64" => F64, |x| x.sqrt()),
                OpKind::SqrtF32 => un!(F32 "f32" => F32, |x| x.sqrt()),
                OpKind::PowF64 => bin!(F64 "f64" => F64, |x, y| x.powf(y)),
                OpKind::ExpF64 => un!(F64 "f64" => F64, |x| x.exp()),
                OpKind::AbsF32 => un!(F32 "f32" => F32, |x| x.abs()),
                OpKind::AbsF64 => un!(F64 "f64" => F64, |x| x.abs()),
                OpKind::AbsI32 => un!(I32 "i32" => I32, |x| x.wrapping_abs()),
                OpKind::MinI32 => bin!(I32 "i32" => I32, |x, y| x.min(y)),
                OpKind::MaxI32 => bin!(I32 "i32" => I32, |x, y| x.max(y)),
                OpKind::MinF32 => bin!(F32 "f32" => F32, |x, y| x.min(y)),
                OpKind::MaxF32 => bin!(F32 "f32" => F32, |x, y| x.max(y)),

                OpKind::CallHost
                | OpKind::NewArr
                | OpKind::FreeArr
                | OpKind::Print
                | OpKind::ArrayCopyF32
                | OpKind::YieldGpu
                | OpKind::YieldMpi
                | OpKind::Launch
                | OpKind::SharedAlloc
                | OpKind::Sync => {
                    match attempt!(slow_op(op, &code[pc], pc as u32, regs, machine)) {
                        Slow::Next => {}
                        Slow::Crashed => {
                            thread.done = true;
                            break Exit::Yield(Yield::Crashed {
                                step: machine.counters.instrs + (granted - fuel),
                            });
                        }
                        // The frame resumes after the yielding instruction.
                        Slow::Yield(dst, y) => {
                            thread.pending_dst = dst;
                            pc += 1;
                            break Exit::Yield(y);
                        }
                    }
                }
            }
            pc += 1;
        };

        // Control leaves the frame: write its pc back, then switch.
        frame.pc = pc as u32;
        match exit {
            Exit::Yield(y) => break Ok(y),
            Exit::Fail(e) => break Err(e.at(&f.name, pc as u32)),
            Exit::Ret(v) => {
                let ret_to = frame.ret_to;
                thread.frames.pop();
                thread.stack.truncate(base);
                let Some(caller) = thread.frames.last() else {
                    thread.done = true;
                    break Ok(Yield::Done(v));
                };
                if let Some(dst) = ret_to {
                    thread.stack[caller.base + dst as usize] = v.unwrap_or(Val::Unit);
                }
            }
            Exit::Call { callee, recv, dst } => {
                frame.pc += 1;
                let args = match &code[pc] {
                    Instr::Call { args, .. } | Instr::CallVirt { args, .. } => args,
                    _ => unreachable!("ops[pc] decodes code[pc]"),
                };
                let callee_base = thread.stack.len();
                let first_arg = callee_base + recv.is_some() as usize;
                thread
                    .stack
                    .resize(callee_base + program.func(callee).regs.len(), Val::Unit);
                if let Some(recv) = recv {
                    thread.stack[callee_base] = recv;
                }
                for (i, a) in args.iter().enumerate() {
                    thread.stack[first_arg + i] = thread.stack[base + *a as usize];
                }
                thread.frames.push(Frame {
                    func: callee,
                    pc: 0,
                    base: callee_base,
                    ret_to: dst,
                });
            }
        }
    };
    machine.counters.instrs += granted - fuel;
    machine.counters.cycles += cycles;
    outcome
}

/// What an out-of-line op asks of the dispatch loop.
enum Slow {
    Next,
    /// Surface the yield; its result, if any, goes to the register.
    Yield(Option<Reg>, Yield),
    /// The fault plan killed this context at a yield point.
    Crashed,
}

/// The ops that allocate, print or leave the loop. They run out of line,
/// reading operand lists from the `nir::Instr` the op decodes, so that
/// the dispatch loop stays small enough to keep its state in registers.
#[inline(never)]
fn slow_op(
    op: Op,
    ins: &Instr,
    pc: u32,
    regs: &mut [Val],
    machine: &mut Machine,
) -> Result<Slow, ExecError> {
    let (a, b) = (op.a as usize, op.b as usize);
    let read = |list: &[Reg]| list.iter().map(|r| regs[*r as usize]).collect::<Vec<Val>>();
    // Fault injection: yield points are the places an execution context
    // can crash. The draw happens *before* the yield is surfaced, so the
    // runtime never services an op the crashed rank would not have issued.
    let yields = !matches!(
        op.kind,
        OpKind::NewArr | OpKind::FreeArr | OpKind::Print | OpKind::ArrayCopyF32
    );
    if yields {
        if let Some(plan) = machine.fault.as_mut() {
            if plan.crash_at_yield() {
                return Ok(Slow::Crashed);
            }
        }
    }
    Ok(match (op.kind, ins) {
        (OpKind::CallHost, Instr::CallHost { args, .. }) => Slow::Yield(
            reg_of(op.b),
            Yield::Host {
                host: op.a,
                args: read(args),
            },
        ),
        (OpKind::NewArr, Instr::NewArr { elem, .. }) => {
            let n = regs[b].as_i32()?;
            if n < 0 {
                return Err(format!("negative array size {n}").into());
            }
            // Charge zero-fill cost proportional to the allocation.
            machine.counters.cycles += (n as u64) / 16;
            regs[a] = Val::Arr(machine.mem.alloc(ArrStore::new(*elem, n as usize)));
            Slow::Next
        }
        (OpKind::FreeArr, _) => {
            machine.mem.free(regs[a].as_arr()?)?;
            Slow::Next
        }
        (OpKind::Print, _) => {
            let line = match regs[a] {
                Val::I32(v) => v.to_string(),
                Val::I64(v) => v.to_string(),
                Val::F32(v) => format!("{v}"),
                Val::F64(v) => format!("{v}"),
                Val::Bool(v) => v.to_string(),
                other => return Err(format!("bad print arg {other:?}").into()),
            };
            machine.output.push(line);
            Slow::Next
        }
        (OpKind::ArrayCopyF32, Instr::Intrin { args, .. }) => {
            let argv = read(args);
            let src = argv[0].as_arr()?;
            let spos = argv[1].as_i32()? as usize;
            let dst = argv[2].as_arr()?;
            let dpos = argv[3].as_i32()? as usize;
            let n = argv[4].as_i32()? as usize;
            machine.counters.cycles += (n as u64) / 8;
            array_copy_f32(&mut machine.mem, src, spos, dst, dpos, n)?;
            Slow::Next
        }
        // CUDA thread-register reads and GPU memory operations are
        // serviced by gpu-sim / the device runtime, MPI by mpi-sim.
        (
            OpKind::YieldGpu,
            Instr::Intrin {
                op: intrin, args, ..
            },
        ) => Slow::Yield(
            reg_of(op.a),
            Yield::GpuMem {
                op: *intrin,
                args: read(args),
            },
        ),
        (
            OpKind::YieldMpi,
            Instr::Intrin {
                op: intrin, args, ..
            },
        ) => Slow::Yield(
            reg_of(op.a),
            Yield::Mpi {
                op: *intrin,
                args: read(args),
            },
        ),
        (
            OpKind::Launch,
            Instr::Launch {
                kernel,
                grid,
                block,
                args,
            },
        ) => {
            let dim = |r: Reg| -> Result<u32, ExecError> {
                let v = regs[r as usize].as_i32()?;
                if v <= 0 {
                    return Err(format!("non-positive launch dimension {v}").into());
                }
                Ok(v as u32)
            };
            Slow::Yield(
                None,
                Yield::Launch {
                    kernel: *kernel,
                    grid: [dim(grid[0])?, dim(grid[1])?, dim(grid[2])?],
                    block: [dim(block[0])?, dim(block[1])?, dim(block[2])?],
                    args: read(args),
                },
            )
        }
        (OpKind::SharedAlloc, Instr::SharedAlloc { elem, .. }) => {
            let n = regs[b].as_i32()?;
            if n < 0 {
                return Err(format!("negative shared allocation {n}").into());
            }
            Slow::Yield(
                Some(op.a),
                Yield::SharedAlloc {
                    elem: *elem,
                    len: n as usize,
                    pc,
                },
            )
        }
        (OpKind::Sync, _) => Slow::Yield(None, Yield::Sync),
        _ => unreachable!("ops[pc] decodes code[pc], and only these ops run out of line"),
    })
}

/// `System.arraycopy` over two float arrays of one memory space.
fn array_copy_f32(
    mem: &mut MemSpace,
    src: u32,
    spos: usize,
    dst: u32,
    dpos: usize,
    n: usize,
) -> Result<(), ExecError> {
    let range = |v: &[f32], pos: usize| pos.checked_add(n).filter(|end| *end <= v.len());
    let data: Vec<f32> = match mem.arr(src)? {
        ArrStore::F32(v) => match range(v, spos) {
            Some(end) => v[spos..end].to_vec(),
            None => return Err("arraycopy src out of range".into()),
        },
        _ => return Err("arraycopy on non-f32 array".into()),
    };
    match mem.arr_mut(dst)? {
        ArrStore::F32(v) => match range(v, dpos) {
            Some(end) => v[dpos..end].copy_from_slice(&data),
            None => return Err("arraycopy dst out of range".into()),
        },
        _ => return Err("arraycopy on non-f32 array".into()),
    }
    Ok(())
}

/// Convenience: run a function to completion in a machine, servicing no
/// yields (errors if the program needs MPI/GPU runtimes).
pub fn run_to_completion(
    program: &Program,
    func: FuncId,
    args: Vec<Val>,
    machine: &mut Machine,
) -> Result<Option<Val>, ExecError> {
    let image = Image::build(program)?;
    let mut t = Thread::new(program, func, &args)?;
    loop {
        match run(&mut t, &image, machine, u64::MAX)? {
            Yield::Done(v) => return Ok(v),
            Yield::OutOfFuel => {}
            Yield::Crashed { step } => {
                return Err(ExecError::msg(format!(
                    "injected crash at step {step} (fault plan)"
                )))
            }
            other => {
                return Err(ExecError {
                    message: format!(
                        "program requires a runtime service ({other:?}); use the wootinj facade"
                    ),
                    func: String::new(),
                    pc: 0,
                })
            }
        }
    }
}

#[inline]
fn numcast(to: PrimKind, v: Val) -> Result<Val, ExecError> {
    Ok(match to {
        PrimKind::Int => Val::I32(match v {
            Val::I32(x) => x,
            Val::I64(x) => x as i32,
            Val::F32(x) => x as i32,
            Val::F64(x) => x as i32,
            other => return Err(ExecError::msg(format!("cannot cast {other:?} to int"))),
        }),
        PrimKind::Long => Val::I64(match v {
            Val::I32(x) => x as i64,
            Val::I64(x) => x,
            Val::F32(x) => x as i64,
            Val::F64(x) => x as i64,
            other => return Err(ExecError::msg(format!("cannot cast {other:?} to long"))),
        }),
        PrimKind::Float => Val::F32(match v {
            Val::I32(x) => x as f32,
            Val::I64(x) => x as f32,
            Val::F32(x) => x,
            Val::F64(x) => x as f32,
            other => return Err(ExecError::msg(format!("cannot cast {other:?} to float"))),
        }),
        PrimKind::Double => Val::F64(match v {
            Val::I32(x) => x as f64,
            Val::I64(x) => x as f64,
            Val::F32(x) => x as f64,
            Val::F64(x) => x,
            other => return Err(ExecError::msg(format!("cannot cast {other:?} to double"))),
        }),
        PrimKind::Boolean => match v {
            Val::Bool(_) => v,
            other => return Err(ExecError::msg(format!("cannot cast {other:?} to boolean"))),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jlang::ast::BinOp;
    use nir::{FuncBuilder, FuncKind, Ty};

    fn program_sum_to(n: i32) -> (Program, FuncId) {
        // fn f() -> i32 { s = 0; i = 0; while i < n { s += i; i += 1 }; s }
        let mut fb = FuncBuilder::new("f", vec![], Some(Ty::I32), FuncKind::Host);
        let s = fb.reg(Ty::I32);
        let i = fb.reg(Ty::I32);
        let nn = fb.reg(Ty::I32);
        let one = fb.reg(Ty::I32);
        let c = fb.reg(Ty::Bool);
        fb.emit(Instr::ConstI32(s, 0));
        fb.emit(Instr::ConstI32(i, 0));
        fb.emit(Instr::ConstI32(nn, n));
        fb.emit(Instr::ConstI32(one, 1));
        let head = fb.label();
        let body = fb.label();
        let done = fb.label();
        fb.bind(head);
        fb.emit(Instr::Bin {
            op: BinOp::Lt,
            kind: PrimKind::Int,
            dst: c,
            lhs: i,
            rhs: nn,
        });
        fb.br(c, body, done);
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
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        p.entry = Some(id);
        p.validate().unwrap();
        (p, id)
    }

    #[test]
    fn loop_executes() {
        let (p, id) = program_sum_to(100);
        let mut m = Machine::new();
        let v = run_to_completion(&p, id, vec![], &mut m).unwrap();
        assert_eq!(v, Some(Val::I32(4950)));
        assert!(m.counters.instrs > 400);
    }

    #[test]
    fn fuel_suspends_and_resumes() {
        let (p, id) = program_sum_to(1000);
        let mut m = Machine::new();
        let image = Image::build(&p).unwrap();
        let mut t = Thread::new(&p, id, &[]).unwrap();
        let mut rounds = 0;
        let v = loop {
            match run(&mut t, &image, &mut m, 100).unwrap() {
                Yield::Done(v) => break v,
                Yield::OutOfFuel => rounds += 1,
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(v, Some(Val::I32(499_500)));
        assert!(rounds > 10, "should have suspended many times: {rounds}");
    }

    #[test]
    fn counters_deterministic() {
        let (p, id) = program_sum_to(50);
        let mut m1 = Machine::new();
        run_to_completion(&p, id, vec![], &mut m1).unwrap();
        let mut m2 = Machine::new();
        run_to_completion(&p, id, vec![], &mut m2).unwrap();
        assert_eq!(m1.counters.instrs, m2.counters.instrs);
        assert_eq!(m1.counters.cycles, m2.counters.cycles);
    }

    #[test]
    fn calls_pass_args_and_return() {
        // g(x) = x * 2; f(a) = g(a) + 1
        let mut p = Program::default();
        let mut gb = FuncBuilder::new("g", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let two = gb.reg(Ty::I32);
        let r = gb.reg(Ty::I32);
        gb.emit(Instr::ConstI32(two, 2));
        gb.emit(Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Int,
            dst: r,
            lhs: 0,
            rhs: two,
        });
        gb.emit(Instr::Ret(Some(r)));
        let g = p.add_func(gb.finish().unwrap());
        let mut fbb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let gr = fbb.reg(Ty::I32);
        let one = fbb.reg(Ty::I32);
        let out = fbb.reg(Ty::I32);
        fbb.emit(Instr::Call {
            func: g,
            args: vec![0],
            dst: Some(gr),
        });
        fbb.emit(Instr::ConstI32(one, 1));
        fbb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: out,
            lhs: gr,
            rhs: one,
        });
        fbb.emit(Instr::Ret(Some(out)));
        let f = p.add_func(fbb.finish().unwrap());
        p.validate().unwrap();
        let mut m = Machine::new();
        let v = run_to_completion(&p, f, vec![Val::I32(21)], &mut m).unwrap();
        assert_eq!(v, Some(Val::I32(43)));
    }

    #[test]
    fn arrays_alloc_store_load_free() {
        let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::F32), FuncKind::Host);
        let arr = fb.reg(Ty::Arr(ElemTy::F32));
        let idx = fb.reg(Ty::I32);
        let v = fb.reg(Ty::F32);
        let out = fb.reg(Ty::F32);
        fb.emit(Instr::NewArr {
            elem: ElemTy::F32,
            len: 0,
            dst: arr,
        });
        fb.emit(Instr::ConstI32(idx, 3));
        fb.emit(Instr::ConstF32(v, 2.5));
        fb.emit(Instr::StArr { arr, idx, src: v });
        fb.emit(Instr::LdArr { arr, idx, dst: out });
        fb.emit(Instr::FreeArr { arr });
        fb.emit(Instr::Ret(Some(out)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        p.validate().unwrap();
        let mut m = Machine::new();
        let r = run_to_completion(&p, id, vec![Val::I32(8)], &mut m).unwrap();
        assert_eq!(r, Some(Val::F32(2.5)));
    }

    #[test]
    fn bounds_and_use_after_free_detected() {
        let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::F32), FuncKind::Host);
        let arr = fb.reg(Ty::Arr(ElemTy::F32));
        let idx = fb.reg(Ty::I32);
        let out = fb.reg(Ty::F32);
        fb.emit(Instr::NewArr {
            elem: ElemTy::F32,
            len: 0,
            dst: arr,
        });
        fb.emit(Instr::ConstI32(idx, 100));
        fb.emit(Instr::LdArr { arr, idx, dst: out });
        fb.emit(Instr::Ret(Some(out)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        let mut m = Machine::new();
        let e = run_to_completion(&p, id, vec![Val::I32(4)], &mut m).unwrap_err();
        assert!(e.message.contains("out of bounds"), "{e}");

        // use-after-free
        let mut fb = FuncBuilder::new("g", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let arr = fb.reg(Ty::Arr(ElemTy::F32));
        let n = fb.reg(Ty::I32);
        fb.emit(Instr::NewArr {
            elem: ElemTy::F32,
            len: 0,
            dst: arr,
        });
        fb.emit(Instr::FreeArr { arr });
        fb.emit(Instr::ArrLen { arr, dst: n });
        fb.emit(Instr::Ret(Some(n)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        let mut m = Machine::new();
        let e = run_to_completion(&p, id, vec![Val::I32(4)], &mut m).unwrap_err();
        assert!(e.message.contains("freed"), "{e}");
    }

    #[test]
    fn vtable_dispatch() {
        // Two classes implementing selector "area": square -> x*x, twice -> 2x.
        let mut p = Program::default();
        p.selectors.push("area".into());
        let mut sq = FuncBuilder::new(
            "Square_area",
            vec![Ty::Obj, Ty::I32],
            Some(Ty::I32),
            FuncKind::Host,
        );
        let r = sq.reg(Ty::I32);
        sq.emit(Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Int,
            dst: r,
            lhs: 1,
            rhs: 1,
        });
        sq.emit(Instr::Ret(Some(r)));
        let sqf = p.add_func(sq.finish().unwrap());
        let mut tw = FuncBuilder::new(
            "Twice_area",
            vec![Ty::Obj, Ty::I32],
            Some(Ty::I32),
            FuncKind::Host,
        );
        let r = tw.reg(Ty::I32);
        let two = tw.reg(Ty::I32);
        tw.emit(Instr::ConstI32(two, 2));
        tw.emit(Instr::Bin {
            op: BinOp::Mul,
            kind: PrimKind::Int,
            dst: r,
            lhs: 1,
            rhs: two,
        });
        tw.emit(Instr::Ret(Some(r)));
        let twf = p.add_func(tw.finish().unwrap());
        p.classes.push(nir::ClassMeta {
            name: "Square".into(),
            field_count: 0,
            vtable: vec![(0, sqf)],
        });
        p.classes.push(nir::ClassMeta {
            name: "Twice".into(),
            field_count: 0,
            vtable: vec![(0, twf)],
        });

        // f(which, x): obj = new (which ? Twice : Square); obj.area(x)
        let mut fb = FuncBuilder::new("f", vec![Ty::Bool, Ty::I32], Some(Ty::I32), FuncKind::Host);
        let obj = fb.reg(Ty::Obj);
        let out = fb.reg(Ty::I32);
        let t = fb.label();
        let e = fb.label();
        let join = fb.label();
        fb.br(0, t, e);
        fb.bind(t);
        fb.emit(Instr::NewObj { class: 1, dst: obj });
        fb.jmp(join);
        fb.bind(e);
        fb.emit(Instr::NewObj { class: 0, dst: obj });
        fb.jmp(join);
        fb.bind(join);
        fb.emit(Instr::CallVirt {
            selector: 0,
            recv: obj,
            args: vec![1],
            dst: Some(out),
        });
        fb.emit(Instr::Ret(Some(out)));
        let f = p.add_func(fb.finish().unwrap());
        p.validate().unwrap();
        let mut m = Machine::new();
        assert_eq!(
            run_to_completion(&p, f, vec![Val::Bool(false), Val::I32(5)], &mut m).unwrap(),
            Some(Val::I32(25))
        );
        assert_eq!(
            run_to_completion(&p, f, vec![Val::Bool(true), Val::I32(5)], &mut m).unwrap(),
            Some(Val::I32(10))
        );
    }

    #[test]
    fn virtual_dispatch_costs_more_than_direct() {
        // weight table sanity: CallVirt > Call > Bin
        let virt = weight(&Instr::CallVirt {
            selector: 0,
            recv: 0,
            args: vec![],
            dst: None,
        });
        let call = weight(&Instr::Call {
            func: FuncId(0),
            args: vec![],
            dst: None,
        });
        let bin = weight(&Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: 0,
            lhs: 0,
            rhs: 0,
        });
        assert!(virt > call);
        assert!(call > bin);
        let gf = weight(&Instr::GetField {
            obj: 0,
            slot: 0,
            dst: 0,
        });
        let ld = weight(&Instr::LdArr {
            arr: 0,
            idx: 0,
            dst: 0,
        });
        assert!(gf > ld);
    }

    #[test]
    fn mpi_intrinsic_yields() {
        let mut fb = FuncBuilder::new("f", vec![], Some(Ty::I32), FuncKind::Host);
        let r = fb.reg(Ty::I32);
        fb.emit(Instr::Intrin {
            op: IntrinOp::MpiRank,
            args: vec![],
            dst: Some(r),
        });
        fb.emit(Instr::Ret(Some(r)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        let mut m = Machine::new();
        let image = Image::build(&p).unwrap();
        let mut t = Thread::new(&p, id, &[]).unwrap();
        match run(&mut t, &image, &mut m, u64::MAX).unwrap() {
            Yield::Mpi {
                op: IntrinOp::MpiRank,
                ..
            } => {}
            other => panic!("expected MPI yield, got {other:?}"),
        }
        // Service the yield: this is rank 3.
        t.resume_with(Val::I32(3));
        match run(&mut t, &image, &mut m, u64::MAX).unwrap() {
            Yield::Done(Some(Val::I32(3))) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sync_yields_and_resumes() {
        let mut fb = FuncBuilder::new("k", vec![], Some(Ty::I32), FuncKind::Kernel);
        let a = fb.reg(Ty::I32);
        let b = fb.reg(Ty::I32);
        fb.emit(Instr::ConstI32(a, 1));
        fb.emit(Instr::Sync);
        fb.emit(Instr::ConstI32(b, 2));
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: a,
            lhs: a,
            rhs: b,
        });
        fb.emit(Instr::Ret(Some(a)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        p.validate().unwrap();
        let mut m = Machine::new();
        let image = Image::build(&p).unwrap();
        let mut t = Thread::new(&p, id, &[]).unwrap();
        match run(&mut t, &image, &mut m, u64::MAX).unwrap() {
            Yield::Sync => {}
            other => panic!("expected sync, got {other:?}"),
        }
        match run(&mut t, &image, &mut m, u64::MAX).unwrap() {
            Yield::Done(Some(Val::I32(3))) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn launch_yields_with_dimensions() {
        let mut p = Program::default();
        let mut kb = FuncBuilder::new("k", vec![Ty::I32], None, FuncKind::Kernel);
        kb.emit(Instr::Ret(None));
        let k = p.add_func(kb.finish().unwrap());
        let mut fb = FuncBuilder::new("f", vec![], None, FuncKind::Host);
        let g = fb.reg(Ty::I32);
        let one = fb.reg(Ty::I32);
        let x = fb.reg(Ty::I32);
        fb.emit(Instr::ConstI32(g, 4));
        fb.emit(Instr::ConstI32(one, 1));
        fb.emit(Instr::ConstI32(x, 7));
        fb.emit(Instr::Launch {
            kernel: k,
            grid: [g, one, one],
            block: [one, one, one],
            args: vec![x],
        });
        fb.emit(Instr::Ret(None));
        let f = p.add_func(fb.finish().unwrap());
        p.validate().unwrap();
        let mut m = Machine::new();
        let image = Image::build(&p).unwrap();
        let mut t = Thread::new(&p, f, &[]).unwrap();
        match run(&mut t, &image, &mut m, u64::MAX).unwrap() {
            Yield::Launch {
                kernel,
                grid,
                block,
                args,
            } => {
                assert_eq!(kernel, k);
                assert_eq!(grid, [4, 1, 1]);
                assert_eq!(block, [1, 1, 1]);
                assert_eq!(args, vec![Val::I32(7)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn division_by_zero_reported_with_location() {
        let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let z = fb.reg(Ty::I32);
        let r = fb.reg(Ty::I32);
        fb.emit(Instr::ConstI32(z, 0));
        fb.emit(Instr::Bin {
            op: BinOp::Div,
            kind: PrimKind::Int,
            dst: r,
            lhs: 0,
            rhs: z,
        });
        fb.emit(Instr::Ret(Some(r)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        let mut m = Machine::new();
        let e = run_to_completion(&p, id, vec![Val::I32(5)], &mut m).unwrap_err();
        assert_eq!(e.pc, 1);
        assert_eq!(e.func, "f");
    }
}

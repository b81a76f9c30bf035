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
pub use fault::{Draw, Fate, FaultConfig, FaultPlan, FaultRng, ResilienceStats};
pub use image::Image;
pub use pool::{ExecMode, ExecutorCfg};

use image::{reg_of, Op, OpKind, CAST_FROM_F32, CAST_FROM_F64, CAST_FROM_I32, CAST_FROM_I64};
use jlang::types::PrimKind;
use nir::{ElemTy, FuncId, Instr, IntrinOp, Program, Reg, Ty};

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
    /// No value: a void result, or a heap field never written.
    Unit,
}

/// `MinF32` as Java's `Math.min(float, float)`: a NaN operand is the
/// result (the first if both are), and −0.0 is below +0.0 (`f32::min`
/// drops a NaN and orders the zeros either way). The `jvm` crate's
/// `math.minf` implements the same rule on its own: it is the oracle.
#[inline]
fn min_f32(a: f32, b: f32) -> f32 {
    match (a.is_nan(), b.is_nan()) {
        (true, _) => a,
        (_, true) => b,
        _ if a == b => {
            if a.is_sign_negative() {
                a
            } else {
                b
            }
        }
        _ => {
            if a < b {
                a
            } else {
                b
            }
        }
    }
}

/// `MaxF32` as Java's `Math.max(float, float)`: as [`min_f32`], with
/// +0.0 above −0.0.
#[inline]
fn max_f32(a: f32, b: f32) -> f32 {
    match (a.is_nan(), b.is_nan()) {
        (true, _) => a,
        (_, true) => b,
        _ if a == b => {
            if a.is_sign_negative() {
                b
            } else {
                a
            }
        }
        _ => {
            if a > b {
                a
            } else {
                b
            }
        }
    }
}

/// The tag-mismatch error of a `Val::as_*` check.
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

impl Val {
    /// The bits of this value in a register declared `ty`, as
    /// [`Val::of_word`] reads them back; `None` when the value is not of
    /// that type. An array handle fits any array register: which array it
    /// names, and so its element type, is the memory space's to say.
    pub(crate) fn to_word(self, ty: Ty) -> Option<u64> {
        Some(match (self, ty) {
            (Val::I32(x), Ty::I32) => x.bits(),
            (Val::I64(x), Ty::I64) => x.bits(),
            (Val::F32(x), Ty::F32) => x.bits(),
            (Val::F64(x), Ty::F64) => x.bits(),
            (Val::Bool(x), Ty::Bool) => x.bits(),
            (Val::Arr(h), Ty::Arr(_)) | (Val::Obj(h), Ty::Obj) => u64::from(h),
            _ => return None,
        })
    }

    /// The value of type `ty` a register holding `w` holds.
    pub(crate) fn of_word(w: u64, ty: Ty) -> Val {
        match ty {
            Ty::I32 => Val::I32(Word::of(w)),
            Ty::I64 => Val::I64(Word::of(w)),
            Ty::F32 => Val::F32(Word::of(w)),
            Ty::F64 => Val::F64(Word::of(w)),
            Ty::Bool => Val::Bool(Word::of(w)),
            Ty::Arr(_) => Val::Arr(w as u32),
            Ty::Obj => Val::Obj(w as u32),
        }
    }
}

/// A scalar as the bits of one register. A [`Thread`]'s registers are
/// untagged 64-bit words, numbered as in `nir::Function::regs`, whose
/// declared types say how to read them: the verifier
/// (`nir::Program::verify`) checked that every instruction reads each
/// register as the type it was written.
trait Word: Copy {
    fn of(w: u64) -> Self;
    fn bits(self) -> u64;
}

impl Word for i32 {
    #[inline(always)]
    fn of(w: u64) -> i32 {
        w as u32 as i32
    }
    #[inline(always)]
    fn bits(self) -> u64 {
        u64::from(self as u32)
    }
}

impl Word for i64 {
    #[inline(always)]
    fn of(w: u64) -> i64 {
        w as i64
    }
    #[inline(always)]
    fn bits(self) -> u64 {
        self as u64
    }
}

impl Word for f32 {
    #[inline(always)]
    fn of(w: u64) -> f32 {
        f32::from_bits(w as u32)
    }
    #[inline(always)]
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Word for f64 {
    #[inline(always)]
    fn of(w: u64) -> f64 {
        f64::from_bits(w)
    }
    #[inline(always)]
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Word for bool {
    #[inline(always)]
    fn of(w: u64) -> bool {
        w != 0
    }
    #[inline(always)]
    fn bits(self) -> u64 {
        u64::from(self)
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
            (Ok(_), Some(x)) => ExecError::msg(format!("type mismatch storing {x:?} into {self}")),
            (Ok(_), None) => unreachable!("an in-bounds read of a live array succeeds"),
        }
    }
}

/// What an array is, without its elements: `f32 array of length 4`, or
/// `freed array`. Error messages name arrays this way: the `Debug` form
/// of a million-element array is megabytes.
impl std::fmt::Display for ArrStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (elem, len) = match self {
            ArrStore::I32(v) => ("i32", v.len()),
            ArrStore::I64(v) => ("i64", v.len()),
            ArrStore::F32(v) => ("f32", v.len()),
            ArrStore::F64(v) => ("f64", v.len()),
            ArrStore::Bool(v) => ("bool", v.len()),
            ArrStore::Freed => return f.write_str("freed array"),
        };
        write!(f, "{elem} array of length {len}")
    }
}

#[cold]
#[inline(never)]
fn bad_handle(h: u32) -> ExecError {
    ExecError::msg(format!("bad array handle {h}"))
}

/// A flat memory space (host, one per MPI rank, or a GPU device space).
///
/// Arrays are a program's only mutable heap state, and every mutation
/// reaches them through [`MemSpace::alloc`] or [`MemSpace::arr_mut`],
/// which mark the array *written*. A checkpoint capture
/// ([`ckpt::machine_array_sections`]) re-encodes only the written arrays
/// and hands out the shared bytes it cached for the rest. The cache lives
/// here, beside the flags, so whatever replaces a machine (a restore, a
/// reinit) replaces its cache too. Equality and `Debug` see only the
/// arrays.
#[derive(Default)]
pub struct MemSpace {
    arrays: Vec<ArrStore>,
    /// One entry per array, in step with `arrays` (kept apart so reading
    /// an array indexes exactly as it would without the cache).
    encoded: Vec<Encoded>,
}

/// What the last capture encoded one array as.
#[derive(Default)]
struct Encoded {
    /// Set by every mutable access: `bytes` is stale.
    written: bool,
    /// The array's wire encoding (one checkpoint section), shared with
    /// every chain link and resolved snapshot that holds it.
    bytes: Option<std::sync::Arc<[u8]>>,
}

impl MemSpace {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn alloc(&mut self, store: ArrStore) -> u32 {
        self.arrays.push(store);
        self.encoded.push(Encoded {
            written: true,
            bytes: None,
        });
        self.arrays.len() as u32 - 1
    }

    #[inline]
    pub fn arr(&self, h: u32) -> Result<&ArrStore, ExecError> {
        self.arrays.get(h as usize).ok_or_else(|| bad_handle(h))
    }

    /// The array behind `h`, marked written: the next checkpoint capture
    /// re-encodes it.
    #[inline]
    pub fn arr_mut(&mut self, h: u32) -> Result<&mut ArrStore, ExecError> {
        let store = self
            .arrays
            .get_mut(h as usize)
            .ok_or_else(|| bad_handle(h))?;
        if let Some(e) = self.encoded.get_mut(h as usize) {
            e.written = true;
        }
        Ok(store)
    }

    /// Element `i` of the float array behind `h`; `None` for whatever the
    /// checked path must explain: a bad handle, another element type, a
    /// freed array, or an index out of bounds. One compare bounds the
    /// index both ways: a negative `i` wraps past every length.
    #[inline]
    fn load_f32(&self, h: u32, i: i32) -> Option<f32> {
        match self.arrays.get(h as usize) {
            Some(ArrStore::F32(v)) => v.get(i as usize).copied(),
            _ => None,
        }
    }

    /// Store `x` at element `i` of the float array behind `h`, through
    /// [`MemSpace::arr_mut`]. `false`, with no element changed, wherever
    /// [`MemSpace::load_f32`] is `None`.
    #[inline]
    fn store_f32(&mut self, h: u32, i: i32, x: f32) -> bool {
        match self.arr_mut(h) {
            Ok(ArrStore::F32(v)) => match v.get_mut(i as usize) {
                Some(slot) => {
                    *slot = x;
                    true
                }
                None => false,
            },
            _ => false,
        }
    }

    pub fn free(&mut self, h: u32) -> Result<(), ExecError> {
        let a = self.arr_mut(h)?;
        if matches!(a, ArrStore::Freed) {
            return Err("double free".into());
        }
        *a = ArrStore::Freed;
        Ok(())
    }

    /// Every array, by handle (freed ones included).
    pub fn arrays(&self) -> &[ArrStore] {
        &self.arrays
    }
}

impl PartialEq for MemSpace {
    fn eq(&self, other: &Self) -> bool {
        self.arrays == other.arrays
    }
}

impl std::fmt::Debug for MemSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSpace")
            .field("arrays", &self.arrays)
            .finish()
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
    /// The coordinates of the CUDA thread about to run, set by the device
    /// runtime before each slice of a kernel thread: [`run`] answers
    /// `threadIdx`/`blockIdx`/`blockDim`/`gridDim` reads from them in
    /// place. `None` (host machines) surfaces those reads as
    /// [`Yield::GpuMem`]. Never checkpointed; it is set again before
    /// every slice.
    pub gpu_coords: Option<GpuCoords>,
    /// The kernel launch running on this device, set by the device
    /// runtime for the launch's duration: the kernel's checked entry,
    /// which re-arms a thread for each block position
    /// ([`Machine::next_position`]). Never checkpointed.
    pub gpu_entry: Option<Entry>,
    /// How many positions of the running block are still to start after
    /// the one at [`Machine::gpu_coords`].
    pub gpu_left: u32,
}

/// One CUDA thread's coordinate registers, by axis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuCoords {
    pub thread_idx: [u32; 3],
    pub block_idx: [u32; 3],
    pub block_dim: [u32; 3],
    pub grid_dim: [u32; 3],
}

impl GpuCoords {
    /// The flat index of coordinate intrinsic `op`: 0..3 `threadIdx`,
    /// 3..6 `blockIdx`, 6..9 `blockDim`, 9..12 `gridDim`, by axis. `None`
    /// for any other op and for an axis past `z`.
    pub fn index(op: IntrinOp) -> Option<u32> {
        let (group, axis) = match op {
            IntrinOp::ThreadIdx(a) => (0, a),
            IntrinOp::BlockIdx(a) => (1, a),
            IntrinOp::BlockDim(a) => (2, a),
            IntrinOp::GridDim(a) => (3, a),
            _ => return None,
        };
        (axis < 3).then_some(group * 3 + u32::from(axis))
    }

    /// Step `thread_idx` to the block's next position in (z, y, x)
    /// order: x fastest, carrying into y, then into z.
    pub fn advance(&mut self) {
        let [x, y, z] = &mut self.thread_idx;
        *x += 1;
        if *x == self.block_dim[0] {
            *x = 0;
            *y += 1;
            if *y == self.block_dim[1] {
                *y = 0;
                *z += 1;
            }
        }
    }

    /// All twelve coordinates, in [`GpuCoords::index`] order.
    pub fn flat(self) -> [u32; 12] {
        let [t, b, d, g] = [
            self.thread_idx,
            self.block_idx,
            self.block_dim,
            self.grid_dim,
        ];
        [
            t[0], t[1], t[2], b[0], b[1], b[2], d[0], d[1], d[2], g[0], g[1], g[2],
        ]
    }
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

    /// Start the running block's next position on `thread`: advance
    /// [`Machine::gpu_coords`] and re-arm `thread` from
    /// [`Machine::gpu_entry`]. `None`, with nothing changed, when no
    /// position is left or no launch is running. [`run`] calls it when a
    /// kernel thread returns on an unarmed device, and the device runtime
    /// between `run` entries; out of line, so the dispatch loop does not
    /// carry the re-arm.
    #[inline(never)]
    pub fn next_position(&mut self, thread: &mut Thread) -> Option<GpuCoords> {
        if self.gpu_left == 0 {
            return None;
        }
        let (Some(coords), Some(entry)) = (self.gpu_coords.as_mut(), &self.gpu_entry) else {
            return None;
        };
        self.gpu_left -= 1;
        coords.advance();
        thread.arm(entry);
        Some(*coords)
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
    /// Host requested a GPU memory operation (copy/alloc/free), or read a
    /// CUDA thread register with no [`Machine::gpu_coords`] set.
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
///
/// Registers are untagged 64-bit words, read as their declared types
/// (`nir::Function::regs`), which the verifier checked: a value crosses
/// into them, checked against the register's declared type, only at entry
/// ([`Entry::new`]), at [`Thread::resume_with`], at a heap field read
/// and at a checkpoint restore; it leaves them, tagged by the declared
/// type, in a slow op's operand list, at the entry frame's return and at
/// a checkpoint capture.
#[derive(Debug, Default)]
pub struct Thread {
    frames: Vec<Frame>,
    /// The registers of every live frame, outermost first. A register no
    /// instruction has written holds 0 (the verifier's definite
    /// assignment makes that unobservable).
    stack: Vec<u64>,
    /// Where to deliver a value provided by `resume_with`, and the
    /// register's declared type.
    pending: Option<(Reg, Ty)>,
    done: bool,
}

/// A function's checked arguments: the register file a thread starts it
/// with, the parameters' words and then zeros. A kernel launch checks its
/// arguments once, here, and re-arms each thread from it ([`Thread::arm`]).
#[derive(Debug, Clone)]
pub struct Entry {
    func: FuncId,
    regs: Vec<u64>,
}

impl Entry {
    /// Check `args` against `func`'s parameters: as many, each of its
    /// parameter's type.
    pub fn new(program: &Program, func: FuncId, args: &[Val]) -> Result<Entry, ExecError> {
        let f = program.func(func);
        let refuse = |message: String| ExecError {
            message,
            func: f.name.clone(),
            pc: 0,
        };
        if f.params.len() != args.len() {
            return Err(refuse(format!(
                "`{}` expects {} args, got {}",
                f.name,
                f.params.len(),
                args.len()
            )));
        }
        let mut regs = vec![0; f.regs.len()];
        for (i, (v, ty)) in args.iter().zip(&f.params).enumerate() {
            regs[i] = v.to_word(*ty).ok_or_else(|| {
                refuse(format!(
                    "argument {i} of `{}` is {v:?}, expected {ty:?}",
                    f.name
                ))
            })?;
        }
        Ok(Entry { func, regs })
    }
}

impl Thread {
    /// Create a thread poised to execute `func(args)`.
    pub fn new(program: &Program, func: FuncId, args: &[Val]) -> Result<Thread, ExecError> {
        let mut thread = Thread::default();
        thread.arm(&Entry::new(program, func, args)?);
        Ok(thread)
    }

    /// Discard whatever this thread was doing and poise it to execute
    /// `entry`, keeping its allocations (gpu-sim re-arms one context
    /// position after position).
    pub fn arm(&mut self, entry: &Entry) {
        self.stack.clear();
        self.stack.extend_from_slice(&entry.regs);
        self.frames.clear();
        self.frames.push(Frame {
            func: entry.func,
            pc: 0,
            base: 0,
            ret_to: None,
        });
        self.pending = None;
        self.done = false;
    }

    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Deliver the result of a serviced yield (pass `Val::Unit` for void).
    /// A value that is not of the destination register's type is not
    /// stored: it is an error at the yielding instruction of `program`.
    pub fn resume_with(&mut self, program: &Program, v: Val) -> Result<(), ExecError> {
        let (Some((dst, ty)), Some(top)) = (self.pending.take(), self.frames.last()) else {
            return Ok(());
        };
        let w = v.to_word(ty).ok_or_else(|| {
            misfit(v, ty).at(&program.func(top.func).name, top.pc.saturating_sub(1))
        })?;
        self.stack[top.base + dst as usize] = w;
        Ok(())
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
    fn frame_regs(&self, i: usize) -> &[u64] {
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
/// kind (the verifier rejects it; an unverified program may hold it).
#[cold]
fn bad_bin(kind: PrimKind) -> ExecError {
    ExecError::msg(match kind {
        PrimKind::Int => "logical op on int",
        PrimKind::Long => "logical op on long",
        PrimKind::Float => "bitwise op on float",
        PrimKind::Double => "bitwise op on double",
        PrimKind::Boolean => "arith op on bool",
    })
}

/// Why the dispatch loop left the current frame.
enum Exit {
    /// Enter `callee`; `pc` still names the call instruction, whose
    /// operand list the frame switch reads. `recv` is the receiver of a
    /// virtual call (the callee's register 0).
    Call {
        callee: FuncId,
        recv: Option<u32>,
        dst: Option<Reg>,
    },
    /// Return the register, if any.
    Ret(Option<Reg>),
    /// Run the op at `pc` out of line, in [`slow_op`].
    Slow,
    Yield(Yield),
    Fail(ExecError),
    /// `pc` is past the last op: no op ran.
    FellOff,
}

/// Run `thread` until completion, a yield point, or `fuel` retired
/// instructions.
///
/// The loop dispatches on the image's decoded ops over untagged
/// registers; the innermost frame's op stream, registers and pc live in
/// locals and are written back only where control leaves the frame
/// (call, return, an out-of-line op, yield, fuel-out, error).
pub fn run(
    thread: &mut Thread,
    image: &Image<'_>,
    machine: &mut Machine,
    mut fuel: u64,
) -> Result<Yield, ExecError> {
    let program = image.program();
    if thread.done {
        return Ok(Yield::Done(None));
    }
    // Fault injection: a slice may deterministically get its fuel cut
    // short (the caller sees OutOfFuel earlier than expected).
    if let Some(plan) = machine.fault.as_mut() {
        fuel = plan.slice_fuel(fuel);
    }
    // What this slice adds to `machine.counters`. Every retired
    // instruction burns one unit of fuel, so the retired count is the fuel
    // spent; only cycles need an accumulator of their own.
    let granted = fuel;
    let mut cycles = 0u64;
    // A kernel thread's coordinates, when its reads are answered in the
    // loop: not on a host (no coordinates: the read yields) and not on an
    // armed device (each read draws a crash first, DESIGN §8). Both of
    // those run out of line.
    let mut coords = machine
        .gpu_coords
        .filter(|_| machine.fault.is_none())
        .map(|c| c.flat());
    let outcome = loop {
        let depth = thread.frames.len();
        let Some(frame) = thread.frames.last_mut() else {
            break Err(ExecError::msg("thread has no frame to run"));
        };
        let f = program.func(frame.func);
        let code = &f.code[..];
        let tys = &f.regs[..];
        let ops = image.ops(frame.func);
        let base = frame.base;
        let regs = &mut thread.stack[base..];
        let mut pc = frame.pc as usize;

        // `fuel` counts the op at `pc` until it retires: the op takes its
        // unit where control moves on (`pc += 1` below, the jumps), or
        // where it leaves the loop (after it). Superinstructions test the
        // unit of their second half against the same count.
        let exit = loop {
            if fuel == 0 {
                break Exit::Yield(Yield::OutOfFuel);
            }
            let Some(&op) = ops.get(pc) else {
                break Exit::FellOff;
            };
            cycles += op.weight as u64;
            let (a, b, c) = (op.a as usize, op.b as usize, op.c as usize);

            macro_rules! fail {
                ($e:expr) => {
                    break Exit::Fail($e)
                };
            }
            // The register $r read as a $T.
            macro_rules! get {
                ($T:ty, $r:expr) => {
                    <$T as Word>::of(regs[$r])
                };
            }
            // dst = f(x) over one operand of type $T.
            macro_rules! un {
                ($T:ty, |$x:ident| $e:expr) => {{
                    let $x = get!($T, b);
                    regs[a] = Word::bits($e);
                }};
            }
            // dst = f(x, y) over two operands of type $T.
            macro_rules! bin {
                ($T:ty, |$x:ident, $y:ident| $e:expr) => {{
                    let ($x, $y) = (get!($T, b), get!($T, c));
                    regs[a] = Word::bits($e);
                }};
            }
            // dst = (the register b, of the kind in `c`) as $T.
            macro_rules! cast {
                ($T:ty, $to:literal) => {{
                    let v = match op.c {
                        CAST_FROM_I32 => get!(i32, b) as $T,
                        CAST_FROM_I64 => get!(i64, b) as $T,
                        CAST_FROM_F32 => get!(f32, b) as $T,
                        CAST_FROM_F64 => get!(f64, b) as $T,
                        _ => fail!(error(format_args!("cannot cast boolean to {}", $to))),
                    };
                    regs[a] = Word::bits(v);
                }};
            }
            macro_rules! attempt {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(e) => fail!(e),
                    }
                };
            }
            // dst = arr[i], checked: every load error comes from here, in
            // this order. The element must be of the destination's type:
            // a handle from outside may name an array of another.
            macro_rules! load {
                ($dst:expr, $arr:expr, $i:expr) => {{
                    let h = regs[$arr] as u32;
                    let i: i32 = $i;
                    if i < 0 {
                        fail!(error(format_args!("negative index {i}")));
                    }
                    let store = attempt!(machine.mem.arr(h));
                    let v = attempt!(store.get(i as usize));
                    match v.to_word(tys[$dst]) {
                        Some(w) => regs[$dst] = w,
                        None => fail!(error(format_args!(
                            "type mismatch loading {v:?} from {store}"
                        ))),
                    }
                }};
            }
            // dst = arr[i] with index value $i through a `float[]`
            // register: the one-compare float path, and the checked one
            // for anything it does not take.
            macro_rules! load_f32 {
                ($dst:expr, $arr:expr, $i:expr) => {{
                    let i: i32 = $i;
                    match machine.mem.load_f32(regs[$arr] as u32, i) {
                        Some(x) => regs[$dst] = x.bits(),
                        None => load!($dst, $arr, i),
                    }
                }};
            }
            // arr[idx] = src, checked: every store error comes from here.
            macro_rules! store {
                ($arr:expr, $idx:expr, $src:expr) => {{
                    let h = regs[$arr] as u32;
                    let i = get!(i32, $idx);
                    if i < 0 {
                        fail!(error(format_args!("negative index {i}")));
                    }
                    let store = attempt!(machine.mem.arr_mut(h));
                    attempt!(store.set(i as usize, Val::of_word(regs[$src], tys[$src])));
                }};
            }
            // The first half of a superinstruction: dst = f(x, y) as
            // `bin!`, and the value, forwarded to the second half.
            macro_rules! first_half {
                ($T:ty, |$x:ident, $y:ident| $e:expr) => {{
                    let ($x, $y) = (get!($T, b), get!($T, c));
                    let v = $e;
                    regs[a] = Word::bits(v);
                    v
                }};
            }
            // Start the second half, `code[pc + 1]`: a retired
            // instruction of its own, with its own weight and fuel. A
            // fuel-out here stops at `pc + 1`, where `ops[pc + 1]` does
            // that instruction alone, and the second half's errors carry
            // `pc + 1`. Evaluates to `ops[pc + 1]`, whose operands the
            // second half reads. `fuse` fuses an op only with one after
            // it, so the `get` cannot miss; a select in its place, and no
            // panic or exit path, leaves the rest of the loop's code as
            // it is (an indexing `ops[pc]` here cost an int loop of
            // unfused ops ≈5–12 %).
            macro_rules! second_half {
                () => {{
                    pc += 1;
                    if fuel == 1 {
                        break Exit::Yield(Yield::OutOfFuel);
                    }
                    fuel -= 1;
                    let next = ops.get(pc).copied().unwrap_or(op);
                    cycles += next.weight as u64;
                    next
                }};
            }

            match op.kind {
                OpKind::ConstI32 => regs[a] = (op.b as i32).bits(),
                OpKind::ConstI64 | OpKind::ConstF64 => regs[a] = (op.c as u64) << 32 | op.b as u64,
                OpKind::ConstF32 => regs[a] = op.b as u64,
                OpKind::ConstBool => regs[a] = (op.b != 0).bits(),
                OpKind::Mov => regs[a] = regs[b],

                OpKind::AddI32 => bin!(i32, |x, y| x.wrapping_add(y)),
                OpKind::SubI32 => bin!(i32, |x, y| x.wrapping_sub(y)),
                OpKind::MulI32 => bin!(i32, |x, y| x.wrapping_mul(y)),
                OpKind::DivI32 => bin!(i32, |x, y| {
                    if y == 0 {
                        fail!("division by zero".into());
                    }
                    x.wrapping_div(y)
                }),
                OpKind::RemI32 => bin!(i32, |x, y| {
                    if y == 0 {
                        fail!("remainder by zero".into());
                    }
                    x.wrapping_rem(y)
                }),
                OpKind::LtI32 => bin!(i32, |x, y| x < y),
                OpKind::LeI32 => bin!(i32, |x, y| x <= y),
                OpKind::GtI32 => bin!(i32, |x, y| x > y),
                OpKind::GeI32 => bin!(i32, |x, y| x >= y),
                OpKind::EqI32 => bin!(i32, |x, y| x == y),
                OpKind::NeI32 => bin!(i32, |x, y| x != y),
                OpKind::ShlI32 => bin!(i32, |x, y| x.wrapping_shl(y as u32 & 31)),
                OpKind::ShrI32 => bin!(i32, |x, y| x.wrapping_shr(y as u32 & 31)),
                OpKind::AndI32 => bin!(i32, |x, y| x & y),
                OpKind::OrI32 => bin!(i32, |x, y| x | y),
                OpKind::XorI32 => bin!(i32, |x, y| x ^ y),

                OpKind::AddI64 => bin!(i64, |x, y| x.wrapping_add(y)),
                OpKind::SubI64 => bin!(i64, |x, y| x.wrapping_sub(y)),
                OpKind::MulI64 => bin!(i64, |x, y| x.wrapping_mul(y)),
                OpKind::DivI64 => bin!(i64, |x, y| {
                    if y == 0 {
                        fail!("division by zero".into());
                    }
                    x.wrapping_div(y)
                }),
                OpKind::RemI64 => bin!(i64, |x, y| {
                    if y == 0 {
                        fail!("remainder by zero".into());
                    }
                    x.wrapping_rem(y)
                }),
                OpKind::LtI64 => bin!(i64, |x, y| x < y),
                OpKind::LeI64 => bin!(i64, |x, y| x <= y),
                OpKind::GtI64 => bin!(i64, |x, y| x > y),
                OpKind::GeI64 => bin!(i64, |x, y| x >= y),
                OpKind::EqI64 => bin!(i64, |x, y| x == y),
                OpKind::NeI64 => bin!(i64, |x, y| x != y),
                OpKind::ShlI64 => bin!(i64, |x, y| x.wrapping_shl(y as u32 & 63)),
                OpKind::ShrI64 => bin!(i64, |x, y| x.wrapping_shr(y as u32 & 63)),
                OpKind::AndI64 => bin!(i64, |x, y| x & y),
                OpKind::OrI64 => bin!(i64, |x, y| x | y),
                OpKind::XorI64 => bin!(i64, |x, y| x ^ y),

                OpKind::AddF32 => bin!(f32, |x, y| x + y),
                OpKind::SubF32 => bin!(f32, |x, y| x - y),
                OpKind::MulF32 => bin!(f32, |x, y| x * y),
                OpKind::DivF32 => bin!(f32, |x, y| x / y),
                OpKind::RemF32 => bin!(f32, |x, y| x % y),
                OpKind::LtF32 => bin!(f32, |x, y| x < y),
                OpKind::LeF32 => bin!(f32, |x, y| x <= y),
                OpKind::GtF32 => bin!(f32, |x, y| x > y),
                OpKind::GeF32 => bin!(f32, |x, y| x >= y),
                OpKind::EqF32 => bin!(f32, |x, y| x == y),
                OpKind::NeF32 => bin!(f32, |x, y| x != y),

                OpKind::AddF64 => bin!(f64, |x, y| x + y),
                OpKind::SubF64 => bin!(f64, |x, y| x - y),
                OpKind::MulF64 => bin!(f64, |x, y| x * y),
                OpKind::DivF64 => bin!(f64, |x, y| x / y),
                OpKind::RemF64 => bin!(f64, |x, y| x % y),
                OpKind::LtF64 => bin!(f64, |x, y| x < y),
                OpKind::LeF64 => bin!(f64, |x, y| x <= y),
                OpKind::GtF64 => bin!(f64, |x, y| x > y),
                OpKind::GeF64 => bin!(f64, |x, y| x >= y),
                OpKind::EqF64 => bin!(f64, |x, y| x == y),
                OpKind::NeF64 => bin!(f64, |x, y| x != y),

                OpKind::EqBool => bin!(bool, |x, y| x == y),
                OpKind::NeBool => bin!(bool, |x, y| x != y),
                OpKind::AndBool => bin!(bool, |x, y| x && y),
                OpKind::OrBool => bin!(bool, |x, y| x || y),
                OpKind::BadBin => {
                    let Instr::Bin { kind, .. } = &code[pc] else {
                        unreachable!("ops[pc] decodes code[pc]")
                    };
                    fail!(bad_bin(*kind))
                }

                OpKind::NegI32 => un!(i32, |x| x.wrapping_neg()),
                OpKind::NegI64 => un!(i64, |x| x.wrapping_neg()),
                OpKind::NegF32 => un!(f32, |x| -x),
                OpKind::NegF64 => un!(f64, |x| -x),
                OpKind::NegBad => fail!("bad neg Boolean".into()),
                OpKind::Not => un!(bool, |x| !x),
                OpKind::CastI32 => cast!(i32, "int"),
                OpKind::CastI64 => cast!(i64, "long"),
                OpKind::CastF32 => cast!(f32, "float"),
                OpKind::CastF64 => cast!(f64, "double"),
                OpKind::CastBool => match op.c {
                    image::CAST_FROM_BOOL => regs[a] = regs[b],
                    _ => fail!("cannot cast a number to boolean".into()),
                },

                OpKind::Jmp => {
                    pc = a;
                    fuel -= 1;
                    continue;
                }
                OpKind::Br => {
                    pc = if get!(bool, a) { b } else { c };
                    fuel -= 1;
                    continue;
                }
                OpKind::Ret => break Exit::Ret(reg_of(op.a)),
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
                    let h = regs[b] as u32;
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
                        recv: Some(h),
                        dst: reg_of(op.c),
                    };
                }
                OpKind::NewObj => regs[a] = u64::from(machine.objs.alloc(op.b, c)),
                // A field holds whatever was stored there: it must be of
                // the destination's type, or never written (Java's zero).
                OpKind::GetField => {
                    let v = attempt!(machine.objs.get(regs[b] as u32, op.c));
                    match (v.to_word(tys[a]), v) {
                        (Some(w), _) => regs[a] = w,
                        (None, Val::Unit) => regs[a] = 0,
                        (None, _) => fail!(misfit(v, tys[a])),
                    }
                }
                OpKind::PutField => {
                    let v = Val::of_word(regs[c], tys[c]);
                    attempt!(machine.objs.set(regs[a] as u32, op.b, v));
                }

                // Through a `float[]` register, the element is one
                // compare away; anything else, and every error, takes the
                // checked path.
                OpKind::LdArrF32 => load_f32!(a, b, get!(i32, c)),
                OpKind::LdArr => load!(a, b, get!(i32, c)),
                OpKind::StArrF32 => {
                    if !machine
                        .mem
                        .store_f32(regs[a] as u32, get!(i32, b), get!(f32, c))
                    {
                        store!(a, b, c)
                    }
                }
                OpKind::StArr => store!(a, b, c),
                OpKind::ArrLen => {
                    let n = attempt!(attempt!(machine.mem.arr(regs[b] as u32)).len());
                    regs[a] = (n as i32).bits();
                }
                OpKind::SqrtF64 => un!(f64, |x| x.sqrt()),
                OpKind::SqrtF32 => un!(f32, |x| x.sqrt()),
                OpKind::PowF64 => bin!(f64, |x, y| x.powf(y)),
                OpKind::ExpF64 => un!(f64, |x| x.exp()),
                OpKind::AbsF32 => un!(f32, |x| x.abs()),
                OpKind::AbsF64 => un!(f64, |x| x.abs()),
                OpKind::AbsI32 => un!(i32, |x| x.wrapping_abs()),
                OpKind::MinI32 => bin!(i32, |x, y| x.min(y)),
                OpKind::MaxI32 => bin!(i32, |x, y| x.max(y)),
                OpKind::MinF32 => bin!(f32, |x, y| min_f32(x, y)),
                OpKind::MaxF32 => bin!(f32, |x, y| max_f32(x, y)),

                OpKind::Coord => match &coords {
                    Some(c) => regs[a] = (c[b] as i32).bits(),
                    None => break Exit::Slow,
                },

                OpKind::CallHost
                | OpKind::NewArr
                | OpKind::FreeArr
                | OpKind::Print
                | OpKind::ArrayCopyF32
                | OpKind::YieldGpu
                | OpKind::YieldMpi
                | OpKind::Launch
                | OpKind::SharedAlloc
                | OpKind::Sync => break Exit::Slow,

                // Superinstructions (`image::fuse`): the second half
                // takes the first half's value where it would read it
                // back from the register the first half just wrote.
                OpKind::AddI32LdArrF32 => {
                    let t = first_half!(i32, |x, y| x.wrapping_add(y));
                    let next = second_half!();
                    load_f32!(next.a as usize, next.b as usize, t)
                }
                OpKind::SubI32LdArrF32 => {
                    let t = first_half!(i32, |x, y| x.wrapping_sub(y));
                    let next = second_half!();
                    load_f32!(next.a as usize, next.b as usize, t)
                }
                OpKind::LtI32Br => {
                    let t = first_half!(i32, |x, y| x < y);
                    let next = second_half!();
                    pc = if t { next.b } else { next.c } as usize;
                    fuel -= 1;
                    continue;
                }
                // Both keep the source's operand order, so a NaN operand
                // gives the payload the unfused add gives.
                OpKind::AddF32AddF32 => {
                    let t = first_half!(f32, |x, y| x + y);
                    let next = second_half!();
                    regs[next.a as usize] = (t + get!(f32, next.c as usize)).bits();
                }
                OpKind::MulF32AddF32 => {
                    let t = first_half!(f32, |x, y| x * y);
                    let next = second_half!();
                    regs[next.a as usize] = (get!(f32, next.b as usize) + t).bits();
                }
            }
            pc += 1;
            fuel -= 1;
        };

        // The op that left the loop retired; after a fuel-out none is
        // left to take, and falling off the end ran no op.
        if !matches!(exit, Exit::FellOff) {
            fuel = fuel.saturating_sub(1);
        }
        // Control leaves the frame: write its pc back, then switch.
        frame.pc = pc as u32;
        match exit {
            // The frame resumes after the op, unless the fault plan killed
            // the context there.
            Exit::Slow => match slow_op(
                &ops[pc],
                &code[pc],
                pc as u32,
                &mut thread.stack[base..],
                tys,
                machine,
            ) {
                Ok(Slow::Next) => frame.pc += 1,
                Ok(Slow::Yield(dst, y)) => {
                    frame.pc += 1;
                    thread.pending = dst.map(|d| (d, tys[d as usize]));
                    break Ok(y);
                }
                Ok(Slow::Crashed) => {
                    thread.done = true;
                    break Ok(Yield::Crashed {
                        step: machine.counters.instrs + (granted - fuel),
                    });
                }
                Err(e) => break Err(e.at(&f.name, pc as u32)),
            },
            Exit::Yield(y) => break Ok(y),
            Exit::Fail(e) => break Err(e.at(&f.name, pc as u32)),
            Exit::FellOff => {
                break Err(ExecError::msg("fell off the end of function").at(&f.name, pc as u32))
            }
            Exit::Ret(r) => {
                let w = r.map(|r| thread.stack[base + r as usize]);
                let ret_to = frame.ret_to;
                thread.frames.pop();
                thread.stack.truncate(base);
                let Some(caller) = thread.frames.last() else {
                    // A kernel thread on an unarmed device: the block's
                    // next position, if any, runs on, in this entry.
                    if coords.is_some() {
                        if let Some(next) = machine.next_position(thread) {
                            coords = Some(next.flat());
                            continue;
                        }
                    }
                    thread.done = true;
                    let v = r.zip(w).map(|(r, w)| Val::of_word(w, tys[r as usize]));
                    break Ok(Yield::Done(v));
                };
                // A value-less return into a result register leaves
                // that type's zero.
                if let Some(dst) = ret_to {
                    thread.stack[caller.base + dst as usize] = w.unwrap_or(0);
                }
            }
            Exit::Call { callee, recv, dst } => {
                frame.pc += 1;
                let args = match &code[pc] {
                    Instr::Call { args, .. } | Instr::CallVirt { args, .. } => args,
                    _ => unreachable!("ops[pc] decodes code[pc]"),
                };
                let target = program.func(callee);
                // A virtual call's callee is known only now: its
                // signature is checked once per call.
                if recv.is_some() {
                    if let Err(e) = virtual_signature(tys, args, dst, target) {
                        break Err(e.at(&f.name, pc as u32));
                    }
                }
                let callee_base = thread.stack.len();
                let first_arg = callee_base + recv.is_some() as usize;
                thread.stack.resize(callee_base + target.regs.len(), 0);
                if let Some(h) = recv {
                    thread.stack[callee_base] = u64::from(h);
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

/// The error of a value that is not of its register's declared type.
#[cold]
#[inline(never)]
fn misfit(v: Val, ty: Ty) -> ExecError {
    ExecError::msg(format!("{v:?} does not fit a {ty:?} register"))
}

/// Does a virtual call's `target` take a receiver and the caller's
/// `args` (of types `tys`), and return what `dst` holds?
#[cold]
#[inline(never)]
fn virtual_signature(
    tys: &[Ty],
    args: &[Reg],
    dst: Option<Reg>,
    target: &nir::Function,
) -> Result<(), ExecError> {
    let passed = std::iter::once(Ty::Obj).chain(args.iter().map(|a| tys[*a as usize]));
    let fits = passed.eq(target.params.iter().copied())
        && dst.is_none_or(|d| target.ret == Some(tys[d as usize]));
    if fits {
        Ok(())
    } else {
        Err(error(format_args!(
            "virtual call to `{}` does not match its signature",
            target.name
        )))
    }
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
/// reading operand lists from the `nir::Instr` the op decodes (tagged by
/// their declared types `tys`), and outside the dispatch loop, which
/// leaves its frame for them (`Exit::Slow`) and re-enters it after: the
/// loop stays small enough to keep its state, fuel included, in
/// registers.
#[inline(never)]
fn slow_op(
    op: &Op,
    ins: &Instr,
    pc: u32,
    regs: &mut [u64],
    tys: &[Ty],
    machine: &mut Machine,
) -> Result<Slow, ExecError> {
    let (a, b) = (op.a as usize, op.b as usize);
    let val = |r: Reg| Val::of_word(regs[r as usize], tys[r as usize]);
    let read = |list: &[Reg]| list.iter().map(|r| val(*r)).collect::<Vec<Val>>();
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
            let n = i32::of(regs[b]);
            if n < 0 {
                return Err(format!("negative array size {n}").into());
            }
            // Charge zero-fill cost proportional to the allocation.
            machine.counters.cycles += (n as u64) / 16;
            regs[a] = u64::from(machine.mem.alloc(ArrStore::new(*elem, n as usize)));
            Slow::Next
        }
        (OpKind::FreeArr, _) => {
            machine.mem.free(regs[a] as u32)?;
            Slow::Next
        }
        (OpKind::Print, _) => {
            let line = match val(op.a) {
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
        // An armed device's coordinate read, after its crash draw, is
        // answered from what the device runtime set on the machine; on a
        // host it yields, like the rest of the GPU ops, which gpu-sim / the
        // device runtime service (MPI ops mpi-sim).
        (OpKind::Coord, Instr::Intrin { op: intrin, .. }) => match machine.gpu_coords {
            Some(c) => {
                regs[a] = (c.flat()[b] as i32).bits();
                Slow::Next
            }
            None => Slow::Yield(
                Some(op.a),
                Yield::GpuMem {
                    op: *intrin,
                    args: Vec::new(),
                },
            ),
        },
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
                let v = i32::of(regs[r as usize]);
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
            let n = i32::of(regs[b]);
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
        p.verify().unwrap();
        (p, id)
    }

    #[test]
    fn coordinate_reads_are_answered_in_place_at_the_round_trips_cost() {
        // fn f() -> i32 { threadIdx.y + gridDim.z }
        let mut fb = FuncBuilder::new("f", vec![], Some(Ty::I32), FuncKind::Host);
        let (t, g) = (fb.reg(Ty::I32), fb.reg(Ty::I32));
        for (op, dst) in [(IntrinOp::ThreadIdx(1), t), (IntrinOp::GridDim(2), g)] {
            fb.emit(Instr::Intrin {
                op,
                args: vec![],
                dst: Some(dst),
            });
        }
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: t,
            lhs: t,
            rhs: g,
        });
        fb.emit(Instr::Ret(Some(t)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        let image = Image::build(&p).unwrap();

        // No coordinates (a host machine): each read is a round trip.
        let mut host = Machine::new();
        let mut thread = Thread::new(&p, id, &[]).unwrap();
        let mut entries = 0;
        let via_yields = loop {
            entries += 1;
            match run(&mut thread, &image, &mut host, u64::MAX).unwrap() {
                Yield::GpuMem { op, .. } => {
                    let v = Val::I32(if op == IntrinOp::ThreadIdx(1) { 3 } else { 4 });
                    thread.resume_with(&p, v).unwrap()
                }
                Yield::Done(v) => break v,
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!((via_yields, entries), (Some(Val::I32(7)), 3));

        let mut device = Machine {
            gpu_coords: Some(GpuCoords {
                thread_idx: [0, 3, 0],
                grid_dim: [1, 1, 4],
                ..GpuCoords::default()
            }),
            ..Machine::new()
        };
        let mut thread = Thread::new(&p, id, &[]).unwrap();
        let in_place = run(&mut thread, &image, &mut device, u64::MAX).unwrap();
        assert!(
            matches!(in_place, Yield::Done(Some(Val::I32(7)))),
            "{in_place:?}"
        );
        assert_eq!(
            (device.counters.instrs, device.counters.cycles),
            (host.counters.instrs, host.counters.cycles)
        );

        // An armed device answers out of line, after a crash draw at each
        // read: a certain crash kills the thread at the first read...
        let coords = device.gpu_coords;
        let config = |crash| FaultConfig {
            crash,
            ..FaultConfig::seeded(3)
        };
        let armed = |crash| Machine {
            gpu_coords: coords,
            fault: Some(FaultPlan::new(config(crash))),
            ..Machine::new()
        };
        let mut doomed = armed(1.0);
        let mut thread = Thread::new(&p, id, &[]).unwrap();
        let crashed = run(&mut thread, &image, &mut doomed, u64::MAX).unwrap();
        assert!(matches!(crashed, Yield::Crashed { step: 1 }), "{crashed:?}");
        // ...and a plan that spares it draws twice and changes nothing else.
        let rare = 1e-12;
        let mut spared = armed(rare);
        let mut thread = Thread::new(&p, id, &[]).unwrap();
        let answered = run(&mut thread, &image, &mut spared, u64::MAX).unwrap();
        assert!(
            matches!(answered, Yield::Done(Some(Val::I32(7)))),
            "{answered:?}"
        );
        assert_eq!(spared.counters.cycles, host.counters.cycles);
        let mut two_draws = FaultPlan::new(config(rare));
        assert!(!two_draws.crash_at_yield() && !two_draws.crash_at_yield());
        assert_eq!(
            spared.fault.unwrap().rng_state(),
            two_draws.rng_state(),
            "one crash draw per coordinate read"
        );
    }

    #[test]
    fn every_coordinate_index_reads_its_register() {
        let coords = GpuCoords {
            thread_idx: [1, 2, 3],
            block_idx: [4, 5, 6],
            block_dim: [7, 8, 9],
            grid_dim: [10, 11, 12],
        };
        let ops = [
            IntrinOp::ThreadIdx as fn(u8) -> IntrinOp,
            IntrinOp::BlockIdx,
            IntrinOp::BlockDim,
            IntrinOp::GridDim,
        ];
        for (group, op) in ops.iter().enumerate() {
            for axis in 0..3u8 {
                let i = GpuCoords::index(op(axis)).unwrap();
                assert_eq!(i as usize, group * 3 + axis as usize);
                assert_eq!(coords.flat()[i as usize], i + 1);
            }
            assert_eq!(GpuCoords::index(op(3)), None, "no axis past z");
        }
        assert_eq!(GpuCoords::index(IntrinOp::SqrtF32), None);
    }

    #[test]
    fn positions_advance_x_fastest_then_y_then_z() {
        let mut c = GpuCoords {
            block_dim: [2, 3, 2],
            ..GpuCoords::default()
        };
        let mut seen = vec![c.thread_idx];
        for _ in 1..12 {
            c.advance();
            seen.push(c.thread_idx);
        }
        let want: Vec<[u32; 3]> = (0..2)
            .flat_map(|z| (0..3).flat_map(move |y| (0..2).map(move |x| [x, y, z])))
            .collect();
        assert_eq!(seen, want);
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
        p.verify().unwrap();
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
        p.verify().unwrap();
        let mut m = Machine::new();
        let r = run_to_completion(&p, id, vec![Val::I32(8)], &mut m).unwrap();
        assert_eq!(r, Some(Val::F32(2.5)));
    }

    #[test]
    fn a_type_mismatch_names_the_array_without_its_elements() {
        // fn f(a: int[]) { a[7] = 3; }, handed a float array: a handle
        // from outside carries no element type, so the store finds out.
        let mut fb = FuncBuilder::new("f", vec![Ty::Arr(ElemTy::I32)], None, FuncKind::Host);
        let (idx, v) = (fb.reg(Ty::I32), fb.reg(Ty::I32));
        fb.emit(Instr::ConstI32(idx, 7));
        fb.emit(Instr::ConstI32(v, 3));
        fb.emit(Instr::StArr {
            arr: 0,
            idx,
            src: v,
        });
        fb.emit(Instr::Ret(None));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        p.verify().unwrap();
        let mut m = Machine::new();
        let floats = m.mem.alloc(ArrStore::F32(vec![0.0; 1_000_000]));
        let e = run_to_completion(&p, id, vec![Val::Arr(floats)], &mut m).unwrap_err();
        assert!(e.message.len() < 200, "{} bytes", e.message.len());
        assert_eq!(
            (e.message.as_str(), e.pc),
            (
                "type mismatch storing I32(3) into f32 array of length 1000000",
                2
            )
        );
        assert_eq!(ArrStore::Freed.to_string(), "freed array");
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
        p.verify().unwrap();
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
        t.resume_with(&p, Val::I32(3)).unwrap();
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
        p.verify().unwrap();
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
        p.verify().unwrap();
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

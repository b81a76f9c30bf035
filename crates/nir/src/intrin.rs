//! The intrinsic table. The paper makes a program multiplatform by
//! mapping `@Native` `Math`, `CUDA` and `MPI` calls onto intrinsics; a row
//! of [`INTRINSICS`] holds every fact about one of them that more than
//! one layer reads: its wire tag and axis, `@Native` key, operand and
//! result types, purity, platform and C spelling. What an intrinsic
//! *does* stays where it runs: `exec`'s opcodes and weights, `mpi-sim`'s
//! and `gpu-sim`'s services, the C emitter's rendering, and the `jvm`'s
//! natives (an independent oracle, which does not read this table).

use crate::ir::{ElemTy, Ty};

/// Intrinsic operations: math, I/O, CUDA registers/memory, MPI. Each has
/// a row of [`INTRINSICS`] ([`IntrinOp::row`]).
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
    // CUDA thread registers; the axis is 0=x, 1=y, 2=z (no row has another)
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

/// The platform that services an intrinsic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// The executing machine itself: math, printing, array copies.
    Host,
    /// A CUDA device: thread coordinates and device memory.
    Gpu,
    /// An MPI world.
    Mpi,
}

/// An operand or result type an intrinsic requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntrinTy {
    Is(Ty),
    /// A handle to an array of any element type (the runtime that
    /// services the op checks the element type of what it copies).
    AnyArr,
}

/// One intrinsic: a row of [`INTRINSICS`].
#[derive(Debug, PartialEq)]
pub struct Intrinsic {
    pub op: IntrinOp,
    /// The wire tag, and the axis byte written after it (0 for every op
    /// but a coordinate register's).
    pub tag: u8,
    pub axis: u8,
    /// The `@Native("key")` key both lowerers map onto `op`.
    pub key: &'static str,
    /// Operand types, in operand order: their count is the op's arity.
    pub params: &'static [IntrinTy],
    /// The result type. An op with one names a destination register.
    pub ret: Option<IntrinTy>,
    /// No side effects: the optimizer may delete or hoist it.
    pub pure: bool,
    pub platform: Platform,
    /// The C spelling. The `wj_` names are functions of the emitted
    /// prelude, which follow Java where libc does not.
    pub c_name: &'static str,
}

use IntrinTy::{AnyArr, Is};
use Platform::{Gpu, Host, Mpi};
const I32: IntrinTy = Is(Ty::I32);
const I64: IntrinTy = Is(Ty::I64);
const F32: IntrinTy = Is(Ty::F32);
const F64: IntrinTy = Is(Ty::F64);
const BOOL: IntrinTy = Is(Ty::Bool);
const F32S: IntrinTy = Is(Ty::Arr(ElemTy::F32));
const SEND: &[IntrinTy] = &[F32S, I32, I32, I32, I32];
const SENDRECV: &[IntrinTy] = &[F32S, I32, I32, I32, F32S, I32, I32, I32];
const RANGE: &[IntrinTy] = &[AnyArr, I32, AnyArr, I32, I32];

#[allow(clippy::too_many_arguments)]
const fn row(
    op: IntrinOp,
    tag: u8,
    axis: u8,
    key: &'static str,
    platform: Platform,
    pure: bool,
    c_name: &'static str,
    params: &'static [IntrinTy],
    ret: Option<IntrinTy>,
) -> Intrinsic {
    Intrinsic {
        op,
        tag,
        axis,
        key,
        params,
        ret,
        pure,
        platform,
        c_name,
    }
}

use IntrinOp as I;

/// Every intrinsic, in wire order (by tag, then axis). `CopyToGpu`
/// returns a device copy of its operand, so [`Program::verify`] also
/// checks that its result has its operand's type.
///
/// [`Program::verify`]: crate::Program::verify
#[rustfmt::skip]
pub static INTRINSICS: [Intrinsic; 45] = [
    //  op                     tag ax  @Native key           platform pure  C spelling                  operands -> result
    row(I::SqrtF64,              0, 0, "math.sqrt",          Host, true,  "sqrt",                     &[F64], Some(F64)),
    row(I::SqrtF32,              1, 0, "math.sqrtf",         Host, true,  "sqrtf",                    &[F32], Some(F32)),
    row(I::PowF64,               2, 0, "math.pow",           Host, true,  "pow",                      &[F64, F64], Some(F64)),
    row(I::ExpF64,               3, 0, "math.exp",           Host, true,  "exp",                      &[F64], Some(F64)),
    row(I::AbsF32,               4, 0, "math.absf",          Host, true,  "fabsf",                    &[F32], Some(F32)),
    row(I::AbsF64,               5, 0, "math.absd",          Host, true,  "fabs",                     &[F64], Some(F64)),
    row(I::AbsI32,               6, 0, "math.absi",          Host, true,  "wj_abs_i32",               &[I32], Some(I32)),
    row(I::MinI32,               7, 0, "math.mini",          Host, true,  "min",                      &[I32, I32], Some(I32)),
    row(I::MaxI32,               8, 0, "math.maxi",          Host, true,  "max",                      &[I32, I32], Some(I32)),
    row(I::MinF32,               9, 0, "math.minf",          Host, true,  "wj_min_f32",               &[F32, F32], Some(F32)),
    row(I::MaxF32,              10, 0, "math.maxf",          Host, true,  "wj_max_f32",               &[F32, F32], Some(F32)),
    row(I::PrintI32,            11, 0, "wj.printInt",        Host, false, "wj_print_i32",             &[I32], None),
    row(I::PrintI64,            12, 0, "wj.printLong",       Host, false, "wj_print_i64",             &[I64], None),
    row(I::PrintF32,            13, 0, "wj.printFloat",      Host, false, "wj_print_f32",             &[F32], None),
    row(I::PrintF64,            14, 0, "wj.printDouble",     Host, false, "wj_print_f64",             &[F64], None),
    row(I::PrintBool,           15, 0, "wj.printBool",       Host, false, "wj_print_bool",            &[BOOL], None),
    row(I::ArrayCopyF32,        16, 0, "wj.arraycopyF",      Host, false, "memmove",                  &[F32S, I32, F32S, I32, I32], None),
    row(I::ThreadIdx(0),        17, 0, "cuda.threadIdxX",    Gpu,  true,  "threadIdx.x",              &[], Some(I32)),
    row(I::ThreadIdx(1),        17, 1, "cuda.threadIdxY",    Gpu,  true,  "threadIdx.y",              &[], Some(I32)),
    row(I::ThreadIdx(2),        17, 2, "cuda.threadIdxZ",    Gpu,  true,  "threadIdx.z",              &[], Some(I32)),
    row(I::BlockIdx(0),         18, 0, "cuda.blockIdxX",     Gpu,  true,  "blockIdx.x",               &[], Some(I32)),
    row(I::BlockIdx(1),         18, 1, "cuda.blockIdxY",     Gpu,  true,  "blockIdx.y",               &[], Some(I32)),
    row(I::BlockIdx(2),         18, 2, "cuda.blockIdxZ",     Gpu,  true,  "blockIdx.z",               &[], Some(I32)),
    row(I::BlockDim(0),         19, 0, "cuda.blockDimX",     Gpu,  true,  "blockDim.x",               &[], Some(I32)),
    row(I::BlockDim(1),         19, 1, "cuda.blockDimY",     Gpu,  true,  "blockDim.y",               &[], Some(I32)),
    row(I::BlockDim(2),         19, 2, "cuda.blockDimZ",     Gpu,  true,  "blockDim.z",               &[], Some(I32)),
    row(I::GridDim(0),          20, 0, "cuda.gridDimX",      Gpu,  true,  "gridDim.x",                &[], Some(I32)),
    row(I::GridDim(1),          20, 1, "cuda.gridDimY",      Gpu,  true,  "gridDim.y",                &[], Some(I32)),
    row(I::GridDim(2),          20, 2, "cuda.gridDimZ",      Gpu,  true,  "gridDim.z",                &[], Some(I32)),
    row(I::CopyToGpu,           21, 0, "cuda.copyToGPU",     Gpu,  false, "cudaMemcpyHostToDevice",   &[AnyArr], Some(AnyArr)),
    row(I::CopyFromGpu,         22, 0, "cuda.copyFromGPU",   Gpu,  false, "cudaMemcpyDeviceToHost",   &[AnyArr, AnyArr], None),
    row(I::CopyToGpuRange,      23, 0, "cuda.copyInRange",   Gpu,  false, "cudaMemcpy/*range,HtoD*/", RANGE, None),
    row(I::CopyFromGpuRange,    24, 0, "cuda.copyOutRange",  Gpu,  false, "cudaMemcpy/*range,DtoH*/", RANGE, None),
    row(I::GpuAllocF32,         25, 0, "cuda.allocF32",      Gpu,  false, "cudaMalloc",               &[I32], Some(F32S)),
    row(I::GpuFree,             26, 0, "cuda.free",          Gpu,  false, "cudaFree",                 &[AnyArr], None),
    row(I::MpiRank,             27, 0, "mpi.rank",           Mpi,  false, "MPI_Comm_rank",            &[], Some(I32)),
    row(I::MpiSize,             28, 0, "mpi.size",           Mpi,  false, "MPI_Comm_size",            &[], Some(I32)),
    row(I::MpiBarrier,          29, 0, "mpi.barrier",        Mpi,  false, "MPI_Barrier",              &[], None),
    row(I::MpiSendF32,          30, 0, "mpi.sendF",          Mpi,  false, "MPI_Send",                 SEND, None),
    row(I::MpiRecvF32,          31, 0, "mpi.recvF",          Mpi,  false, "MPI_Recv",                 SEND, None),
    row(I::MpiSendRecvF32,      32, 0, "mpi.sendrecvF",      Mpi,  false, "MPI_Sendrecv",             SENDRECV, None),
    row(I::MpiBcastF32,         33, 0, "mpi.bcastF",         Mpi,  false, "MPI_Bcast",                &[F32S, I32, I32, I32], None),
    row(I::MpiAllreduceSumF64,  34, 0, "mpi.allreduceSumD",  Mpi,  false, "MPI_Allreduce",            &[F64], Some(F64)),
    row(I::MpiAllreduceSumF32,  35, 0, "mpi.allreduceSumF",  Mpi,  false, "MPI_Allreduce",            &[F32], Some(F32)),
    row(I::MpiAllreduceMaxF64,  36, 0, "mpi.allreduceMaxD",  Mpi,  false, "MPI_Allreduce",            &[F64], Some(F64)),
];

impl IntrinOp {
    /// This op's row; `None` only for a coordinate axis past `z`, which no
    /// row has. Exhaustive: a new variant needs an arm (tested per row).
    pub fn row(self) -> Option<&'static Intrinsic> {
        let (first, axis) = match self {
            I::SqrtF64 => (0, 0),
            I::SqrtF32 => (1, 0),
            I::PowF64 => (2, 0),
            I::ExpF64 => (3, 0),
            I::AbsF32 => (4, 0),
            I::AbsF64 => (5, 0),
            I::AbsI32 => (6, 0),
            I::MinI32 => (7, 0),
            I::MaxI32 => (8, 0),
            I::MinF32 => (9, 0),
            I::MaxF32 => (10, 0),
            I::PrintI32 => (11, 0),
            I::PrintI64 => (12, 0),
            I::PrintF32 => (13, 0),
            I::PrintF64 => (14, 0),
            I::PrintBool => (15, 0),
            I::ArrayCopyF32 => (16, 0),
            I::ThreadIdx(a) => (17, a),
            I::BlockIdx(a) => (20, a),
            I::BlockDim(a) => (23, a),
            I::GridDim(a) => (26, a),
            I::CopyToGpu => (29, 0),
            I::CopyFromGpu => (30, 0),
            I::CopyToGpuRange => (31, 0),
            I::CopyFromGpuRange => (32, 0),
            I::GpuAllocF32 => (33, 0),
            I::GpuFree => (34, 0),
            I::MpiRank => (35, 0),
            I::MpiSize => (36, 0),
            I::MpiBarrier => (37, 0),
            I::MpiSendF32 => (38, 0),
            I::MpiRecvF32 => (39, 0),
            I::MpiSendRecvF32 => (40, 0),
            I::MpiBcastF32 => (41, 0),
            I::MpiAllreduceSumF64 => (42, 0),
            I::MpiAllreduceSumF32 => (43, 0),
            I::MpiAllreduceMaxF64 => (44, 0),
        };
        (axis < 3).then(|| &INTRINSICS[first + usize::from(axis)])
    }

    /// The op's row, if an `Intrin` of it with `args` operands and
    /// (`has_dst`) a destination fits it. [`Program::verify`], `exec`'s
    /// decoder and the C emitter check with it, so that past it the MPI
    /// and GPU runtimes index an op's operands by position.
    ///
    /// [`Program::verify`]: crate::Program::verify
    pub fn check_operands(self, args: usize, has_dst: bool) -> Result<&'static Intrinsic, String> {
        let row = self
            .row()
            .ok_or_else(|| format!("intrinsic {self:?} names an axis past z"))?;
        let arity = row.params.len();
        if args != arity {
            return Err(format!(
                "intrinsic {self:?} takes {arity} operands, found {args}"
            ));
        }
        if row.ret.is_some() && !has_dst {
            return Err(format!("intrinsic {self:?} has no destination register"));
        }
        Ok(row)
    }
}

impl Intrinsic {
    /// The row of an `@Native` key (other keys are foreign functions, or
    /// the lowerers' own `cuda.sync` and `cuda.sharedF32`).
    pub fn by_key(key: &str) -> Option<&'static Intrinsic> {
        INTRINSICS.iter().find(|r| r.key == key)
    }

    /// The row encoded as `tag` then `axis`, if any.
    pub fn by_wire(tag: u8, axis: u8) -> Option<&'static Intrinsic> {
        INTRINSICS.iter().find(|r| (r.tag, r.axis) == (tag, axis))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_in_wire_order_and_row_finds_each_one() {
        for (i, r) in INTRINSICS.iter().enumerate() {
            assert_eq!(r.op.row(), Some(r), "row {i}");
            assert_eq!(Intrinsic::by_key(r.key), Some(r), "{}", r.key);
            assert_eq!(Intrinsic::by_wire(r.tag, r.axis), Some(r), "{:?}", r.op);
            if let Some(next) = INTRINSICS.get(i + 1) {
                assert!((r.tag, r.axis) < (next.tag, next.axis), "{:?}", next.op);
            }
        }
        for op in [
            I::ThreadIdx(3),
            I::BlockIdx(7),
            I::BlockDim(3),
            I::GridDim(255),
        ] {
            assert_eq!(op.row(), None, "{op:?}");
            assert!(op.check_operands(0, true).unwrap_err().contains("past z"));
        }
    }
}

//! The execution image: a program pre-decoded for the interpreter loop.
//!
//! `nir::Instr` is the portable form — what the translator emits, the
//! artifact codec seals and the optimizer rewrites. It is a poor thing to
//! dispatch on: a 56-byte niche-tagged enum whose `Bin` needs a second
//! `(op, kind)` dispatch and whose weight needs a third. [`Image::build`]
//! derives, once per run, one flat [`Op`] per instruction: 16 bytes, a
//! dense `u8` opcode with `Bin`/`Neg`/`Cast`/math intrinsics already
//! specialised by operand kind, the virtual-cycle weight, and up to three
//! scalar operands (registers, constants, jump targets) inlined.
//!
//! Two decodings go past the instruction itself. An array load or store
//! whose array register is declared `float[]` decodes to the float op,
//! whose one-compare path the loop tries first; and five dependent pairs,
//! where the second instruction reads the first one's destination, become
//! superinstructions (see [`fuse`]).
//!
//! **Invariant: `ops[pc]` executes `code[pc]` first.** The image is 1:1
//! with [`nir::Function::code`], so a `pc` means the same thing in both.
//! A fused op at `pc` executes `code[pc]` and then `code[pc + 1]`, as two
//! retired instructions, and `ops[pc + 1]` still decodes `code[pc + 1]`
//! alone: a jump, a resumed slice or a fuel-out between the halves lands
//! on an op that does exactly that instruction. Fuel boundaries,
//! `Thread::frame_location`, checkpointed frames and error locations all
//! speak in `nir` pcs and need no translation; ops that carry an operand
//! *list* (calls, yielding intrinsics, `Launch`) read it from the
//! `nir::Instr` at the same `pc`.

use crate::{weight, ExecError, GpuCoords};
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use nir::{ElemTy, FuncId, Function, Instr, IntrinOp, Intrinsic, Platform, Program, Reg, Ty};

/// An absent register operand (`Ret(None)`, a call without `dst`).
pub(crate) const NO_REG: u32 = u32::MAX;

/// The register in an operand slot that may hold [`NO_REG`].
#[inline]
pub(crate) fn reg_of(slot: u32) -> Option<Reg> {
    (slot != NO_REG).then_some(slot)
}

/// Opcode of a decoded [`Op`]. The comment on each group gives the
/// operand layout `(a, b, c)`.
#[derive(Debug, Clone, Copy)]
#[repr(u8)]
pub(crate) enum OpKind {
    // (dst, bits, high bits of a 64-bit constant)
    ConstI32,
    ConstI64,
    ConstF32,
    ConstF64,
    ConstBool,
    // (dst, src)
    Mov,
    // (dst, lhs, rhs)
    AddI32,
    SubI32,
    MulI32,
    DivI32,
    RemI32,
    LtI32,
    LeI32,
    GtI32,
    GeI32,
    EqI32,
    NeI32,
    ShlI32,
    ShrI32,
    AndI32,
    OrI32,
    XorI32,
    AddI64,
    SubI64,
    MulI64,
    DivI64,
    RemI64,
    LtI64,
    LeI64,
    GtI64,
    GeI64,
    EqI64,
    NeI64,
    ShlI64,
    ShrI64,
    AndI64,
    OrI64,
    XorI64,
    AddF32,
    SubF32,
    MulF32,
    DivF32,
    RemF32,
    LtF32,
    LeF32,
    GtF32,
    GeF32,
    EqF32,
    NeF32,
    AddF64,
    SubF64,
    MulF64,
    DivF64,
    RemF64,
    LtF64,
    LeF64,
    GtF64,
    GeF64,
    EqF64,
    NeF64,
    EqBool,
    NeBool,
    AndBool,
    OrBool,
    /// A `Bin` whose operator does not exist for its kind (`&&` on ints):
    /// fails. (The verifier rejects it; an unverified program may hold it.)
    BadBin,
    // (dst, src)
    NegI32,
    NegI64,
    NegF32,
    NegF64,
    /// `Neg` of a boolean: always fails.
    NegBad,
    Not,
    // (dst, src, the source kind: `CAST_FROM_*`)
    CastI32,
    CastI64,
    CastF32,
    CastF64,
    CastBool,
    // (target)
    Jmp,
    // (cond, target if true, target if false)
    Br,
    // (src | NO_REG)
    Ret,
    // (callee, dst | NO_REG); args in the Instr
    Call,
    // (host fn, dst | NO_REG); args in the Instr
    CallHost,
    // (selector, receiver, dst | NO_REG); args in the Instr
    CallVirt,
    // (dst, class, field count)
    NewObj,
    // (dst, obj, slot)
    GetField,
    // (obj, slot, src)
    PutField,
    // (dst, len); elem in the Instr
    NewArr,
    // (dst, arr, idx): `LdArrF32` when `arr` is declared `float[]`
    LdArr,
    LdArrF32,
    // (arr, idx, src): `StArrF32` when `arr` is declared `float[]`
    StArr,
    StArrF32,
    // (dst, arr)
    ArrLen,
    // (arr)
    FreeArr,
    // (dst, x, y): the pure math intrinsics
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
    // (value)
    Print,
    // args in the Instr
    ArrayCopyF32,
    // (dst, flat coordinate index 0..12: `GpuCoords::index`)
    Coord,
    // (dst | NO_REG); op and args in the Instr
    YieldGpu,
    YieldMpi,
    // everything in the Instr
    Launch,
    // (dst, len); elem in the Instr
    SharedAlloc,
    Sync,
    // Superinstructions: the first half's operands; the second half's
    // are those of `ops[pc + 1]` (see `fuse`).
    /// `AddI32 t` then `LdArrF32{idx: t}`.
    AddI32LdArrF32,
    /// `SubI32 t` then `LdArrF32{idx: t}`.
    SubI32LdArrF32,
    /// `LtI32 c` then `Br{cond: c}`.
    LtI32Br,
    /// `AddF32 t` then `AddF32{lhs: t}`.
    AddF32AddF32,
    /// `MulF32 t` then `AddF32{rhs: t}`.
    MulF32AddF32,
}

/// One decoded instruction.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub(crate) struct Op {
    pub kind: OpKind,
    /// `weight(&code[pc])`, stored so the loop charges it without a
    /// second dispatch.
    pub weight: u8,
    pub a: u32,
    pub b: u32,
    pub c: u32,
}

const _: () = assert!(std::mem::size_of::<Op>() == 16);

/// A [`Program`] plus its decoded op streams, one per function. Built
/// once per run and shared by reference by every rank, pool worker and
/// device thread that executes the program.
#[derive(Debug)]
pub struct Image<'p> {
    program: &'p Program,
    funcs: Vec<Vec<Op>>,
}

impl<'p> Image<'p> {
    /// Decode every function of `program`. Fails, with function and pc,
    /// on an instruction the loop could only panic on: an intrinsic that
    /// [`IntrinOp::check_operands`] refuses (no table row, or another
    /// shape than its row's), or a `NewObj` of a class the
    /// program does not have (checks [`Program::verify`] makes, so a
    /// verified program always decodes).
    ///
    /// The loop runs on untagged registers and trusts the types
    /// [`Program::verify`] checked where the program was produced or
    /// loaded (translation, artifact decode, a `dist` worker's `Init`).
    /// A debug build verifies here too, after decoding, so every program
    /// a test runs is one the verifier accepts.
    pub fn build(program: &'p Program) -> Result<Image<'p>, ExecError> {
        let funcs = program
            .funcs
            .iter()
            .map(|f| decode_function(f, program))
            .collect::<Result<_, _>>()?;
        #[cfg(debug_assertions)]
        program.verify().map_err(|e| ExecError {
            message: format!("program does not verify: {}", e.message),
            func: e.func,
            pc: e.pc,
        })?;
        Ok(Image { program, funcs })
    }

    /// The program this image was decoded from.
    #[inline]
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The op stream of function `id`; `ops[pc]` executes `code[pc]`
    /// first.
    #[inline]
    pub(crate) fn ops(&self, id: FuncId) -> &[Op] {
        &self.funcs[id.0 as usize]
    }
}

fn decode_function(f: &Function, program: &Program) -> Result<Vec<Op>, ExecError> {
    // Collecting through `Result` has no size hint and grows by doubling.
    let mut ops = Vec::with_capacity(f.code.len());
    for (pc, ins) in f.code.iter().enumerate() {
        ops.push(decode(ins, program, &f.regs).map_err(|e| e.at(&f.name, pc as u32))?);
    }
    fuse(&mut ops);
    Ok(ops)
}

/// Turn the first op of each dependent pair into its superinstruction.
/// A pair is fused only when the second instruction reads the first
/// one's destination in the operand the forwarded value replaces, so the
/// second half can take the value from the first without re-reading it.
/// Which pairs: the five most frequent dependent pairs of the stencil and
/// Fox inner loops (DESIGN §17; `exec/tests/op_pairs.rs` keeps the list
/// and measures how much of a run each covers). The loads fuse when the
/// array is declared `float[]`, as those loops' arrays are.
///
/// `ops[pc + 1]` keeps its own decoding, so a chain (`AddF32` into
/// `AddF32` into `AddF32`) fuses at every link, and the op a jump or a
/// resumed slice lands on inside a pair runs alone.
fn fuse(ops: &mut [Op]) {
    use OpKind as K;
    for pc in 1..ops.len() {
        let (first, second) = (ops[pc - 1], ops[pc]);
        let t = first.a;
        ops[pc - 1].kind = match (first.kind, second.kind) {
            (K::AddI32, K::LdArrF32) if second.c == t => K::AddI32LdArrF32,
            (K::SubI32, K::LdArrF32) if second.c == t => K::SubI32LdArrF32,
            (K::LtI32, K::Br) if second.a == t => K::LtI32Br,
            (K::AddF32, K::AddF32) if second.b == t => K::AddF32AddF32,
            (K::MulF32, K::AddF32) if second.c == t => K::MulF32AddF32,
            _ => continue,
        };
    }
}

/// `CAST_FROM_*`: the source kind of a cast, in its op's `c`.
pub(crate) const CAST_FROM_I32: u32 = 0;
pub(crate) const CAST_FROM_I64: u32 = 1;
pub(crate) const CAST_FROM_F32: u32 = 2;
pub(crate) const CAST_FROM_F64: u32 = 3;
pub(crate) const CAST_FROM_BOOL: u32 = 4;

/// `regs` is the function's register types: a load or store through a
/// register declared `float[]` decodes to the float op.
fn decode(ins: &Instr, program: &Program, regs: &[Ty]) -> Result<Op, ExecError> {
    use OpKind as K;
    let weight = u8::try_from(weight(ins)).expect("every opcode weight fits a byte");
    let op = |kind, a, b, c| Op {
        kind,
        weight,
        a,
        b,
        c,
    };
    let opt = |r: &Option<Reg>| r.unwrap_or(NO_REG);
    Ok(match ins {
        Instr::ConstI32(d, v) => op(K::ConstI32, *d, *v as u32, 0),
        Instr::ConstI64(d, v) => op(K::ConstI64, *d, *v as u32, (*v >> 32) as u32),
        Instr::ConstF32(d, v) => op(K::ConstF32, *d, v.to_bits(), 0),
        Instr::ConstF64(d, v) => {
            let bits = v.to_bits();
            op(K::ConstF64, *d, bits as u32, (bits >> 32) as u32)
        }
        Instr::ConstBool(d, v) => op(K::ConstBool, *d, *v as u32, 0),
        Instr::Mov(d, s) => op(K::Mov, *d, *s, 0),
        Instr::Bin {
            op: bin,
            kind,
            dst,
            lhs,
            rhs,
        } => op(bin_kind(*bin, *kind), *dst, *lhs, *rhs),
        Instr::Neg { kind, dst, src } => {
            let k = match kind {
                PrimKind::Int => K::NegI32,
                PrimKind::Long => K::NegI64,
                PrimKind::Float => K::NegF32,
                PrimKind::Double => K::NegF64,
                PrimKind::Boolean => K::NegBad,
            };
            op(k, *dst, *src, 0)
        }
        Instr::Not { dst, src } => op(K::Not, *dst, *src, 0),
        Instr::Cast { to, from, dst, src } => {
            let k = match to {
                PrimKind::Int => K::CastI32,
                PrimKind::Long => K::CastI64,
                PrimKind::Float => K::CastF32,
                PrimKind::Double => K::CastF64,
                PrimKind::Boolean => K::CastBool,
            };
            let from = match from {
                PrimKind::Int => CAST_FROM_I32,
                PrimKind::Long => CAST_FROM_I64,
                PrimKind::Float => CAST_FROM_F32,
                PrimKind::Double => CAST_FROM_F64,
                PrimKind::Boolean => CAST_FROM_BOOL,
            };
            op(k, *dst, *src, from)
        }
        Instr::Jmp(t) => op(K::Jmp, *t, 0, 0),
        Instr::Br { cond, t, f } => op(K::Br, *cond, *t, *f),
        Instr::Ret(r) => op(K::Ret, opt(r), 0, 0),
        Instr::Call { func, dst, .. } => op(K::Call, func.0, opt(dst), 0),
        Instr::CallHost { host, dst, .. } => op(K::CallHost, *host, opt(dst), 0),
        Instr::CallVirt {
            selector,
            recv,
            dst,
            ..
        } => op(K::CallVirt, *selector, *recv, opt(dst)),
        Instr::NewObj { class, dst } => {
            let meta = program
                .classes
                .get(*class as usize)
                .ok_or_else(|| ExecError::msg(format!("new of unknown class {class}")))?;
            op(K::NewObj, *dst, *class, meta.field_count)
        }
        Instr::GetField { obj, slot, dst } => op(K::GetField, *dst, *obj, *slot),
        Instr::PutField { obj, slot, src } => op(K::PutField, *obj, *slot, *src),
        Instr::NewArr { len, dst, .. } => op(K::NewArr, *dst, *len, 0),
        Instr::LdArr { arr, idx, dst } => {
            let k = if is_f32_array(regs, *arr) {
                K::LdArrF32
            } else {
                K::LdArr
            };
            op(k, *dst, *arr, *idx)
        }
        Instr::StArr { arr, idx, src } => {
            let k = if is_f32_array(regs, *arr) {
                K::StArrF32
            } else {
                K::StArr
            };
            op(k, *arr, *idx, *src)
        }
        Instr::ArrLen { arr, dst } => op(K::ArrLen, *dst, *arr, 0),
        Instr::FreeArr { arr } => op(K::FreeArr, *arr, 0, 0),
        Instr::Intrin {
            op: intrin,
            args,
            dst,
        } => {
            let row = intrin
                .check_operands(args.len(), dst.is_some())
                .map_err(ExecError::msg)?;
            if let Some(i) = GpuCoords::index(*intrin) {
                return Ok(op(K::Coord, opt(dst), i, 0));
            }
            let kind = intrin_kind(row).ok_or_else(|| {
                ExecError::msg(format!("host intrinsic {intrin:?} has no opcode"))
            })?;
            let arg = |i: usize| args.get(i).copied().unwrap_or(0);
            match kind {
                K::Print => op(kind, arg(0), 0, 0),
                K::ArrayCopyF32 => op(kind, 0, 0, 0),
                K::YieldGpu | K::YieldMpi => op(kind, opt(dst), 0, 0),
                _ => op(kind, opt(dst), arg(0), arg(1)),
            }
        }
        Instr::Launch { .. } => op(K::Launch, 0, 0, 0),
        Instr::SharedAlloc { len, dst, .. } => op(K::SharedAlloc, *dst, *len, 0),
        Instr::Sync => op(K::Sync, 0, 0, 0),
    })
}

/// Is register `r` declared `float[]`? The float ops' fast path reads
/// the handle without knowing what it names: a handle from outside (an
/// argument, a field) may name another array, which `MemSpace::load_f32`
/// refuses and the checked path explains.
fn is_f32_array(regs: &[Ty], r: Reg) -> bool {
    regs.get(r as usize) == Some(&Ty::Arr(ElemTy::F32))
}

/// The opcode of an intrinsic: a host op's own, or a yield to the
/// runtime of its row's platform. The loop reads the math, print and
/// array-copy operands by position, and the yielding ones travel as
/// `Yield::{Mpi, GpuMem}` argument lists that
/// `mpi_sim::runtime::{service_mpi, service_device_yield}` index by
/// position, because [`decode`] checked their counts first. `None` for a
/// host op the loop has no opcode for.
fn intrin_kind(row: &Intrinsic) -> Option<OpKind> {
    use IntrinOp as I;
    use OpKind as K;
    Some(match row.op {
        I::SqrtF64 => K::SqrtF64,
        I::SqrtF32 => K::SqrtF32,
        I::PowF64 => K::PowF64,
        I::ExpF64 => K::ExpF64,
        I::AbsF32 => K::AbsF32,
        I::AbsF64 => K::AbsF64,
        I::AbsI32 => K::AbsI32,
        I::MinI32 => K::MinI32,
        I::MaxI32 => K::MaxI32,
        I::MinF32 => K::MinF32,
        I::MaxF32 => K::MaxF32,
        I::PrintI32 | I::PrintI64 | I::PrintF32 | I::PrintF64 | I::PrintBool => K::Print,
        I::ArrayCopyF32 => K::ArrayCopyF32,
        _ => match row.platform {
            Platform::Gpu => K::YieldGpu,
            Platform::Mpi => K::YieldMpi,
            Platform::Host => return None,
        },
    })
}

fn bin_kind(op: BinOp, kind: PrimKind) -> OpKind {
    use BinOp::*;
    use OpKind as K;
    match (kind, op) {
        (PrimKind::Int, Add) => K::AddI32,
        (PrimKind::Int, Sub) => K::SubI32,
        (PrimKind::Int, Mul) => K::MulI32,
        (PrimKind::Int, Div) => K::DivI32,
        (PrimKind::Int, Rem) => K::RemI32,
        (PrimKind::Int, Lt) => K::LtI32,
        (PrimKind::Int, Le) => K::LeI32,
        (PrimKind::Int, Gt) => K::GtI32,
        (PrimKind::Int, Ge) => K::GeI32,
        (PrimKind::Int, Eq) => K::EqI32,
        (PrimKind::Int, Ne) => K::NeI32,
        (PrimKind::Int, Shl) => K::ShlI32,
        (PrimKind::Int, Shr) => K::ShrI32,
        (PrimKind::Int, BitAnd) => K::AndI32,
        (PrimKind::Int, BitOr) => K::OrI32,
        (PrimKind::Int, BitXor) => K::XorI32,
        (PrimKind::Long, Add) => K::AddI64,
        (PrimKind::Long, Sub) => K::SubI64,
        (PrimKind::Long, Mul) => K::MulI64,
        (PrimKind::Long, Div) => K::DivI64,
        (PrimKind::Long, Rem) => K::RemI64,
        (PrimKind::Long, Lt) => K::LtI64,
        (PrimKind::Long, Le) => K::LeI64,
        (PrimKind::Long, Gt) => K::GtI64,
        (PrimKind::Long, Ge) => K::GeI64,
        (PrimKind::Long, Eq) => K::EqI64,
        (PrimKind::Long, Ne) => K::NeI64,
        (PrimKind::Long, Shl) => K::ShlI64,
        (PrimKind::Long, Shr) => K::ShrI64,
        (PrimKind::Long, BitAnd) => K::AndI64,
        (PrimKind::Long, BitOr) => K::OrI64,
        (PrimKind::Long, BitXor) => K::XorI64,
        (PrimKind::Float, Add) => K::AddF32,
        (PrimKind::Float, Sub) => K::SubF32,
        (PrimKind::Float, Mul) => K::MulF32,
        (PrimKind::Float, Div) => K::DivF32,
        (PrimKind::Float, Rem) => K::RemF32,
        (PrimKind::Float, Lt) => K::LtF32,
        (PrimKind::Float, Le) => K::LeF32,
        (PrimKind::Float, Gt) => K::GtF32,
        (PrimKind::Float, Ge) => K::GeF32,
        (PrimKind::Float, Eq) => K::EqF32,
        (PrimKind::Float, Ne) => K::NeF32,
        (PrimKind::Double, Add) => K::AddF64,
        (PrimKind::Double, Sub) => K::SubF64,
        (PrimKind::Double, Mul) => K::MulF64,
        (PrimKind::Double, Div) => K::DivF64,
        (PrimKind::Double, Rem) => K::RemF64,
        (PrimKind::Double, Lt) => K::LtF64,
        (PrimKind::Double, Le) => K::LeF64,
        (PrimKind::Double, Gt) => K::GtF64,
        (PrimKind::Double, Ge) => K::GeF64,
        (PrimKind::Double, Eq) => K::EqF64,
        (PrimKind::Double, Ne) => K::NeF64,
        (PrimKind::Boolean, Eq) => K::EqBool,
        (PrimKind::Boolean, Ne) => K::NeBool,
        (PrimKind::Boolean, And) => K::AndBool,
        (PrimKind::Boolean, Or) => K::OrBool,
        _ => K::BadBin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_to_completion, Machine};
    use nir::{FuncBuilder, FuncKind, Ty};

    /// `fn f() { <intrinsic>; return }` — the malformed instruction at pc 1.
    fn program_with(op: IntrinOp, args: Vec<Reg>, dst: Option<Reg>) -> Program {
        let mut fb = FuncBuilder::new("f", vec![], None, FuncKind::Host);
        let r = fb.reg(Ty::I32);
        fb.emit(Instr::ConstI32(r, 1));
        fb.emit(Instr::Intrin { op, args, dst });
        fb.emit(Instr::Ret(None));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        p.entry = Some(id);
        p
    }

    #[test]
    fn malformed_intrinsics_are_typed_errors_at_build() {
        // One per family: (op, operands, dst, what the message names).
        let cases = [
            (IntrinOp::SqrtF64, vec![], None, "takes 1 operands, found 0"),
            (IntrinOp::AbsI32, vec![0], None, "no destination"),
            (
                IntrinOp::PowF64,
                vec![0],
                Some(0),
                "takes 2 operands, found 1",
            ),
            (IntrinOp::MaxF32, vec![0, 0], None, "no destination"),
            (
                IntrinOp::PrintI32,
                vec![],
                None,
                "takes 1 operands, found 0",
            ),
            (
                IntrinOp::ArrayCopyF32,
                vec![0, 0],
                None,
                "takes 5 operands, found 2",
            ),
            (
                IntrinOp::ThreadIdx(0),
                vec![0],
                Some(0),
                "takes 0 operands, found 1",
            ),
            (IntrinOp::GridDim(3), vec![], Some(0), "axis past z"),
            (
                IntrinOp::CopyToGpu,
                vec![],
                Some(0),
                "takes 1 operands, found 0",
            ),
            (
                IntrinOp::CopyFromGpuRange,
                vec![0],
                None,
                "takes 5 operands, found 1",
            ),
            (
                IntrinOp::MpiAllreduceSumF32,
                vec![],
                Some(0),
                "takes 1 operands, found 0",
            ),
            (
                IntrinOp::MpiSendRecvF32,
                vec![0, 0, 0],
                None,
                "takes 8 operands, found 3",
            ),
        ];
        for (op, args, dst, what) in cases {
            let p = program_with(op, args, dst);
            // `verify` rejects it with the same words, at the same place.
            let v = p.verify().expect_err("a malformed intrinsic is invalid");
            assert!(v.message.contains(what), "{op:?}: {v}");
            assert_eq!((v.func.as_str(), v.pc), ("f", 1), "{op:?}: {v}");
            let e = Image::build(&p).expect_err("a malformed intrinsic must not decode");
            assert!(e.message.contains(what), "{op:?}: {e}");
            assert_eq!((e.func.as_str(), e.pc), ("f", 1), "{op:?}: {e}");
            // The convenience runner surfaces the same error, never a panic.
            let ran = run_to_completion(&p, FuncId(0), vec![], &mut Machine::new());
            assert_eq!(ran.unwrap_err().message, e.message);
        }
    }
}

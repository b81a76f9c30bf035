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
//! **Invariant: `ops[pc]` decodes `code[pc]`.** The image is 1:1 with
//! [`nir::Function::code`], so a `pc` means the same thing in both. Fuel
//! boundaries, `Thread::frame_location`, checkpointed frames and error
//! locations all speak in `nir` pcs and need no translation; ops that
//! carry an operand *list* (calls, yielding intrinsics, `Launch`) read it
//! from the `nir::Instr` at the same `pc`.

use crate::{weight, ExecError};
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use nir::{FuncId, Function, Instr, IntrinOp, Program, Reg};

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
    /// tag-checks its operands, then fails.
    BadBin,
    // (dst, src)
    NegI32,
    NegI64,
    NegF32,
    NegF64,
    /// `Neg` of a boolean: always fails.
    NegBad,
    Not,
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
    // (dst, arr, idx)
    LdArr,
    // (arr, idx, src)
    StArr,
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
    // (dst | NO_REG); op and args in the Instr
    YieldGpu,
    YieldMpi,
    // everything in the Instr
    Launch,
    // (dst, len); elem in the Instr
    SharedAlloc,
    Sync,
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
    /// on an instruction the loop could only panic on: an intrinsic with
    /// the wrong operand count or without the destination it writes, or a
    /// `NewObj` of a class the program does not have.
    pub fn build(program: &'p Program) -> Result<Image<'p>, ExecError> {
        let funcs = program
            .funcs
            .iter()
            .map(|f| decode_function(f, program))
            .collect::<Result<_, _>>()?;
        Ok(Image { program, funcs })
    }

    /// The program this image was decoded from.
    #[inline]
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The op stream of function `id`; `ops[pc]` decodes `code[pc]`.
    #[inline]
    pub(crate) fn ops(&self, id: FuncId) -> &[Op] {
        &self.funcs[id.0 as usize]
    }
}

fn decode_function(f: &Function, program: &Program) -> Result<Vec<Op>, ExecError> {
    // Collecting through `Result` has no size hint and grows by doubling.
    let mut ops = Vec::with_capacity(f.code.len());
    for (pc, ins) in f.code.iter().enumerate() {
        ops.push(decode(ins, program).map_err(|e| e.at(&f.name, pc as u32))?);
    }
    Ok(ops)
}

fn decode(ins: &Instr, program: &Program) -> Result<Op, ExecError> {
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
        Instr::Cast { to, dst, src, .. } => {
            let k = match to {
                PrimKind::Int => K::CastI32,
                PrimKind::Long => K::CastI64,
                PrimKind::Float => K::CastF32,
                PrimKind::Double => K::CastF64,
                PrimKind::Boolean => K::CastBool,
            };
            op(k, *dst, *src, 0)
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
        Instr::LdArr { arr, idx, dst } => op(K::LdArr, *dst, *arr, *idx),
        Instr::StArr { arr, idx, src } => op(K::StArr, *arr, *idx, *src),
        Instr::ArrLen { arr, dst } => op(K::ArrLen, *dst, *arr, 0),
        Instr::FreeArr { arr } => op(K::FreeArr, *arr, 0, 0),
        Instr::Intrin {
            op: intrin,
            args,
            dst,
        } => {
            let (kind, arity, writes) = intrin_shape(*intrin);
            if args.len() != arity {
                return Err(ExecError::msg(format!(
                    "intrinsic {intrin:?} takes {arity} operands, found {}",
                    args.len()
                )));
            }
            if writes && dst.is_none() {
                return Err(ExecError::msg(format!(
                    "intrinsic {intrin:?} has no destination register"
                )));
            }
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

/// Opcode, operand count, and whether the interpreter writes a
/// destination itself (yielding intrinsics hand `dst` to the runtime that
/// services them, which tolerates its absence).
///
/// This is the one table of intrinsic operand counts. The loop reads the
/// math, print and array-copy operands by position; the yielding ones
/// travel as `Yield::{Mpi, GpuMem}` argument lists that
/// `mpi_sim::runtime::{service_mpi, service_device_yield}` index by
/// position without a length check, because a program whose counts
/// differ from these never gets an image. An intrinsic whose operand
/// layout changes there changes here too.
fn intrin_shape(op: IntrinOp) -> (OpKind, usize, bool) {
    use IntrinOp as I;
    use OpKind as K;
    match op {
        I::SqrtF64 => (K::SqrtF64, 1, true),
        I::SqrtF32 => (K::SqrtF32, 1, true),
        I::PowF64 => (K::PowF64, 2, true),
        I::ExpF64 => (K::ExpF64, 1, true),
        I::AbsF32 => (K::AbsF32, 1, true),
        I::AbsF64 => (K::AbsF64, 1, true),
        I::AbsI32 => (K::AbsI32, 1, true),
        I::MinI32 => (K::MinI32, 2, true),
        I::MaxI32 => (K::MaxI32, 2, true),
        I::MinF32 => (K::MinF32, 2, true),
        I::MaxF32 => (K::MaxF32, 2, true),
        I::PrintI32 | I::PrintI64 | I::PrintF32 | I::PrintF64 | I::PrintBool => {
            (K::Print, 1, false)
        }
        I::ArrayCopyF32 => (K::ArrayCopyF32, 5, false),
        I::ThreadIdx(_) | I::BlockIdx(_) | I::BlockDim(_) | I::GridDim(_) => {
            (K::YieldGpu, 0, false)
        }
        I::CopyToGpu | I::GpuAllocF32 | I::GpuFree => (K::YieldGpu, 1, false),
        I::CopyFromGpu => (K::YieldGpu, 2, false),
        I::CopyToGpuRange | I::CopyFromGpuRange => (K::YieldGpu, 5, false),
        I::MpiRank | I::MpiSize | I::MpiBarrier => (K::YieldMpi, 0, false),
        I::MpiAllreduceSumF64 | I::MpiAllreduceSumF32 | I::MpiAllreduceMaxF64 => {
            (K::YieldMpi, 1, false)
        }
        I::MpiBcastF32 => (K::YieldMpi, 4, false),
        I::MpiSendF32 | I::MpiRecvF32 => (K::YieldMpi, 5, false),
        I::MpiSendRecvF32 => (K::YieldMpi, 8, false),
    }
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
        // Structurally valid: `validate` checks neither arity nor `dst`.
        p.validate().unwrap();
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
            let e = Image::build(&p).expect_err("a malformed intrinsic must not decode");
            assert!(e.message.contains(what), "{op:?}: {e}");
            assert_eq!((e.func.as_str(), e.pc), ("f", 1), "{op:?}: {e}");
            // The convenience runner surfaces the same error, never a panic.
            let ran = run_to_completion(&p, FuncId(0), vec![], &mut Machine::new());
            assert_eq!(ran.unwrap_err().message, e.message);
        }
    }
}

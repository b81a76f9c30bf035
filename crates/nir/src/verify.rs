//! The type verifier: the paper's §3.3 static analysis, run once on NIR.
//!
//! Under the coding rules "a simple static analysis determines the exact
//! dynamic type of every object" before the program runs. NIR declares
//! each register's type in [`Function::regs`]; [`Program::verify`] checks
//! that every instruction agrees with those declarations, and that every
//! register is written on every path before it is read. A program it
//! accepts can run on untagged registers: `exec` stores each register as
//! one 64-bit word and re-decides no type in its dispatch loop.
//!
//! The checks, per instruction:
//!
//! * constants, moves, `Bin` (operands of its kind, a result of its kind
//!   or `bool` for a comparison, and an operator that exists for the
//!   kind), `Neg`, `Not` and casts (numeric to numeric, or `bool` to
//!   `bool`);
//! * `Br` tests a `bool`; `Ret` returns the function's declared type;
//! * calls, host calls and launches pass arguments of the callee's (or
//!   the host function's) parameter types and receive its return type;
//! * array operands: a handle of the declared element type, `i32`
//!   indices and lengths, loads and stores of the element type;
//! * intrinsics: the operand and result types of each `IntrinOp`;
//! * object operands: receivers, fields' objects and `NewObj` results
//!   are `Obj` (field values and a virtual call's arguments are checked
//!   at run time, where the class is known).
//!
//! Definite assignment is a must-analysis over basic blocks, run only on
//! the registers some block reads before writing them (parameters are
//! written at entry). Translated code rarely has any, so the usual cost
//! is the type walk plus one walk that finds none.
//!
//! The verifier expects a program [`Program::validate`] accepted (an
//! intrinsic's shape is checked first, as there), but never panics on
//! one it did not: an out-of-range register, jump or callee is an error.

use crate::ir::{ElemTy, FuncId, Function, Instr, IntrinOp, Program, Reg, Ty};
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use std::fmt;

/// Why a function failed verification, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The function's name.
    pub func: String,
    /// The offending instruction.
    pub pc: u32,
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "function `{}` pc {}: {}",
            self.func, self.pc, self.message
        )
    }
}

impl std::error::Error for VerifyError {}

/// An operand type an intrinsic requires.
#[derive(Debug, Clone, Copy)]
enum Want {
    Is(Ty),
    /// A handle to an array of any element type (the runtime that
    /// services the op checks the element type of what it copies).
    AnyArr,
}

use Want::{AnyArr, Is};
const I32: Want = Is(Ty::I32);
const I64: Want = Is(Ty::I64);
const F32: Want = Is(Ty::F32);
const F64: Want = Is(Ty::F64);
const BOOL: Want = Is(Ty::Bool);
const F32_ARR: Want = Is(Ty::Arr(ElemTy::F32));

/// Operand and result types of an intrinsic, in [`IntrinOp::shape`]'s
/// order. `CopyToGpu` returns a device copy of its operand, so its
/// result has its operand's type (checked apart).
fn intrin_types(op: IntrinOp) -> (&'static [Want], Option<Want>) {
    use IntrinOp as I;
    match op {
        I::SqrtF64 | I::ExpF64 | I::AbsF64 => (&[F64], Some(F64)),
        I::SqrtF32 | I::AbsF32 => (&[F32], Some(F32)),
        I::AbsI32 => (&[I32], Some(I32)),
        I::PowF64 => (&[F64, F64], Some(F64)),
        I::MinI32 | I::MaxI32 => (&[I32, I32], Some(I32)),
        I::MinF32 | I::MaxF32 => (&[F32, F32], Some(F32)),
        I::PrintI32 => (&[I32], None),
        I::PrintI64 => (&[I64], None),
        I::PrintF32 => (&[F32], None),
        I::PrintF64 => (&[F64], None),
        I::PrintBool => (&[BOOL], None),
        I::ArrayCopyF32 => (&[F32_ARR, I32, F32_ARR, I32, I32], None),
        I::ThreadIdx(_) | I::BlockIdx(_) | I::BlockDim(_) | I::GridDim(_) => (&[], Some(I32)),
        I::CopyToGpu => (&[AnyArr], Some(AnyArr)),
        I::CopyFromGpu => (&[AnyArr, AnyArr], None),
        I::CopyToGpuRange | I::CopyFromGpuRange => (&[AnyArr, I32, AnyArr, I32, I32], None),
        I::GpuAllocF32 => (&[I32], Some(F32_ARR)),
        I::GpuFree => (&[AnyArr], None),
        I::MpiRank | I::MpiSize => (&[], Some(I32)),
        I::MpiBarrier => (&[], None),
        I::MpiSendF32 | I::MpiRecvF32 => (&[F32_ARR, I32, I32, I32, I32], None),
        I::MpiSendRecvF32 => (&[F32_ARR, I32, I32, I32, F32_ARR, I32, I32, I32], None),
        I::MpiBcastF32 => (&[F32_ARR, I32, I32, I32], None),
        I::MpiAllreduceSumF64 | I::MpiAllreduceMaxF64 => (&[F64], Some(F64)),
        I::MpiAllreduceSumF32 => (&[F32], Some(F32)),
    }
}

/// The result type of `lhs op rhs` over operands of `kind`, or `None`
/// when the operator does not exist for the kind (`&&` on ints, `+` on
/// booleans, a bitwise op on floats).
fn bin_result(op: BinOp, kind: PrimKind) -> Option<Ty> {
    use BinOp::*;
    let numeric = !matches!(kind, PrimKind::Boolean);
    let integral = matches!(kind, PrimKind::Int | PrimKind::Long);
    let exists = match op {
        Add | Sub | Mul | Div | Rem | Lt | Le | Gt | Ge => numeric,
        Eq | Ne => true,
        And | Or => !numeric,
        BitAnd | BitOr | BitXor | Shl | Shr => integral,
    };
    exists.then(|| {
        if op.is_comparison() {
            Ty::Bool
        } else {
            Ty::of_prim(kind)
        }
    })
}

impl Program {
    /// Verify every function (see the module docs).
    pub fn verify(&self) -> Result<(), VerifyError> {
        (0..self.funcs.len()).try_for_each(|i| self.verify_func(FuncId(i as u32)))
    }

    /// Verify one function against its own declarations and its callees'
    /// signatures.
    pub fn verify_func(&self, id: FuncId) -> Result<(), VerifyError> {
        let f = self.func(id);
        let fail = |pc: usize, message: String| VerifyError {
            func: f.name.clone(),
            pc: pc as u32,
            message,
        };
        let mut leaders = vec![false; f.code.len() + 1];
        leaders[0] = true;
        for (pc, ins) in f.code.iter().enumerate() {
            self.check_instr(f, ins).map_err(|m| fail(pc, m))?;
            let mut lead = |t: u32| match leaders.get_mut(t as usize) {
                Some(l) => {
                    *l = true;
                    Ok(())
                }
                None => Err(fail(pc, format!("jump target {t} out of range"))),
            };
            match ins {
                Instr::Jmp(t) => lead(*t)?,
                Instr::Br { t, f: e, .. } => {
                    lead(*t)?;
                    lead(*e)?;
                }
                Instr::Ret(_) => {}
                _ => continue,
            }
            leaders[pc + 1] = true;
        }
        definitely_assigned(f, &leaders)
            .map_err(|(pc, r)| fail(pc, format!("r{r} may be read before it is written")))
    }

    /// The type checks of one instruction; the message names the operand.
    fn check_instr(&self, f: &Function, ins: &Instr) -> Result<(), String> {
        let ty = |r: Reg| {
            f.regs
                .get(r as usize)
                .copied()
                .ok_or_else(|| format!("register r{r} out of range"))
        };
        let want = |what: &str, r: Reg, t: Ty| -> Result<(), String> {
            match ty(r)? {
                got if got == t => Ok(()),
                got => Err(format!("{what} r{r} is {got:?}, expected {t:?}")),
            }
        };
        let elem = |what: &str, r: Reg| match ty(r)? {
            Ty::Arr(e) => Ok(e),
            got => Err(format!("{what} r{r} is {got:?}, expected an array")),
        };
        let prim = |k: PrimKind| Ty::of_prim(k);
        match ins {
            Instr::ConstI32(d, _) => want("destination", *d, Ty::I32),
            Instr::ConstI64(d, _) => want("destination", *d, Ty::I64),
            Instr::ConstF32(d, _) => want("destination", *d, Ty::F32),
            Instr::ConstF64(d, _) => want("destination", *d, Ty::F64),
            Instr::ConstBool(d, _) => want("destination", *d, Ty::Bool),
            Instr::Mov(d, s) => want("destination", *d, ty(*s)?),
            Instr::Bin {
                op,
                kind,
                dst,
                lhs,
                rhs,
            } => {
                let result = bin_result(*op, *kind)
                    .ok_or_else(|| format!("no operator {op:?} on {kind:?}"))?;
                want("left operand", *lhs, prim(*kind))?;
                want("right operand", *rhs, prim(*kind))?;
                want("destination", *dst, result)
            }
            Instr::Neg { kind, dst, src } => {
                if *kind == PrimKind::Boolean {
                    return Err("no negation on Boolean".into());
                }
                want("operand", *src, prim(*kind))?;
                want("destination", *dst, prim(*kind))
            }
            Instr::Not { dst, src } => {
                want("operand", *src, Ty::Bool)?;
                want("destination", *dst, Ty::Bool)
            }
            Instr::Cast { to, from, dst, src } => {
                if (*to == PrimKind::Boolean) != (*from == PrimKind::Boolean) {
                    return Err(format!("no cast from {from:?} to {to:?}"));
                }
                want("operand", *src, prim(*from))?;
                want("destination", *dst, prim(*to))
            }
            Instr::Jmp(_) => Ok(()),
            Instr::Br { cond, .. } => want("condition", *cond, Ty::Bool),
            Instr::Ret(r) => match (r, f.ret) {
                (Some(r), Some(t)) => want("return value", *r, t),
                (Some(r), None) => Err(format!("returns r{r} from a void function")),
                // A value-less return that ends a non-void function is
                // unreachable in translated code; a caller that reads
                // the result reads a zero of its type.
                (None, _) => Ok(()),
            },
            Instr::Call { func, args, dst } => {
                let callee = self
                    .funcs
                    .get(func.0 as usize)
                    .ok_or_else(|| format!("call to unknown function {}", func.0))?;
                signature(&callee.params, callee.ret, args, *dst, want)
                    .map_err(|m| format!("call to `{}`: {m}", callee.name))
            }
            Instr::CallHost { host, args, dst } => {
                let sig = self
                    .host_fns
                    .get(*host as usize)
                    .ok_or_else(|| format!("call to unknown host fn {host}"))?;
                signature(&sig.params, sig.ret, args, *dst, want)
                    .map_err(|m| format!("host call to `{}`: {m}", sig.name))
            }
            Instr::NewObj { dst, .. } => want("destination", *dst, Ty::Obj),
            Instr::GetField { obj, .. } | Instr::PutField { obj, .. } => {
                want("object", *obj, Ty::Obj)
            }
            Instr::CallVirt { recv, .. } => want("receiver", *recv, Ty::Obj),
            Instr::NewArr { elem, len, dst } | Instr::SharedAlloc { elem, len, dst } => {
                want("length", *len, Ty::I32)?;
                want("destination", *dst, Ty::Arr(*elem))
            }
            Instr::LdArr { arr, idx, dst } => {
                let e = elem("array", *arr)?;
                want("index", *idx, Ty::I32)?;
                want("destination", *dst, e.ty())
            }
            Instr::StArr { arr, idx, src } => {
                let e = elem("array", *arr)?;
                want("index", *idx, Ty::I32)?;
                want("stored value", *src, e.ty())
            }
            Instr::ArrLen { arr, dst } => {
                elem("array", *arr)?;
                want("destination", *dst, Ty::I32)
            }
            Instr::FreeArr { arr } => elem("array", *arr).map(drop),
            Instr::Intrin { op, args, dst } => {
                op.check_operands(args.len(), dst.is_some())?;
                let (params, ret) = intrin_types(*op);
                let check = |what: &str, r: Reg, w: Want| match w {
                    Is(t) => want(what, r, t),
                    AnyArr => elem(what, r).map(drop),
                };
                let checked = (|| {
                    for (r, w) in args.iter().zip(params) {
                        check("operand", *r, *w)?;
                    }
                    match (dst, ret) {
                        (Some(d), Some(w)) => check("result", *d, w)?,
                        (Some(d), None) => return Err(format!("no result, but names r{d}")),
                        (None, _) => {}
                    }
                    match (op, dst) {
                        (IntrinOp::CopyToGpu, Some(d)) => want("device copy", *d, ty(args[0])?),
                        _ => Ok(()),
                    }
                })();
                checked.map_err(|m| format!("{op:?}: {m}"))
            }
            Instr::Launch {
                kernel,
                grid,
                block,
                args,
            } => {
                for r in grid.iter().chain(block) {
                    want("launch dimension", *r, Ty::I32)?;
                }
                let k = self
                    .funcs
                    .get(kernel.0 as usize)
                    .ok_or_else(|| format!("launch of unknown function {}", kernel.0))?;
                signature(&k.params, None, args, None, want)
                    .map_err(|m| format!("launch of `{}`: {m}", k.name))
            }
            Instr::Sync => Ok(()),
        }
    }
}

/// Arguments against a callee's parameters, and its result against the
/// destination.
fn signature(
    params: &[Ty],
    ret: Option<Ty>,
    args: &[Reg],
    dst: Option<Reg>,
    want: impl Fn(&str, Reg, Ty) -> Result<(), String>,
) -> Result<(), String> {
    if params.len() != args.len() {
        return Err(format!(
            "{} args for {} parameters",
            args.len(),
            params.len()
        ));
    }
    for (a, p) in args.iter().zip(params) {
        want("argument", *a, *p)?;
    }
    match (dst, ret) {
        (Some(d), Some(t)) => want("result", d, t),
        (Some(d), None) => Err(format!("no result, but names r{d}")),
        (None, _) => Ok(()),
    }
}

/// Is every register read only where every path from entry has written
/// it? `leaders[pc]` marks the first instruction of each basic block
/// (`leaders[len]` is the function's end). On failure: the pc of a read
/// that some path reaches unwritten, and its register.
fn definitely_assigned(f: &Function, leaders: &[bool]) -> Result<(), (usize, Reg)> {
    let n = f.code.len();
    // Walk 1: the reads a block makes before writing the register (its
    // upward-exposed reads), found with a per-register stamp of the last
    // block that wrote it, so nothing is cleared between blocks. Every
    // path runs the entry block whole before any other, so what it writes
    // (like the parameters) is written for every later read: `ALWAYS`.
    const ALWAYS: u32 = u32::MAX - 1;
    let mut stamp = vec![u32::MAX; f.regs.len()];
    stamp[..f.params.len().min(f.regs.len())].fill(ALWAYS);
    let mut block_of = vec![0u32; n];
    let mut exposed: Vec<(u32, usize, Reg)> = Vec::new();
    let mut block = 0u32;
    for (pc, ins) in f.code.iter().enumerate() {
        if leaders[pc] && pc > 0 {
            block += 1;
        }
        block_of[pc] = block;
        ins.for_each_source(|r| match stamp.get(r as usize) {
            Some(&s) if s == block || s == ALWAYS => {}
            _ => exposed.push((block, pc, r)),
        });
        if let Some(s) = ins.dst().and_then(|d| stamp.get_mut(d as usize)) {
            if *s != ALWAYS {
                *s = if block == 0 { ALWAYS } else { block };
            }
        }
    }
    if exposed.is_empty() {
        return Ok(());
    }
    let blocks = block as usize + 1;

    // The candidates: registers some block reads before writing. Each
    // gets a bit; the sets are a few words.
    let mut bit = vec![u32::MAX; f.regs.len()];
    let mut count = 0u32;
    for &(_, _, r) in &exposed {
        if bit[r as usize] == u32::MAX {
            bit[r as usize] = count;
            count += 1;
        }
    }
    let words = (count as usize).div_ceil(64);
    let set =
        |sets: &mut [u64], b: usize, i: u32| sets[b * words + i as usize / 64] |= 1 << (i % 64);
    let has =
        |sets: &[u64], b: usize, i: u32| sets[b * words + i as usize / 64] >> (i % 64) & 1 == 1;

    // Walk 2: what each block writes of the candidates, and where control
    // goes after it.
    let mut gen = vec![0u64; blocks * words];
    let mut succs: Vec<[u32; 2]> = vec![[u32::MAX; 2]; blocks];
    for (pc, ins) in f.code.iter().enumerate() {
        let b = block_of[pc] as usize;
        if let Some(i) = ins
            .dst()
            .and_then(|d| bit.get(d as usize))
            .filter(|i| **i != u32::MAX)
        {
            set(&mut gen, b, *i);
        }
        let to = |t: u32| {
            // A jump to the end falls off the function: no successor.
            if (t as usize) < n {
                block_of[t as usize]
            } else {
                u32::MAX
            }
        };
        match ins {
            Instr::Jmp(t) => succs[b] = [to(*t), u32::MAX],
            Instr::Br { t, f: e, .. } => succs[b] = [to(*t), to(*e)],
            Instr::Ret(_) => {}
            _ if leaders[pc + 1] => succs[b] = [to(pc as u32 + 1), u32::MAX],
            _ => {}
        }
    }

    // Must-analysis to a fixed point: what is written on entry to each
    // block, by every path. The entry block starts with nothing (the
    // parameters are not candidates); every other block starts with
    // everything, so a block no path reaches constrains nothing.
    let mut ins = vec![u64::MAX; blocks * words];
    ins[..words].fill(0);
    let mut visited = vec![false; blocks];
    visited[0] = true;
    let mut changed = true;
    let mut out = vec![0u64; words];
    while changed {
        changed = false;
        for b in 0..blocks {
            if !visited[b] {
                continue;
            }
            for w in 0..words {
                out[w] = ins[b * words + w] | gen[b * words + w];
            }
            for s in succs[b] {
                if s == u32::MAX {
                    continue;
                }
                let s = s as usize;
                changed |= !visited[s];
                visited[s] = true;
                for w in 0..words {
                    let met = ins[s * words + w] & out[w];
                    changed |= met != ins[s * words + w];
                    ins[s * words + w] = met;
                }
            }
        }
    }
    for (b, pc, r) in exposed {
        let b = b as usize;
        if visited[b] && !has(&ins, b, bit[r as usize]) {
            return Err((pc, r));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FuncKind, HostFnSig};

    // The parameters of every test function, by register.
    const I: Reg = 0; // i32
    const X: Reg = 1; // f32
    const B: Reg = 2; // bool
    const A: Reg = 3; // float[]
    const O: Reg = 4; // Obj
    const L: Reg = 5; // i64

    /// A program whose function 1, `f(i32, f32, bool, float[], Obj, i64)`
    /// returning `i32`, runs `body` at pc 0 and then returns `i`; function
    /// 0 is `g(i32, f32) -> f32`, function 2 a kernel `k(i32)`, and host
    /// function 0 is `h(f32) -> f32`.
    fn program(body: Instr) -> Program {
        let mut p = Program::default();
        let mut g =
            crate::FuncBuilder::new("g", vec![Ty::I32, Ty::F32], Some(Ty::F32), FuncKind::Host);
        g.emit(Instr::Ret(Some(1)));
        p.add_func(g.finish().unwrap());
        let params = vec![
            Ty::I32,
            Ty::F32,
            Ty::Bool,
            Ty::Arr(ElemTy::F32),
            Ty::Obj,
            Ty::I64,
        ];
        let mut f = crate::FuncBuilder::new("f", params, Some(Ty::I32), FuncKind::Host);
        f.emit(body);
        f.emit(Instr::Ret(Some(I)));
        p.add_func(f.finish().unwrap());
        let mut k = crate::FuncBuilder::new("k", vec![Ty::I32], None, FuncKind::Kernel);
        k.emit(Instr::Ret(None));
        p.add_func(k.finish().unwrap());
        p.host_fns.push(HostFnSig {
            name: "h".into(),
            params: vec![Ty::F32],
            ret: Some(Ty::F32),
        });
        p.classes.push(crate::ClassMeta {
            name: "C".into(),
            field_count: 1,
            vtable: vec![],
        });
        p.selectors.push("m".into());
        p
    }

    fn bin(op: BinOp, kind: PrimKind, dst: Reg, lhs: Reg, rhs: Reg) -> Instr {
        Instr::Bin {
            op,
            kind,
            dst,
            lhs,
            rhs,
        }
    }

    #[test]
    fn the_verifier_accepts_well_typed_instructions() {
        let ok = [
            bin(BinOp::Add, PrimKind::Int, I, I, I),
            bin(BinOp::Lt, PrimKind::Float, B, X, X),
            bin(BinOp::And, PrimKind::Boolean, B, B, B),
            Instr::Cast {
                to: PrimKind::Float,
                from: PrimKind::Long,
                dst: X,
                src: L,
            },
            Instr::LdArr {
                arr: A,
                idx: I,
                dst: X,
            },
            Instr::Call {
                func: FuncId(0),
                args: vec![I, X],
                dst: Some(X),
            },
            Instr::Intrin {
                op: IntrinOp::CopyToGpu,
                args: vec![A],
                dst: Some(A),
            },
        ];
        for ins in ok {
            let p = program(ins.clone());
            p.validate().unwrap();
            p.verify().unwrap_or_else(|e| panic!("{ins:?}: {e}"));
        }
    }

    /// One rejecting row per operand rule: the instruction at pc 0 of `f`
    /// and what the message says.
    #[test]
    fn the_verifier_rejects_one_row_per_operand_rule() {
        use Instr as N;
        let rows: Vec<(Instr, &str)> = vec![
            (N::ConstF32(I, 1.0), "destination r0 is I32, expected F32"),
            (N::Mov(I, X), "destination r0 is I32, expected F32"),
            (
                bin(BinOp::Add, PrimKind::Int, I, X, I),
                "left operand r1 is F32",
            ),
            (
                bin(BinOp::Add, PrimKind::Int, I, I, X),
                "right operand r1 is F32",
            ),
            (
                bin(BinOp::Lt, PrimKind::Int, I, I, I),
                "destination r0 is I32, expected Bool",
            ),
            (
                bin(BinOp::And, PrimKind::Int, I, I, I),
                "no operator And on Int",
            ),
            (
                bin(BinOp::BitXor, PrimKind::Float, X, X, X),
                "no operator BitXor on Float",
            ),
            (
                N::Neg {
                    kind: PrimKind::Boolean,
                    dst: B,
                    src: B,
                },
                "no negation on Boolean",
            ),
            (
                N::Neg {
                    kind: PrimKind::Float,
                    dst: X,
                    src: I,
                },
                "operand r0 is I32, expected F32",
            ),
            (
                N::Not { dst: B, src: I },
                "operand r0 is I32, expected Bool",
            ),
            (
                N::Cast {
                    to: PrimKind::Boolean,
                    from: PrimKind::Int,
                    dst: B,
                    src: I,
                },
                "no cast from Int to Boolean",
            ),
            (
                N::Cast {
                    to: PrimKind::Float,
                    from: PrimKind::Int,
                    dst: X,
                    src: L,
                },
                "operand r5 is I64, expected I32",
            ),
            (
                N::Br {
                    cond: I,
                    t: 1,
                    f: 1,
                },
                "condition r0 is I32, expected Bool",
            ),
            (N::Ret(Some(X)), "return value r1 is F32, expected I32"),
            (
                N::Call {
                    func: FuncId(0),
                    args: vec![I],
                    dst: None,
                },
                "call to `g`: 1 args for 2 parameters",
            ),
            (
                N::Call {
                    func: FuncId(0),
                    args: vec![X, I],
                    dst: None,
                },
                "call to `g`: argument r1 is F32, expected I32",
            ),
            (
                N::Call {
                    func: FuncId(0),
                    args: vec![I, X],
                    dst: Some(I),
                },
                "call to `g`: result r0 is I32, expected F32",
            ),
            (
                N::Call {
                    func: FuncId(2),
                    args: vec![I],
                    dst: Some(I),
                },
                "call to `k`: no result, but names r0",
            ),
            (
                N::CallHost {
                    host: 0,
                    args: vec![I],
                    dst: None,
                },
                "host call to `h`: argument r0 is I32, expected F32",
            ),
            (
                N::NewObj { class: 0, dst: I },
                "destination r0 is I32, expected Obj",
            ),
            (
                N::GetField {
                    obj: A,
                    slot: 0,
                    dst: I,
                },
                "object r3 is Arr(F32), expected Obj",
            ),
            (
                N::CallVirt {
                    selector: 0,
                    recv: I,
                    args: vec![],
                    dst: None,
                },
                "receiver r0 is I32, expected Obj",
            ),
            (
                N::NewArr {
                    elem: ElemTy::F32,
                    len: L,
                    dst: A,
                },
                "length r5 is I64, expected I32",
            ),
            (
                N::NewArr {
                    elem: ElemTy::I32,
                    len: I,
                    dst: A,
                },
                "destination r3 is Arr(F32), expected Arr(I32)",
            ),
            (
                N::LdArr {
                    arr: O,
                    idx: I,
                    dst: X,
                },
                "array r4 is Obj, expected an array",
            ),
            (
                N::LdArr {
                    arr: A,
                    idx: L,
                    dst: X,
                },
                "index r5 is I64, expected I32",
            ),
            (
                N::LdArr {
                    arr: A,
                    idx: I,
                    dst: I,
                },
                "destination r0 is I32, expected F32",
            ),
            (
                N::StArr {
                    arr: A,
                    idx: I,
                    src: I,
                },
                "stored value r0 is I32, expected F32",
            ),
            (
                N::ArrLen { arr: A, dst: X },
                "destination r1 is F32, expected I32",
            ),
            (N::FreeArr { arr: I }, "array r0 is I32, expected an array"),
            (
                N::Intrin {
                    op: IntrinOp::SqrtF32,
                    args: vec![I],
                    dst: Some(X),
                },
                "SqrtF32: operand r0 is I32, expected F32",
            ),
            (
                N::Intrin {
                    op: IntrinOp::MpiRank,
                    args: vec![],
                    dst: Some(X),
                },
                "MpiRank: result r1 is F32, expected I32",
            ),
            (
                N::Intrin {
                    op: IntrinOp::PrintI32,
                    args: vec![I],
                    dst: Some(I),
                },
                "PrintI32: no result, but names r0",
            ),
            (
                N::Intrin {
                    op: IntrinOp::CopyToGpu,
                    args: vec![A],
                    dst: Some(O),
                },
                "CopyToGpu: result r4 is Obj, expected an array",
            ),
            (
                N::Launch {
                    kernel: FuncId(2),
                    grid: [I, I, L],
                    block: [I, I, I],
                    args: vec![I],
                },
                "launch dimension r5 is I64, expected I32",
            ),
            (
                N::Launch {
                    kernel: FuncId(2),
                    grid: [I; 3],
                    block: [I; 3],
                    args: vec![X],
                },
                "launch of `k`: argument r1 is F32, expected I32",
            ),
        ];
        for (ins, message) in rows {
            let p = program(ins.clone());
            let e = p.verify().expect_err(message);
            assert_eq!((e.func.as_str(), e.pc), ("f", 0), "{ins:?}: {e}");
            assert!(e.message.contains(message), "{ins:?}: {e}");
        }
    }

    /// A register written on one path only is refused where the join
    /// reads it; written on both, or only read where it was written, it
    /// passes. A block no path reaches constrains nothing.
    #[test]
    fn definite_assignment_needs_a_write_on_every_path() {
        // f(c: bool) -> i32 { if c { r = 1 } [else { r = 2 }] return r }
        let diamond = |both: bool, unreachable_read: bool| {
            let mut fb =
                crate::FuncBuilder::new("f", vec![Ty::Bool], Some(Ty::I32), FuncKind::Host);
            let r = fb.reg(Ty::I32);
            let (t, e, join) = (fb.label(), fb.label(), fb.label());
            fb.br(0, t, e);
            fb.bind(t);
            fb.emit(Instr::ConstI32(r, 1));
            fb.jmp(join);
            fb.bind(e);
            if both {
                fb.emit(Instr::ConstI32(r, 2));
            }
            fb.bind(join);
            fb.emit(Instr::Ret(Some(r)));
            if unreachable_read {
                let u = fb.reg(Ty::I32);
                fb.emit(Instr::Ret(Some(u)));
            }
            let mut p = Program::default();
            p.add_func(fb.finish().unwrap());
            p.validate().unwrap();
            p
        };
        let e = diamond(false, false).verify().unwrap_err();
        assert_eq!(
            (e.pc, e.message.as_str()),
            (3, "r1 may be read before it is written")
        );
        diamond(true, false).verify().unwrap();
        diamond(true, true).verify().unwrap();

        // A loop that reads, then writes: the first iteration reads it
        // unwritten, although the back edge carries a write.
        let mut fb = crate::FuncBuilder::new("f", vec![Ty::Bool], Some(Ty::I32), FuncKind::Host);
        let (acc, r) = (fb.reg(Ty::I32), fb.reg(Ty::I32));
        fb.emit(Instr::ConstI32(acc, 0));
        let (head, done) = (fb.label(), fb.label());
        fb.bind(head);
        fb.emit(bin(BinOp::Add, PrimKind::Int, acc, acc, r));
        fb.emit(Instr::ConstI32(r, 1));
        fb.br(0, head, done);
        fb.bind(done);
        fb.emit(Instr::Ret(Some(acc)));
        let mut p = Program::default();
        p.add_func(fb.finish().unwrap());
        let e = p.verify().unwrap_err();
        assert_eq!(
            (e.pc, e.message.as_str()),
            (1, "r2 may be read before it is written")
        );
    }
}

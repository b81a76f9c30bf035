//! The NIR checker: the paper's §3.3 static analysis, run once on NIR.
//!
//! Under the coding rules "a simple static analysis determines the exact
//! dynamic type of every object" before the program runs. NIR declares
//! each register's type in [`Function::regs`]; [`Program::verify`] checks
//! that the program is well formed, that every instruction agrees with
//! those declarations, and that every register is written on every path
//! before it is read. A program it accepts can run on untagged registers:
//! `exec` stores each register as one 64-bit word and re-decides no type
//! in its dispatch loop, and [`crate::emit_c`] renders it without a
//! placeholder.
//!
//! One walk makes the structural and the type checks, instruction by
//! instruction, in the sweep that finds the block leaders, and the
//! definite-assignment analysis runs only on a function that walk
//! accepted, so it only ever indexes what exists. The structural checks:
//!
//! * every source and destination register is in range (read where the
//!   instruction's match arm types it, with no second dispatch on the
//!   instruction), and the parameter registers are the parameters'
//!   types;
//! * jump and branch targets are in range (`code.len()` included: the
//!   function's end), and the last instruction is a `ret`, `jmp` or `br`;
//! * callees, host functions, selectors and classes exist, and calls and
//!   host calls pass as many arguments as the callee takes;
//! * an intrinsic has a row of [`crate::INTRINSICS`] (no coordinate
//!   axis past `z`) and that row's arity and result;
//! * placement: kernel and device code calls no host function, only host
//!   code launches, and only kernels; `Sync` and `SharedAlloc` appear only
//!   in kernels;
//! * the program's `entry`, if set, names a function.
//!
//! The type checks, per instruction:
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
//! * intrinsics: the operand and result types of the op's row;
//! * object operands: receivers, fields' objects and `NewObj` results
//!   are `Obj` (field values and a virtual call's arguments are checked
//!   at run time, where the class is known).
//!
//! Definite assignment is a must-analysis over basic blocks, run only on
//! the registers some block reads before writing them (parameters are
//! written at entry). Translated code rarely has any, so the usual cost
//! is the type walk plus one walk that finds none.
//!
//! It never panics: whatever a program holds, a defect is a
//! [`VerifyError`].

use crate::cfg::{self, Cfg, NONE};
use crate::intrin::{IntrinOp, IntrinTy};
use crate::ir::{FuncId, FuncKind, Function, Instr, Program, Reg, Ty};
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use std::fmt;

/// Why a program failed verification, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The function's name; empty when the program as a whole is at
    /// fault (its `entry` names no function).
    pub func: String,
    /// The offending instruction. A function's parameter registers are
    /// checked at pc 0, code that falls off its end fails at `code.len()`
    /// (one past its last instruction), and a program-level failure is
    /// at pc 0.
    pub pc: u32,
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.func.is_empty() {
            return write!(f, "program: {}", self.message);
        }
        write!(
            f,
            "function `{}` pc {}: {}",
            self.func, self.pc, self.message
        )
    }
}

impl std::error::Error for VerifyError {}

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
    /// Verify every function, then the entry (see the module docs).
    pub fn verify(&self) -> Result<(), VerifyError> {
        self.verify_with_replayed(&[])
    }

    /// [`verify`](Program::verify) a program some of whose functions,
    /// `replayed`, were verified before and are unchanged (an incremental
    /// translation's memos). Of those only the calls, host calls and
    /// launches are checked, against the callees this program has now.
    pub fn verify_with_replayed(&self, replayed: &[FuncId]) -> Result<(), VerifyError> {
        let mut whole = vec![true; self.funcs.len()];
        for id in replayed {
            if let Some(w) = whole.get_mut(id.0 as usize) {
                *w = false;
            }
        }
        for (f, whole) in self.funcs.iter().zip(whole) {
            if whole {
                self.verify_func(f)?;
            } else {
                self.verify_edges(f)?;
            }
        }
        match self.entry {
            Some(e) if e.0 as usize >= self.funcs.len() => Err(VerifyError {
                func: String::new(),
                pc: 0,
                message: format!(
                    "entry function {} out of range ({} functions)",
                    e.0,
                    self.funcs.len()
                ),
            }),
            _ => Ok(()),
        }
    }

    /// [`verify`](Program::verify), under the name the frozen benchmark
    /// (`benchmark/`) still calls, with the error as text; ROADMAP item
    /// 4 (e) deletes it with the next change to the benchmark.
    #[doc(hidden)]
    pub fn validate(&self) -> Result<(), String> {
        self.verify().map_err(|e| e.to_string())
    }

    /// Verify one function against its own declarations and its callees'
    /// signatures.
    fn verify_func(&self, f: &Function) -> Result<(), VerifyError> {
        let fail = |pc: usize, message: String| failure(f, pc, message);
        if f.params.len() > f.regs.len() {
            let (p, r) = (f.params.len(), f.regs.len());
            return Err(fail(0, format!("{p} parameters but {r} registers")));
        }
        if let Some(i) = (0..f.params.len()).find(|&i| f.regs[i] != f.params[i]) {
            let (p, r) = (f.params[i], f.regs[i]);
            return Err(fail(
                0,
                format!("parameter {i} is {p:?}, its register {r:?}"),
            ));
        }
        // The sweep that finds the leaders checks each instruction before
        // its targets.
        let leader = cfg::leaders(
            &f.code,
            |pc, ins| self.check_instr(f, ins).map_err(|m| fail(pc, m)),
            |pc, t| fail(pc, format!("jump target {t} out of range")),
        )?;
        if !f.code.last().is_some_and(Instr::ends_block) {
            let message = "falls off its end: the last instruction is not ret, jmp or br";
            return Err(fail(f.code.len(), message.into()));
        }
        definitely_assigned(f, &Cfg::new(&f.code, &leader))
            .map_err(|(pc, r)| fail(pc, format!("r{r} may be read before it is written")))
    }

    /// Check only the calls, host calls and launches of `f`, a function
    /// verified before, against this program's callees.
    fn verify_edges(&self, f: &Function) -> Result<(), VerifyError> {
        for (pc, ins) in f.code.iter().enumerate() {
            if let Instr::Call { .. } | Instr::CallHost { .. } | Instr::Launch { .. } = ins {
                self.check_instr(f, ins).map_err(|m| failure(f, pc, m))?;
            }
        }
        Ok(())
    }

    /// The checks of one instruction; the message names the operand.
    /// Every register operand is range-checked as it is read.
    fn check_instr(&self, f: &Function, ins: &Instr) -> Result<(), String> {
        let ty = |r: Reg| {
            f.regs
                .get(r as usize)
                .copied()
                .ok_or_else(|| format!("register r{r} out of range ({} registers)", f.regs.len()))
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
                if f.kind != FuncKind::Host && callee.kind == FuncKind::Host {
                    return Err(format!(
                        "{:?} code calls host function `{}`",
                        f.kind, callee.name
                    ));
                }
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
            Instr::NewObj { class, dst } => {
                if *class as usize >= self.classes.len() {
                    return Err(format!("new of unknown class {class}"));
                }
                want("destination", *dst, Ty::Obj)
            }
            // A field's value and a virtual call's arguments and result
            // are typed at run time, where the class is known.
            Instr::GetField { obj, dst: r, .. } | Instr::PutField { obj, src: r, .. } => {
                ty(*r)?;
                want("object", *obj, Ty::Obj)
            }
            Instr::CallVirt {
                selector,
                recv,
                args,
                dst,
            } => {
                if *selector as usize >= self.selectors.len() {
                    return Err(format!("unknown selector {selector}"));
                }
                for r in args.iter().chain(dst) {
                    ty(*r)?;
                }
                want("receiver", *recv, Ty::Obj)
            }
            Instr::SharedAlloc { .. } | Instr::Sync if f.kind != FuncKind::Kernel => {
                Err("SharedAlloc and Sync belong in kernels".into())
            }
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
                let row = op.check_operands(args.len(), dst.is_some())?;
                let check = |what: &str, r: Reg, w: IntrinTy| match w {
                    IntrinTy::Is(t) => want(what, r, t),
                    IntrinTy::AnyArr => elem(what, r).map(drop),
                };
                let checked = (|| {
                    for (r, w) in args.iter().zip(row.params) {
                        check("operand", *r, *w)?;
                    }
                    match (dst, row.ret) {
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
                if f.kind != FuncKind::Host {
                    return Err(format!("launch from {:?} code", f.kind));
                }
                for r in grid.iter().chain(block) {
                    want("launch dimension", *r, Ty::I32)?;
                }
                let k = self
                    .funcs
                    .get(kernel.0 as usize)
                    .ok_or_else(|| format!("launch of unknown function {}", kernel.0))?;
                if k.kind != FuncKind::Kernel {
                    return Err(format!("launch of {:?} function `{}`", k.kind, k.name));
                }
                signature(&k.params, None, args, None, want)
                    .map_err(|m| format!("launch of `{}`: {m}", k.name))
            }
            Instr::Sync => Ok(()),
            // What is left loads a constant of its value's type.
            _ => match (ins.dst(), ins.const_val()) {
                (Some(d), Some(v)) => want("destination", d, v.ty()),
                _ => Err(format!("unknown instruction {ins:?}")),
            },
        }
    }
}

/// A [`VerifyError`] at `pc` of `f`.
fn failure(f: &Function, pc: usize, message: String) -> VerifyError {
    VerifyError {
        func: f.name.clone(),
        pc: pc as u32,
        message,
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
/// it? On failure: the pc of a read that some path reaches unwritten, and
/// its register.
pub(crate) fn definitely_assigned(f: &Function, cfg: &Cfg) -> Result<(), (usize, Reg)> {
    // Walk 1: the reads a block makes before writing the register (its
    // upward-exposed reads), found with a per-register stamp of the last
    // block that wrote it, so nothing is cleared between blocks. Every
    // path runs the entry block whole before any other, so what it writes
    // (like the parameters) is written for every later read: `ALWAYS`.
    const ALWAYS: u32 = u32::MAX - 1;
    let mut stamp = vec![u32::MAX; f.regs.len()];
    stamp[..f.params.len().min(f.regs.len())].fill(ALWAYS);
    let mut exposed: Vec<(u32, usize, Reg)> = Vec::new();
    for (pc, (ins, &block)) in f.code.iter().zip(&cfg.block).enumerate() {
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
    let blocks = cfg.succs.len();

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

    // Walk 2: what each block writes of the candidates.
    let mut gen = vec![0u64; blocks * words];
    for (ins, &b) in f.code.iter().zip(&cfg.block) {
        if let Some(i) = ins
            .dst()
            .and_then(|d| bit.get(d as usize))
            .filter(|i| **i != u32::MAX)
        {
            set(&mut gen, b as usize, *i);
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
            for s in cfg.succs[b] {
                if s == NONE {
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
    use crate::ir::{ElemTy, FuncKind, HostFnSig};

    // The parameters of every test function, by register.
    const I: Reg = 0; // i32
    const X: Reg = 1; // f32
    const B: Reg = 2; // bool
    const A: Reg = 3; // float[]
    const O: Reg = 4; // Obj
    const L: Reg = 5; // i64
    const D: Reg = 6; // f64

    /// A program whose function 1, `f(i32, f32, bool, float[], Obj, i64,
    /// f64)` returning `i32`, runs `body` at pc 0 and then returns `i`; function
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
            Ty::F64,
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

    /// At each pc the instruction's own check comes before its targets'
    /// range check, and the first failing pc is the one reported: a type
    /// error at pc 1 wins over a jump out of range at pc 3, which wins
    /// over a type error after it, and an ill-typed branch out of range
    /// reports its type error.
    #[test]
    fn the_first_failing_pc_is_reported() {
        let f = |code: Vec<Instr>| {
            edited(Instr::Sync, |p| p.func_mut(FuncId(1)).code = code)
                .verify()
                .unwrap_err()
        };
        let ill_typed = Instr::Mov(I, X);
        let e = f(vec![
            Instr::Jmp(1),
            ill_typed.clone(),
            Instr::ConstI32(I, 0),
            Instr::Jmp(99),
            Instr::Ret(Some(I)),
        ]);
        assert_eq!(e.pc, 1, "{e}");
        assert!(e.message.contains("destination r0 is I32"), "{e}");
        let e = f(vec![
            Instr::Jmp(1),
            Instr::Br {
                cond: B,
                t: 2,
                f: 99,
            },
            ill_typed,
            Instr::Ret(Some(I)),
        ]);
        assert_eq!(
            (e.pc, e.message.as_str()),
            (1, "jump target 99 out of range")
        );
        // One pc, both faults: the branch's own check is reported.
        let e = f(vec![Instr::Br {
            cond: I,
            t: 99,
            f: 0,
        }]);
        assert_eq!(
            (e.pc, e.message.as_str()),
            (0, "condition r0 is I32, expected Bool")
        );
    }

    /// Every intrinsic: one per row of the table.
    fn every_intrinsic() -> impl Iterator<Item = IntrinOp> {
        crate::INTRINSICS.iter().map(|r| r.op)
    }

    /// `fn f(<operands>, <result>, i32) { <intrinsic>; return }`: the
    /// parameters are `op`'s operand types, its result type if it has
    /// one, and a spare `i32`. `edit` gets the well-formed operands
    /// (r0..) and destination to change.
    fn intrinsic(op: IntrinOp, edit: impl FnOnce(&mut Vec<Reg>, &mut Option<Reg>)) -> Program {
        let of = |w: &IntrinTy| match w {
            IntrinTy::Is(t) => *t,
            IntrinTy::AnyArr => Ty::Arr(ElemTy::F32),
        };
        let row = op.row().unwrap();
        let (operands, result) = (row.params, row.ret);
        let mut params: Vec<Ty> = operands.iter().map(of).collect();
        params.extend(result.as_ref().map(of));
        params.push(Ty::I32);
        let mut args: Vec<Reg> = (0..operands.len() as Reg).collect();
        let mut dst = result.map(|_| operands.len() as Reg);
        edit(&mut args, &mut dst);
        let mut fb = crate::FuncBuilder::new("f", params, None, FuncKind::Host);
        fb.emit(Instr::Intrin { op, args, dst });
        fb.emit(Instr::Ret(None));
        let mut p = Program::default();
        p.add_func(fb.finish().unwrap());
        p
    }

    /// Every intrinsic at a wrong shape, with the words its error names:
    /// each operand dropped, one too many (the spare register), a
    /// missing destination, then `exec`'s image decoder's own rows. Each
    /// is [`intrinsic`]'s well-typed program but for that one defect.
    fn misshapen_intrinsics() -> Vec<(String, &'static str, Program)> {
        let mut rows = vec![];
        for op in every_intrinsic() {
            let row = op.row().unwrap();
            let (arity, returns) = (row.params.len(), row.ret.is_some());
            for i in 0..arity {
                let p = intrinsic(op, |args, _| {
                    args.remove(i);
                });
                rows.push((format!("{op:?} without operand {i}"), "operands", p));
            }
            let spare = (arity + usize::from(returns)) as Reg;
            let p = intrinsic(op, |args, _| args.push(spare));
            rows.push((format!("{op:?} with an extra operand"), "operands", p));
            if returns {
                let p = intrinsic(op, |_, dst| *dst = None);
                rows.push((format!("{op:?} without a destination"), "no destination", p));
            }
        }
        for (op, n) in [
            (IntrinOp::MpiSendRecvF32, 3),
            (IntrinOp::ArrayCopyF32, 2),
            (IntrinOp::CopyFromGpuRange, 1),
        ] {
            let p = intrinsic(op, |args, _| args.truncate(n));
            rows.push((format!("{op:?} with {n} operands"), "operands", p));
        }
        rows
    }

    /// Each intrinsic at its shape and operand types verifies and renders
    /// as C; at every wrong shape it is refused at its pc with what is
    /// wrong, and rendered unverified it is a comment, not a panic.
    #[test]
    fn every_intrinsic_verifies_at_its_shape_and_emit_c_renders_it() {
        for op in every_intrinsic() {
            let ok = intrinsic(op, |_, _| {});
            ok.verify()
                .unwrap_or_else(|e| panic!("{op:?} well formed: {e}"));
            let c = crate::emit_c(&ok);
            assert!(!c.contains("/* intrinsic"), "{op:?}: {c}");
        }
        for (why, what, p) in misshapen_intrinsics() {
            let e = p.verify().unwrap_err();
            assert_eq!((e.func.as_str(), e.pc), ("f", 0), "{why}: {e}");
            assert!(e.message.contains(what), "{why}: {e}");
            assert!(crate::emit_c(&p).contains("/* intrinsic"), "{why}");
        }
    }

    /// [`program`] with `edit` applied.
    fn edited(body: Instr, edit: impl FnOnce(&mut Program)) -> Program {
        let mut p = program(body);
        edit(&mut p);
        p
    }

    /// [`program`] whose kernel `k(i32)` (function 2) runs `body` with
    /// one more register, an `f32` (r1), and then returns.
    fn in_kernel(body: Vec<Instr>) -> Program {
        edited(Instr::Ret(Some(I)), |p| {
            let k = p.func_mut(FuncId(2));
            k.regs.push(Ty::F32);
            k.code = body;
            k.code.push(Instr::Ret(None));
        })
    }

    /// Every program the checker must refuse, with why. Each row is well
    /// typed and definitely assigned but for its one defect, so a check
    /// dropped from the checker lets its row through.
    fn rejected() -> Vec<(String, Program)> {
        use Instr as N;
        const R: Reg = 999;
        let at = |ins: Instr| program(ins);
        let rows: Vec<(&str, Program)> = vec![
            // One out-of-range register per instruction variant that
            // names one (`Jmp` and `Sync` name none).
            ("const i32 destination", at(N::ConstI32(R, 1))),
            ("const i64 destination", at(N::ConstI64(R, 1))),
            ("const f32 destination", at(N::ConstF32(R, 1.0))),
            ("const f64 destination", at(N::ConstF64(R, 1.0))),
            ("const bool destination", at(N::ConstBool(R, true))),
            ("move source", at(N::Mov(I, R))),
            (
                "bin destination",
                at(bin(BinOp::Add, PrimKind::Int, R, I, I)),
            ),
            (
                "neg source",
                at(N::Neg {
                    kind: PrimKind::Int,
                    dst: I,
                    src: R,
                }),
            ),
            ("not destination", at(N::Not { dst: R, src: B })),
            (
                "cast destination",
                at(N::Cast {
                    to: PrimKind::Float,
                    from: PrimKind::Int,
                    dst: R,
                    src: I,
                }),
            ),
            (
                "branch condition",
                at(N::Br {
                    cond: R,
                    t: 1,
                    f: 1,
                }),
            ),
            ("return value", at(N::Ret(Some(R)))),
            (
                "call argument",
                at(N::Call {
                    func: FuncId(0),
                    args: vec![I, R],
                    dst: None,
                }),
            ),
            (
                "host call argument",
                at(N::CallHost {
                    host: 0,
                    args: vec![R],
                    dst: None,
                }),
            ),
            ("new object destination", at(N::NewObj { class: 0, dst: R })),
            (
                "field read destination",
                at(N::GetField {
                    obj: O,
                    slot: 0,
                    dst: R,
                }),
            ),
            (
                "field write source",
                at(N::PutField {
                    obj: O,
                    slot: 0,
                    src: R,
                }),
            ),
            (
                "virtual call argument",
                at(N::CallVirt {
                    selector: 0,
                    recv: O,
                    args: vec![R],
                    dst: None,
                }),
            ),
            (
                "virtual call destination",
                at(N::CallVirt {
                    selector: 0,
                    recv: O,
                    args: vec![],
                    dst: Some(R),
                }),
            ),
            (
                "new array destination",
                at(N::NewArr {
                    elem: ElemTy::F32,
                    len: I,
                    dst: R,
                }),
            ),
            (
                "array load destination",
                at(N::LdArr {
                    arr: A,
                    idx: I,
                    dst: R,
                }),
            ),
            (
                "array store index",
                at(N::StArr {
                    arr: A,
                    idx: R,
                    src: X,
                }),
            ),
            ("array length destination", at(N::ArrLen { arr: A, dst: R })),
            ("array free operand", at(N::FreeArr { arr: R })),
            (
                "intrinsic operand",
                at(N::Intrin {
                    op: IntrinOp::PrintI32,
                    args: vec![R],
                    dst: None,
                }),
            ),
            (
                "launch argument",
                at(N::Launch {
                    kernel: FuncId(2),
                    grid: [I; 3],
                    block: [I; 3],
                    args: vec![R],
                }),
            ),
            (
                "shared allocation destination",
                in_kernel(vec![N::SharedAlloc {
                    elem: ElemTy::F32,
                    len: 0,
                    dst: R,
                }]),
            ),
            // Signatures and registers.
            (
                "more parameters than registers",
                edited(N::Ret(Some(I)), |p| p.func_mut(FuncId(1)).regs.truncate(2)),
            ),
            (
                "parameter register of another type",
                edited(N::Ret(Some(I)), |p| p.func_mut(FuncId(1)).regs[1] = Ty::I32),
            ),
            // Control flow.
            ("jump target", at(N::Jmp(99))),
            (
                "branch target",
                at(N::Br {
                    cond: B,
                    t: 99,
                    f: 1,
                }),
            ),
            (
                "no terminator",
                edited(N::ConstI32(I, 0), |p| {
                    p.func_mut(FuncId(1)).code.pop();
                }),
            ),
            (
                "no code",
                edited(N::Ret(Some(I)), |p| p.func_mut(FuncId(1)).code.clear()),
            ),
            (
                "entry out of range",
                edited(N::Ret(Some(I)), |p| p.entry = Some(FuncId(9))),
            ),
            // Calls.
            (
                "call to an unknown function",
                at(N::Call {
                    func: FuncId(7),
                    args: vec![],
                    dst: None,
                }),
            ),
            (
                "call arity",
                at(N::Call {
                    func: FuncId(0),
                    args: vec![I],
                    dst: None,
                }),
            ),
            (
                "kernel calls a host function",
                in_kernel(vec![
                    N::ConstF32(1, 0.0),
                    N::Call {
                        func: FuncId(0),
                        args: vec![0, 1],
                        dst: None,
                    },
                ]),
            ),
            (
                "kernel calls a host function with too few arguments",
                in_kernel(vec![N::Call {
                    func: FuncId(0),
                    args: vec![],
                    dst: None,
                }]),
            ),
            (
                "device function calls a host function",
                edited(N::Ret(Some(I)), |p| {
                    let d = p.func_mut(FuncId(2));
                    d.kind = FuncKind::Device;
                    d.regs.push(Ty::F32);
                    d.code = vec![
                        N::ConstF32(1, 0.0),
                        N::Call {
                            func: FuncId(0),
                            args: vec![0, 1],
                            dst: None,
                        },
                        N::Ret(None),
                    ];
                }),
            ),
            (
                "call to an unknown host function",
                at(N::CallHost {
                    host: 5,
                    args: vec![],
                    dst: None,
                }),
            ),
            (
                "host call arity",
                at(N::CallHost {
                    host: 0,
                    args: vec![],
                    dst: None,
                }),
            ),
            (
                "unknown selector",
                at(N::CallVirt {
                    selector: 5,
                    recv: O,
                    args: vec![],
                    dst: None,
                }),
            ),
            ("unknown class", at(N::NewObj { class: 9, dst: O })),
            // Placement.
            (
                "launch from a kernel",
                in_kernel(vec![N::Launch {
                    kernel: FuncId(2),
                    grid: [0; 3],
                    block: [0; 3],
                    args: vec![0],
                }]),
            ),
            (
                "launch from a device function",
                edited(N::Ret(Some(I)), |p| {
                    let mut d = crate::FuncBuilder::new("d", vec![Ty::I32], None, FuncKind::Device);
                    d.emit(N::Launch {
                        kernel: FuncId(2),
                        grid: [0; 3],
                        block: [0; 3],
                        args: vec![0],
                    });
                    d.emit(N::Ret(None));
                    p.add_func(d.finish().unwrap());
                }),
            ),
            (
                "launch of an unknown function",
                at(N::Launch {
                    kernel: FuncId(9),
                    grid: [I; 3],
                    block: [I; 3],
                    args: vec![],
                }),
            ),
            (
                "launch of a host function",
                at(N::Launch {
                    kernel: FuncId(0),
                    grid: [I; 3],
                    block: [I; 3],
                    args: vec![I, X],
                }),
            ),
            (
                "coordinate axis past z",
                in_kernel(vec![N::Intrin {
                    op: IntrinOp::ThreadIdx(3),
                    args: vec![],
                    dst: Some(I),
                }]),
            ),
            ("barrier outside a kernel", at(N::Sync)),
            (
                "shared allocation outside a kernel",
                at(N::SharedAlloc {
                    elem: ElemTy::F32,
                    len: I,
                    dst: A,
                }),
            ),
        ];
        let mut rows: Vec<(String, Program)> = rows
            .into_iter()
            .map(|(why, p)| (why.to_string(), p))
            .collect();
        rows.extend(
            misshapen_intrinsics()
                .into_iter()
                .map(|(why, _, p)| (why, p)),
        );
        rows
    }

    /// The checker refuses every row with an error, and panics on none.
    #[test]
    fn the_checker_refuses_every_malformed_program_without_panicking() {
        let rows = rejected();
        assert!(rows.len() > 150, "{} rows", rows.len());
        for (why, p) in rows {
            let checked = std::panic::catch_unwind(|| p.verify());
            assert!(matches!(checked, Ok(Err(_))), "{why}: {checked:?}");
        }
    }

    /// Of a replayed function only the calls, host calls and launches
    /// are checked: a call edge that no longer fits its callee is
    /// refused, a body defect it was verified without is not looked at
    /// again.
    #[test]
    fn a_replayed_function_has_its_edges_checked_only() {
        // `f` calls `g(i32, f32)` with the arguments `g` takes.
        let call = Instr::Call {
            func: FuncId(0),
            args: vec![I, X],
            dst: Some(X),
        };
        program(call.clone()).verify().unwrap();
        // `g` takes one parameter now: the replayed caller's edge is stale.
        let stale = edited(call.clone(), |p| {
            let g = p.func_mut(FuncId(0));
            g.params.pop();
            g.regs.pop();
            g.regs.push(Ty::F32);
            g.code = vec![Instr::ConstF32(1, 0.0), Instr::Ret(Some(1))];
        });
        stale.verify_with_replayed(&[]).unwrap_err();
        let e = stale.verify_with_replayed(&[FuncId(1)]).unwrap_err();
        assert_eq!((e.func.as_str(), e.pc), ("f", 0), "{e}");
        assert!(e.message.contains("1 parameters"), "{e}");
        // A body defect of a replayed function is not looked at again.
        let defect = edited(call, |p| {
            p.func_mut(FuncId(1)).code.insert(0, Instr::ConstI32(X, 1));
        });
        defect.verify().unwrap_err();
        defect.verify_with_replayed(&[FuncId(1)]).unwrap();
    }

    /// Every register operand of every instruction variant, one at a
    /// time, out of range: refused, never a panic. The checker reads each
    /// register in the match arm that types it, so this pins that no arm
    /// skips one.
    #[test]
    fn every_register_operand_out_of_range_is_refused() {
        use Instr as N;
        let well_typed = vec![
            N::ConstI32(I, 1),
            N::ConstI64(L, 1),
            N::ConstF32(X, 1.0),
            N::ConstF64(D, 1.0),
            N::ConstBool(B, true),
            N::Mov(I, I),
            bin(BinOp::Add, PrimKind::Int, I, I, I),
            N::Neg {
                kind: PrimKind::Int,
                dst: I,
                src: I,
            },
            N::Not { dst: B, src: B },
            N::Cast {
                to: PrimKind::Float,
                from: PrimKind::Int,
                dst: X,
                src: I,
            },
            N::Br {
                cond: B,
                t: 1,
                f: 1,
            },
            N::Ret(Some(I)),
            N::Call {
                func: FuncId(0),
                args: vec![I, X],
                dst: Some(X),
            },
            N::CallHost {
                host: 0,
                args: vec![X],
                dst: Some(X),
            },
            N::NewObj { class: 0, dst: O },
            N::GetField {
                obj: O,
                slot: 0,
                dst: I,
            },
            N::PutField {
                obj: O,
                slot: 0,
                src: I,
            },
            N::CallVirt {
                selector: 0,
                recv: O,
                args: vec![I],
                dst: Some(I),
            },
            N::NewArr {
                elem: ElemTy::F32,
                len: I,
                dst: A,
            },
            N::LdArr {
                arr: A,
                idx: I,
                dst: X,
            },
            N::StArr {
                arr: A,
                idx: I,
                src: X,
            },
            N::ArrLen { arr: A, dst: I },
            N::FreeArr { arr: A },
            N::Intrin {
                op: IntrinOp::SqrtF32,
                args: vec![X],
                dst: Some(X),
            },
            N::Launch {
                kernel: FuncId(2),
                grid: [I; 3],
                block: [I; 3],
                args: vec![I],
            },
            N::SharedAlloc {
                elem: ElemTy::F32,
                len: I,
                dst: A,
            },
        ];
        for ins in &well_typed {
            // A new variant fails to compile here until it has a row above
            // (`Jmp` and `Sync` name no register).
            match ins {
                N::ConstI32(..) | N::ConstI64(..) | N::ConstF32(..) | N::ConstF64(..) => {}
                N::ConstBool(..) | N::Mov(..) | N::Bin { .. } | N::Neg { .. } | N::Not { .. } => {}
                N::Cast { .. } | N::Br { .. } | N::Ret(_) | N::Call { .. } => {}
                N::CallHost { .. } | N::NewObj { .. } | N::GetField { .. } => {}
                N::PutField { .. } | N::CallVirt { .. } | N::NewArr { .. } | N::LdArr { .. } => {}
                N::StArr { .. } | N::ArrLen { .. } | N::FreeArr { .. } | N::Intrin { .. } => {}
                N::Launch { .. } | N::SharedAlloc { .. } | N::Jmp(_) | N::Sync => {}
            }
        }
        let at = |ins: Instr| {
            let kernel = matches!(ins, N::SharedAlloc { .. });
            edited(ins, |p| {
                if kernel {
                    p.func_mut(FuncId(1)).kind = FuncKind::Kernel;
                }
            })
        };
        for ins in well_typed {
            at(ins.clone())
                .verify()
                .unwrap_or_else(|e| panic!("{ins:?}: {e}"));
            let mut bad = Vec::new();
            for i in 0..ins.sources().len() {
                let mut one = ins.clone();
                let mut k = 0;
                one.for_each_source_mut(|r| {
                    if k == i {
                        *r = 999;
                    }
                    k += 1;
                });
                bad.push(one);
            }
            if ins.dst().is_some() {
                let mut one = ins.clone();
                *one.dst_mut().unwrap() = 999;
                bad.push(one);
            }
            for one in bad {
                let p = at(one.clone());
                let checked = std::panic::catch_unwind(|| p.verify());
                match checked {
                    Ok(Err(e)) => assert!(e.message.contains("r999 out of range"), "{one:?}: {e}"),
                    other => panic!("{one:?}: {other:?}"),
                }
            }
        }
    }
}

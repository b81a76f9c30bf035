//! The body walk: how each Java statement and expression becomes NIR,
//! written once for every mode.
//!
//! The shaped lowerer ([`Lowerer`], Devirt and Full) and the
//! virtual-dispatch one ([`VirtLowerer`], Virtual) hold different values —
//! a shaped operand with one register per leaf, or one register — and
//! mean different things by a local, a field, `this`, `return`, a call,
//! `new`, a reference cast, a `super(...)` call and a field initializer.
//! Those are the hooks of [`Lower`]. Every other construct is lowered
//! here: control flow, arrays, literals and `static final` constants,
//! operators, numeric casts, the refusal of the constructs the coding
//! rules forbid, and the order a constructor chain runs in ([`ctor`]).
//! A scalar's kind comes from its
//! node's type in the typed AST; of a value the walk needs only its one
//! register ([`Lower::reg`]) and a way to wrap a fresh one
//! ([`Lower::scalar`]).
//!
//! [`Lowerer`]: crate::lower::Lowerer
//! [`VirtLowerer`]: crate::virt::VirtLowerer

use std::collections::HashMap;

use jlang::ast::{BinOp, UnOp};
use jlang::table::{ClassTable, CtorInfo};
use jlang::tast::{FieldSel, MethodSel, TArgs, TBlock, TBody, TExpr, TExprId, TStmt, TStmtId};
use jlang::types::{ClassId, PrimKind, Type};
use nir::{FuncBuilder, Instr, Label, Reg, Ty};

use crate::lower::const_eval;
use crate::shape::{decl_ty, elem_ty_of, expr_kind, TransError};
use crate::TResult;

/// What lowering one function holds in every mode: its builder, its
/// locals by frame slot, its receiver, and the `(continue, break)`
/// targets of the loops around the current statement.
pub struct Frame<V> {
    pub fb: FuncBuilder,
    pub env: HashMap<u32, V>,
    pub recv: Option<V>,
    pub loops: Vec<(Label, Label)>,
}

impl<V: Clone> Frame<V> {
    pub fn new(fb: FuncBuilder, recv: Option<V>, env: HashMap<u32, V>) -> Self {
        Frame {
            fb,
            env,
            recv,
            loops: Vec::new(),
        }
    }

    /// The receiver, as `this` reads it.
    pub fn this(&self) -> TResult<V> {
        self.recv
            .clone()
            .ok_or_else(|| TransError::new("`this` in a static translation context"))
    }
}

/// A lowerer the walk drives: its value type, and one hook for each
/// construct whose meaning differs between the modes.
pub trait Lower {
    /// A lowered value.
    type V: Clone + 'static;
    /// The per-function context, which holds a [`Frame`].
    type Cx;

    fn table(&self) -> &ClassTable;
    fn frame(cx: &mut Self::Cx) -> &mut Frame<Self::V>;
    fn fb(cx: &mut Self::Cx) -> &mut FuncBuilder {
        &mut Self::frame(cx).fb
    }
    /// The one register of a value.
    fn reg(v: &Self::V) -> TResult<Reg>;
    /// The value held in the fresh scalar or array register `r` of type `ty`.
    fn scalar(r: Reg, ty: Ty) -> Self::V;

    /// `ty local = init;` (no initializer: a zero, or an unwritten
    /// array): the value the new local holds.
    fn local(
        &mut self,
        cx: &mut Self::Cx,
        b: &TBody,
        ty: &Type,
        init: Option<TExprId>,
    ) -> TResult<Self::V>;
    /// `local = v`, where `dst` is what the local holds.
    fn assign_local(&mut self, cx: &mut Self::Cx, dst: &Self::V, v: Self::V) -> TResult<()>;
    /// `obj.field`.
    fn get_field(
        &mut self,
        cx: &mut Self::Cx,
        b: &TBody,
        obj: TExprId,
        field: FieldSel,
    ) -> TResult<Self::V>;
    /// `obj.field = value;`
    fn put_field(
        &mut self,
        cx: &mut Self::Cx,
        b: &TBody,
        obj: TExprId,
        field: FieldSel,
        value: TExprId,
    ) -> TResult<()>;
    fn this(&mut self, cx: &mut Self::Cx) -> TResult<Self::V>;
    /// `return v;`
    fn ret(&mut self, cx: &mut Self::Cx, v: Option<Self::V>) -> TResult<()>;
    /// `recv.method(args)`: a virtual call if `is_virtual`, else a super
    /// call; a static call if there is no `recv`. `ret` is the call's
    /// declared type; `None` for a void call.
    fn call(
        &mut self,
        cx: &mut Self::Cx,
        recv: Option<Self::V>,
        method: MethodSel,
        args: (&TBody, TArgs),
        is_virtual: bool,
        ret: &Type,
    ) -> TResult<Option<Self::V>>;
    /// `new class(args)`.
    fn new_obj(
        &mut self,
        cx: &mut Self::Cx,
        b: &TBody,
        class: ClassId,
        args: TArgs,
    ) -> TResult<Self::V>;
    /// `(to) v` for a reference type `to`.
    fn ref_cast(&mut self, v: Self::V, to: &Type) -> TResult<Self::V>;
    /// `super(args)`: run the constructor chain of `class`, the
    /// superclass, on the object under construction.
    fn super_ctor(&mut self, cx: &mut Self::Cx, class: ClassId, args: Vec<Self::V>) -> TResult<()>;
    /// Field `slot` of the object under construction gets `v`, its
    /// initializer's value.
    fn init_field(&mut self, cx: &mut Self::Cx, slot: u32, v: Self::V) -> TResult<()>;
}

/// The constructor of `class`.
pub fn ctor_of(table: &ClassTable, class: ClassId) -> TResult<&CtorInfo> {
    let info = table.class(class);
    (info.ctor.as_ref())
        .ok_or_else(|| TransError::new(format!("`{}` has no constructor", info.name)))
}

/// Run the constructor chain of `class` on `argv`, in Java's order: the
/// `super(...)` arguments, the superclass's chain
/// ([`Lower::super_ctor`]), each instance-field initializer
/// ([`Lower::init_field`]), then the body. The constructor's parameters
/// are the frame's locals while it runs. `table` is `lw`'s own, passed
/// apart so that the chain's bodies stay borrowed while `lw` lowers them.
pub fn ctor<L: Lower>(
    lw: &mut L,
    cx: &mut L::Cx,
    table: &ClassTable,
    class: ClassId,
    argv: Vec<L::V>,
) -> TResult<()> {
    let info = table.class(class);
    let typed = ctor_of(table, class)?.typed_body();
    let outer = std::mem::replace(&mut L::frame(cx).env, (0..).zip(argv).collect());
    let run = (|| {
        if let Some((sid, _)) = &info.superclass {
            if *sid != jlang::OBJECT {
                let sargs = match typed {
                    Some((b, sargs, _)) => args(lw, cx, b, sargs)?,
                    None => Vec::new(),
                };
                lw.super_ctor(cx, *sid, sargs)?;
            }
        }
        for (i, f) in info.fields.iter().enumerate() {
            if let Some((init, value)) = f.typed_init() {
                let v = expr(lw, cx, init, value)?;
                lw.init_field(cx, info.field_base + i as u32, v)?;
            }
        }
        match typed {
            Some((b, _, body)) => block(lw, cx, b, body),
            None => Ok(()),
        }
    })();
    L::frame(cx).env = outer;
    run
}

pub fn block<L: Lower>(lw: &mut L, cx: &mut L::Cx, b: &TBody, block: TBlock) -> TResult<()> {
    for s in b.list(block) {
        stmt(lw, cx, b, s)?;
    }
    Ok(())
}

/// Lower call or constructor arguments, left to right.
pub fn args<L: Lower>(lw: &mut L, cx: &mut L::Cx, b: &TBody, args: TArgs) -> TResult<Vec<L::V>> {
    let mut out = Vec::with_capacity(args.len());
    for a in b.list(args) {
        out.push(expr(lw, cx, b, a)?);
    }
    Ok(out)
}

pub fn stmt<L: Lower>(lw: &mut L, cx: &mut L::Cx, b: &TBody, s: TStmtId) -> TResult<()> {
    match b.stmt(s) {
        TStmt::Local { slot, ty, init } => {
            let v = lw.local(cx, b, b.type_at(ty), init)?;
            L::frame(cx).env.insert(slot, v);
        }
        TStmt::AssignLocal { slot, value } => {
            let v = expr(lw, cx, b, value)?;
            let dst =
                L::frame(cx).env.get(&slot).cloned().ok_or_else(|| {
                    TransError::new(format!("assignment to undeclared slot {slot}"))
                })?;
            lw.assign_local(cx, &dst, v)?;
        }
        TStmt::AssignField { obj, field, value } => lw.put_field(cx, b, obj, field, value)?,
        TStmt::AssignStatic { .. } => {
            return Err(TransError::new(
                "assignment to a static field cannot be translated (coding rule 5)",
            ))
        }
        TStmt::AssignIndex { arr, idx, value } => {
            let a = expr(lw, cx, b, arr)?;
            let i = expr(lw, cx, b, idx)?;
            let v = expr(lw, cx, b, value)?;
            let ins = Instr::StArr {
                arr: L::reg(&a)?,
                idx: L::reg(&i)?,
                src: L::reg(&v)?,
            };
            L::fb(cx).emit(ins);
        }
        TStmt::Expr(e) => {
            expr_maybe_void(lw, cx, b, e)?;
        }
        TStmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let c = expr(lw, cx, b, cond)?;
            let fb = L::fb(cx);
            let tl = fb.label();
            let el = fb.label();
            let end = fb.label();
            fb.br(L::reg(&c)?, tl, el);
            fb.bind(tl);
            block(lw, cx, b, then_branch)?;
            let fb = L::fb(cx);
            fb.jmp(end);
            fb.bind(el);
            if let Some(e) = else_branch {
                block(lw, cx, b, e)?;
            }
            let fb = L::fb(cx);
            fb.jmp(end);
            fb.bind(end);
        }
        TStmt::While { cond, body } => {
            let fb = L::fb(cx);
            let head = fb.label();
            let bodyl = fb.label();
            let end = fb.label();
            fb.jmp(head);
            fb.bind(head);
            let c = expr(lw, cx, b, cond)?;
            let fb = L::fb(cx);
            fb.br(L::reg(&c)?, bodyl, end);
            fb.bind(bodyl);
            loop_body(lw, cx, b, body, (head, end))?;
            let fb = L::fb(cx);
            fb.jmp(head);
            fb.bind(end);
        }
        TStmt::For {
            init,
            cond,
            update,
            body,
        } => {
            if let Some(i) = init {
                stmt(lw, cx, b, i)?;
            }
            let fb = L::fb(cx);
            let head = fb.label();
            let bodyl = fb.label();
            let cont = fb.label();
            let end = fb.label();
            fb.jmp(head);
            fb.bind(head);
            match cond {
                Some(c) => {
                    let cv = expr(lw, cx, b, c)?;
                    L::fb(cx).br(L::reg(&cv)?, bodyl, end);
                }
                None => L::fb(cx).jmp(bodyl),
            }
            L::fb(cx).bind(bodyl);
            loop_body(lw, cx, b, body, (cont, end))?;
            let fb = L::fb(cx);
            fb.jmp(cont);
            fb.bind(cont);
            if let Some(u) = update {
                stmt(lw, cx, b, u)?;
            }
            let fb = L::fb(cx);
            fb.jmp(head);
            fb.bind(end);
        }
        TStmt::Return { value } => {
            let v = match value {
                Some(e) => Some(expr(lw, cx, b, e)?),
                None => None,
            };
            lw.ret(cx, v)?;
        }
        TStmt::Break => {
            let f = L::frame(cx);
            let (_, brk) = *f
                .loops
                .last()
                .ok_or_else(|| TransError::new("break outside a loop reached the translator"))?;
            f.fb.jmp(brk);
        }
        TStmt::Continue => {
            let f = L::frame(cx);
            let (cont, _) = *f
                .loops
                .last()
                .ok_or_else(|| TransError::new("continue outside a loop reached the translator"))?;
            f.fb.jmp(cont);
        }
        TStmt::Block(inner) => block(lw, cx, b, inner)?,
    }
    Ok(())
}

/// A loop's body, with `targets` = `(continue, break)` innermost.
fn loop_body<L: Lower>(
    lw: &mut L,
    cx: &mut L::Cx,
    b: &TBody,
    body: TBlock,
    targets: (Label, Label),
) -> TResult<()> {
    L::frame(cx).loops.push(targets);
    block(lw, cx, b, body)?;
    L::frame(cx).loops.pop();
    Ok(())
}

/// An expression in statement position: a call may be void.
pub fn expr_maybe_void<L: Lower>(
    lw: &mut L,
    cx: &mut L::Cx,
    b: &TBody,
    e: TExprId,
) -> TResult<Option<L::V>> {
    match b.expr(e) {
        TExpr::Call { recv, method, args } => {
            let r = expr(lw, cx, b, recv)?;
            lw.call(cx, Some(r), method, (b, args), true, b.ty(e))
        }
        TExpr::DirectCall { recv, method, args } => {
            let r = expr(lw, cx, b, recv)?;
            lw.call(cx, Some(r), method, (b, args), false, b.ty(e))
        }
        TExpr::StaticCall { class, index, args } => {
            let method = MethodSel {
                decl_class: class,
                index,
            };
            lw.call(cx, None, method, (b, args), false, b.ty(e))
        }
        _ => Ok(Some(expr(lw, cx, b, e)?)),
    }
}

pub fn expr<L: Lower>(lw: &mut L, cx: &mut L::Cx, b: &TBody, e: TExprId) -> TResult<L::V> {
    match b.expr(e) {
        TExpr::Int(_)
        | TExpr::Long(_)
        | TExpr::Float(_)
        | TExpr::Double(_)
        | TExpr::Bool(_)
        | TExpr::GetStatic { .. } => {
            let v = const_eval(lw.table(), b, e)?;
            Ok(L::scalar(L::fb(cx).constant(v), v.ty()))
        }
        TExpr::Local(slot) => L::frame(cx)
            .env
            .get(&slot)
            .cloned()
            .ok_or_else(|| TransError::new(format!("read of unassigned local slot {slot}"))),
        TExpr::This => lw.this(cx),
        TExpr::GetField { obj, field } => lw.get_field(cx, b, obj, field),
        x @ (TExpr::Call { .. } | TExpr::DirectCall { .. } | TExpr::StaticCall { .. }) => {
            expr_maybe_void(lw, cx, b, e)?.ok_or_else(|| refused(x))
        }
        TExpr::New { class, args } => lw.new_obj(cx, b, class, args),
        TExpr::NewArray { elem, len } => {
            let elem = elem_ty_of(b.type_at(elem))
                .ok_or_else(|| TransError::new("only primitive arrays can be translated"))?;
            let len = expr(lw, cx, b, len)?;
            let len = L::reg(&len)?;
            Ok(emit_to::<L>(cx, Ty::Arr(elem), |dst| Instr::NewArr {
                elem,
                len,
                dst,
            }))
        }
        TExpr::Index { arr, idx } => {
            let a = expr(lw, cx, b, arr)?;
            let i = expr(lw, cx, b, idx)?;
            let (arr, idx) = (L::reg(&a)?, L::reg(&i)?);
            Ok(emit_to::<L>(cx, decl_ty(b.ty(e))?, |dst| Instr::LdArr {
                arr,
                idx,
                dst,
            }))
        }
        TExpr::ArrayLen(a) => {
            let a = expr(lw, cx, b, a)?;
            let arr = L::reg(&a)?;
            Ok(emit_to::<L>(cx, Ty::I32, |dst| Instr::ArrLen { arr, dst }))
        }
        TExpr::Unary { op, expr: operand } => {
            let v = expr(lw, cx, b, operand)?;
            let kind = expr_kind(b, e)?;
            let src = L::reg(&v)?;
            Ok(emit_to::<L>(cx, Ty::of_prim(kind), |dst| match op {
                UnOp::Neg => Instr::Neg { kind, dst, src },
                UnOp::Not => Instr::Not { dst, src },
            }))
        }
        TExpr::Binary {
            op: op @ (BinOp::And | BinOp::Or),
            lhs,
            rhs,
            ..
        } => short_circuit(lw, cx, b, op, lhs, rhs),
        TExpr::Binary {
            op,
            operand_kind,
            lhs,
            rhs,
        } => {
            let l = expr(lw, cx, b, lhs)?;
            let r = expr(lw, cx, b, rhs)?;
            let out = if op.is_comparison() {
                PrimKind::Boolean
            } else {
                operand_kind
            };
            let (lhs, rhs) = (L::reg(&l)?, L::reg(&r)?);
            Ok(emit_to::<L>(cx, Ty::of_prim(out), |dst| Instr::Bin {
                op,
                kind: operand_kind,
                dst,
                lhs,
                rhs,
            }))
        }
        TExpr::NumCast { to, expr: operand } | TExpr::Convert { to, expr: operand } => {
            let v = expr(lw, cx, b, operand)?;
            let from = expr_kind(b, operand)?;
            if from == to {
                return Ok(v);
            }
            let src = L::reg(&v)?;
            Ok(emit_to::<L>(cx, Ty::of_prim(to), |dst| Instr::Cast {
                to,
                from,
                dst,
                src,
            }))
        }
        TExpr::RefCast { to, expr: operand } => {
            let v = expr(lw, cx, b, operand)?;
            lw.ref_cast(v, b.type_at(to))
        }
        x @ (TExpr::RefEq { .. }
        | TExpr::InstanceOf { .. }
        | TExpr::Null
        | TExpr::Str(_)
        | TExpr::Ternary { .. }) => Err(refused(x)),
    }
}

/// Why `e` cannot be translated: a construct the coding rules forbid, or
/// a void call used as a value.
fn refused(e: TExpr) -> TransError {
    TransError::new(match e {
        TExpr::RefEq { .. } => "reference equality cannot be translated (coding rule 7)",
        TExpr::InstanceOf { .. } => "`instanceof` cannot be translated (coding rule 8)",
        TExpr::Null => "`null` cannot be translated (coding rule 8)",
        TExpr::Str(_) => "strings cannot be translated",
        TExpr::Ternary { .. } => "the conditional operator cannot be translated (coding rule 7)",
        TExpr::Call { .. } => "void call used as a value",
        TExpr::DirectCall { .. } => "void super-call used as a value",
        TExpr::StaticCall { .. } => "void static call used as a value",
        _ => "this expression cannot be translated",
    })
}

/// `lhs && rhs` or `lhs || rhs` as control flow: `rhs` runs only when
/// `lhs` does not decide the result.
fn short_circuit<L: Lower>(
    lw: &mut L,
    cx: &mut L::Cx,
    b: &TBody,
    op: BinOp,
    lhs: TExprId,
    rhs: TExprId,
) -> TResult<L::V> {
    let dst = L::fb(cx).reg(Ty::Bool);
    let l = expr(lw, cx, b, lhs)?;
    let fb = L::fb(cx);
    fb.emit(Instr::Mov(dst, L::reg(&l)?));
    let eval_rhs = fb.label();
    let end = fb.label();
    match op {
        BinOp::And => fb.br(dst, eval_rhs, end),
        _ => fb.br(dst, end, eval_rhs),
    }
    fb.bind(eval_rhs);
    let r = expr(lw, cx, b, rhs)?;
    let fb = L::fb(cx);
    fb.emit(Instr::Mov(dst, L::reg(&r)?));
    fb.jmp(end);
    fb.bind(end);
    Ok(L::scalar(dst, Ty::Bool))
}

/// Emit `ins(dst)` for a fresh register `dst` of type `ty`, and wrap it.
fn emit_to<L: Lower>(cx: &mut L::Cx, ty: Ty, ins: impl FnOnce(Reg) -> Instr) -> L::V {
    let fb = L::fb(cx);
    let dst = fb.reg(ty);
    fb.emit(ins(dst));
    L::scalar(dst, ty)
}

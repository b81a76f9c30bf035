//! The body type checker: turns untyped method/constructor bodies and field
//! initializers into the typed AST, resolving every name and inserting
//! explicit widening conversions.

use std::sync::Arc;

use crate::ast::{self, BinOp, UnOp};
use crate::span::{DiagResult, Diagnostic, Span};
use crate::table::{ClassInfo, ClassTable, TypeParamInfo};
use crate::tast::*;
use crate::types::{ClassId, PrimKind, Type, OBJECT};

/// Which body of a class: the unit the type checker works in, and the
/// unit the incremental query layer memoizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Member {
    /// Method body, by index in the class's method list.
    Method(u32),
    /// Constructor (super args + body).
    Ctor,
    /// One field initializer, by index in `fields` or `statics`.
    Init { is_static: bool, index: u32 },
}

/// One checked body, as the class table holds it: immutable and shared.
/// Whoever keeps a `Typed` (a query memo) and every table it was
/// installed into point at the same allocation; cloning bumps counts.
#[derive(Debug, Clone)]
pub enum Typed {
    Method {
        body: Arc<TBlock>,
        /// Frame slots (params + locals).
        frame: u32,
    },
    Ctor {
        /// Typed `super(...)` arguments.
        super_args: Arc<Vec<TExpr>>,
        body: Arc<TBlock>,
        frame: u32,
    },
    Init(Arc<TExpr>),
}

/// Type check all bodies in `table`, storing typed bodies back into it.
///
/// This is a driver over [`unchecked_members`], [`check_member`] and
/// [`install`], which the incremental query layer calls one body at a
/// time against a table snapshot. The driver preserves batch semantics:
/// every body is checked against the table as it stands and all
/// diagnostics are collected before failing; the typed results go back in
/// only after the last one.
pub fn check(table: &mut ClassTable) -> DiagResult<()> {
    let mut diags = Vec::new();
    let mut results: Vec<(ClassId, Member, Typed)> = Vec::new();
    let read: &ClassTable = table;
    for info in read.iter() {
        for member in unchecked_members(info) {
            match check_member(read, info.id, member) {
                Ok(typed) => results.push((info.id, member, typed)),
                Err(mut d) => diags.append(&mut d),
            }
        }
    }
    if !diags.is_empty() {
        return Err(diags);
    }
    for (id, member, typed) in results {
        install(table, id, member, typed);
    }
    Ok(())
}

/// The members of `info` that hold an untyped body, in checking order:
/// instance initializers, static initializers, methods, constructor.
pub fn unchecked_members(info: &ClassInfo) -> Vec<Member> {
    let mut out = Vec::new();
    for (is_static, fields) in [(false, &info.fields), (true, &info.statics)] {
        for (i, f) in fields.iter().enumerate() {
            if f.ast_init.is_some() {
                out.push(Member::Init {
                    is_static,
                    index: i as u32,
                });
            }
        }
    }
    for (mi, m) in info.methods.iter().enumerate() {
        if m.ast_body.is_some() {
            out.push(Member::Method(mi as u32));
        }
    }
    if info.ctor.as_ref().is_some_and(|c| c.ast_body.is_some()) {
        out.push(Member::Ctor);
    }
    out
}

/// Type check one body of class `id` against a table snapshot (the table
/// is only read; the caller installs the result). Requires the member's
/// untyped body to still be present.
pub fn check_member(table: &ClassTable, id: ClassId, member: Member) -> DiagResult<Typed> {
    match member {
        Member::Method(mi) => check_method_body(table, id, mi as usize),
        Member::Ctor => check_ctor(table, id),
        Member::Init { is_static, index } => check_field_init(table, id, is_static, index as usize),
    }
}

/// Put a checked body into the table and release the untyped one.
pub fn install(table: &mut ClassTable, id: ClassId, member: Member, typed: Typed) {
    let c = table.class_mut(id);
    match (member, typed) {
        (Member::Method(mi), Typed::Method { body, frame }) => {
            let m = &mut c.methods[mi as usize];
            m.body = Some(body);
            m.frame_size = frame;
            m.ast_body = None;
        }
        (
            Member::Ctor,
            Typed::Ctor {
                super_args,
                body,
                frame,
            },
        ) => {
            let ct = c.ctor.as_mut().expect("install: class has no ctor");
            ct.super_args = super_args;
            ct.body = Some(body);
            ct.frame_size = frame;
            ct.ast_super_args = None;
            ct.ast_body = None;
        }
        (Member::Init { is_static, index }, Typed::Init(e)) => {
            let f = if is_static {
                &mut c.statics[index as usize]
            } else {
                &mut c.fields[index as usize]
            };
            f.init = Some(e);
            f.ast_init = None;
        }
        (member, typed) => unreachable!("install: {member:?} is not a {typed:?}"),
    }
}

fn check_field_init(
    table: &ClassTable,
    id: ClassId,
    is_static: bool,
    fi: usize,
) -> DiagResult<Typed> {
    let info = table.class(id);
    let f = if is_static {
        &info.statics[fi]
    } else {
        &info.fields[fi]
    };
    let init = f
        .ast_init
        .as_deref()
        .expect("check_field_init: untyped initializer already released");
    let ty = f.ty.clone();
    // Instance field initializers are checked in constructor context.
    let mut ck = Checker::new(table, id, is_static, ty.clone());
    let typed = match ck.expr(init) {
        Ok(e) => ck.coerce(e, &ty).ok(),
        Err(()) => None,
    };
    finish_body(
        ck.diags,
        typed.map(|e| Typed::Init(Arc::new(e))),
        f.span,
        "field initializer failed to type check",
    )
}

fn check_method_body(table: &ClassTable, id: ClassId, mi: usize) -> DiagResult<Typed> {
    let info = table.class(id);
    let m = &info.methods[mi];
    let body = m
        .ast_body
        .as_deref()
        .expect("check_method_body: untyped body already released");
    let mut ck = Checker::new(table, id, m.is_static, m.ret.clone());
    for p in &m.params {
        ck.scope.declare(&p.name, p.ty.clone(), p.is_final);
    }
    let tb = ck.block(body);
    // Non-void methods must return on every path.
    if m.ret != Type::Void && !block_always_returns(&tb) {
        ck.diags.push(Diagnostic::error(
            "typeck",
            m.span,
            format!(
                "method `{}::{}` may finish without returning a value",
                info.name, m.name
            ),
        ));
    }
    let typed = Typed::Method {
        body: Arc::new(tb),
        frame: ck.scope.max_slot,
    };
    finish_body(
        ck.diags,
        Some(typed),
        m.span,
        "method body failed to type check",
    )
}

/// The constructor of class `id`: super(...) arguments plus the body.
fn check_ctor(table: &ClassTable, id: ClassId) -> DiagResult<Typed> {
    let info = table.class(id);
    let ctor = info.ctor.as_ref().expect("check_ctor: class has no ctor");
    let body = ctor
        .ast_body
        .as_deref()
        .expect("check_ctor: untyped body already released");
    let mut ck = Checker::new(table, id, false, Type::Void);
    ck.in_ctor = true;
    for p in &ctor.params {
        ck.scope.declare(&p.name, p.ty.clone(), p.is_final);
    }
    // super(...) arguments against the superclass constructor.
    let mut targs_out = Vec::new();
    let sup = info.superclass.clone();
    match (ctor.ast_super_args.as_deref(), sup) {
        (Some(args), Some((sid, sargs))) if sid != OBJECT => {
            targs_out = ck.super_ctor_args(sid, &sargs, args, ctor.span);
        }
        (Some(args), _) if !args.is_empty() => {
            ck.diags.push(Diagnostic::error(
                "typeck",
                ctor.span,
                "explicit super(...) arguments but superclass is Object",
            ));
        }
        (None, Some((sid, sargs))) if sid != OBJECT => {
            // Implicit super(): the super ctor must take no args.
            targs_out = ck.super_ctor_args(sid, &sargs, &[], ctor.span);
        }
        _ => {}
    }
    let tb = ck.block(body);
    let typed = Typed::Ctor {
        super_args: Arc::new(targs_out),
        body: Arc::new(tb),
        frame: ck.scope.max_slot,
    };
    finish_body(
        ck.diags,
        Some(typed),
        ctor.span,
        "constructor failed to type check",
    )
}

/// Per-body result policy: any diagnostic fails the body; a silent
/// failure still produces a diagnostic so drivers never lose an error.
fn finish_body<T>(
    diags: Vec<Diagnostic>,
    result: Option<T>,
    span: Span,
    fallback: &str,
) -> DiagResult<T> {
    if !diags.is_empty() {
        return Err(diags);
    }
    match result {
        Some(t) => Ok(t),
        None => Err(vec![Diagnostic::error("typeck", span, fallback)]),
    }
}

/// Conservative "always returns" analysis used for the missing-return check.
fn block_always_returns(b: &TBlock) -> bool {
    b.stmts.iter().any(stmt_always_returns)
}

fn stmt_always_returns(s: &TStmt) -> bool {
    match s {
        TStmt::Return { .. } => true,
        TStmt::If {
            then_branch,
            else_branch: Some(e),
            ..
        } => block_always_returns(then_branch) && block_always_returns(e),
        TStmt::Block(b) => block_always_returns(b),
        _ => false,
    }
}

struct Scope {
    frames: Vec<Vec<(String, u32, Type, bool)>>,
    next_slot: u32,
    max_slot: u32,
}

impl Scope {
    fn new() -> Self {
        Scope {
            frames: vec![Vec::new()],
            next_slot: 0,
            max_slot: 0,
        }
    }

    fn declare(&mut self, name: &str, ty: Type, is_final: bool) -> u32 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.max_slot = self.max_slot.max(self.next_slot);
        self.frames
            .last_mut()
            .unwrap()
            .push((name.to_string(), slot, ty, is_final));
        slot
    }

    fn lookup(&self, name: &str) -> Option<(u32, Type, bool)> {
        for frame in self.frames.iter().rev() {
            for (n, s, t, f) in frame.iter().rev() {
                if n == name {
                    return Some((*s, t.clone(), *f));
                }
            }
        }
        None
    }

    fn declared_in_scope(&self, name: &str) -> bool {
        self.frames
            .iter()
            .any(|f| f.iter().any(|(n, ..)| n == name))
    }

    fn push(&mut self) {
        self.frames.push(Vec::new());
    }

    fn pop(&mut self) {
        self.frames.pop();
    }
}

struct Checker<'t> {
    table: &'t ClassTable,
    class: ClassId,
    type_params: &'t [TypeParamInfo],
    is_static: bool,
    in_ctor: bool,
    ret: Type,
    scope: Scope,
    loop_depth: u32,
    diags: Vec<Diagnostic>,
}

type CkResult<T> = Result<T, ()>;

impl<'t> Checker<'t> {
    fn new(table: &'t ClassTable, class: ClassId, is_static: bool, ret: Type) -> Self {
        Checker {
            table,
            type_params: &table.class(class).type_params,
            class,
            is_static,
            in_ctor: false,
            ret,
            scope: Scope::new(),
            loop_depth: 0,
            diags: Vec::new(),
        }
    }

    fn err(&mut self, span: Span, msg: impl Into<String>) {
        self.diags.push(Diagnostic::error("typeck", span, msg));
    }

    fn show(&self, t: &Type) -> String {
        self.table.show_type(t)
    }

    fn super_ctor_args(
        &mut self,
        sid: ClassId,
        sargs: &[Type],
        args: &[ast::Expr],
        span: Span,
    ) -> Vec<TExpr> {
        let Some(sctor) = &self.table.class(sid).ctor else {
            self.err(
                span,
                format!("superclass `{}` has no constructor", self.table.name(sid)),
            );
            return Vec::new();
        };
        if sctor.params.len() != args.len() {
            self.err(
                span,
                format!(
                    "super(...) expects {} argument(s), found {}",
                    sctor.params.len(),
                    args.len()
                ),
            );
            return Vec::new();
        }
        let mut out = Vec::new();
        for (a, p) in args.iter().zip(&sctor.params) {
            let want = p.ty.subst(sargs);
            if let Ok(e) = self.expr(a) {
                if let Ok(e) = self.coerce(e, &want) {
                    out.push(e);
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block(&mut self, b: &ast::Block) -> TBlock {
        self.scope.push();
        let stmts = b.stmts.iter().filter_map(|s| self.stmt(s).ok()).collect();
        self.scope.pop();
        TBlock { stmts }
    }

    fn stmt(&mut self, s: &ast::Stmt) -> CkResult<TStmt> {
        match s {
            ast::Stmt::Local {
                name,
                ty,
                init,
                is_final,
                span,
            } => {
                let rty = self
                    .table
                    .resolve_type(self.type_params, ty)
                    .map_err(|d| self.diags.push(d))?;
                if rty == Type::Void {
                    self.err(*span, "local variable of type void");
                    return Err(());
                }
                if self.scope.declared_in_scope(name) {
                    self.err(*span, format!("duplicate local `{name}`"));
                }
                let tinit = match init {
                    Some(e) => {
                        let te = self.expr(e)?;
                        Some(self.coerce(te, &rty)?)
                    }
                    None => None,
                };
                let slot = self.scope.declare(name, rty.clone(), *is_final);
                Ok(TStmt::Local {
                    slot,
                    ty: rty,
                    init: tinit,
                    span: *span,
                })
            }
            ast::Stmt::Assign {
                target,
                op,
                value,
                span,
            } => self.assign(target, *op, value, *span),
            ast::Stmt::IncDec { target, inc, span } => {
                let one = ast::Expr::IntLit(1, *span);
                let op = if *inc { BinOp::Add } else { BinOp::Sub };
                self.assign(target, Some(op), &one, *span)
            }
            ast::Stmt::Expr(e) => {
                let te = self.expr(e)?;
                match &te.kind {
                    TExprKind::Call { .. }
                    | TExprKind::DirectCall { .. }
                    | TExprKind::StaticCall { .. }
                    | TExprKind::New { .. } => {}
                    _ => self.err(te.span, "expression statement has no effect"),
                }
                Ok(TStmt::Expr(te))
            }
            ast::Stmt::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => {
                let c = self.bool_expr(cond)?;
                let t = self.block(then_branch);
                let e = else_branch.as_ref().map(|b| self.block(b));
                Ok(TStmt::If {
                    cond: c,
                    then_branch: t,
                    else_branch: e,
                    span: *span,
                })
            }
            ast::Stmt::While { cond, body, span } => {
                let c = self.bool_expr(cond)?;
                self.loop_depth += 1;
                let b = self.block(body);
                self.loop_depth -= 1;
                Ok(TStmt::While {
                    cond: c,
                    body: b,
                    span: *span,
                })
            }
            ast::Stmt::For {
                init,
                cond,
                update,
                body,
                span,
            } => {
                self.scope.push();
                let ti = match init {
                    Some(s) => Some(Box::new(self.stmt(s)?)),
                    None => None,
                };
                let tc = match cond {
                    Some(c) => Some(self.bool_expr(c)?),
                    None => None,
                };
                let tu = match update {
                    Some(s) => Some(Box::new(self.stmt(s)?)),
                    None => None,
                };
                self.loop_depth += 1;
                let tb = self.block(body);
                self.loop_depth -= 1;
                self.scope.pop();
                Ok(TStmt::For {
                    init: ti,
                    cond: tc,
                    update: tu,
                    body: tb,
                    span: *span,
                })
            }
            ast::Stmt::Return { value, span } => {
                let tv = match (value, &self.ret) {
                    (None, Type::Void) => None,
                    (None, r) => {
                        let r = r.clone();
                        self.err(
                            *span,
                            format!("missing return value of type {}", self.show(&r)),
                        );
                        return Err(());
                    }
                    (Some(_), Type::Void) => {
                        self.err(*span, "void method returns a value");
                        return Err(());
                    }
                    (Some(e), _) => {
                        let te = self.expr(e)?;
                        let want = self.ret.clone();
                        Some(self.coerce(te, &want)?)
                    }
                };
                Ok(TStmt::Return {
                    value: tv,
                    span: *span,
                })
            }
            ast::Stmt::Break(span) => {
                if self.loop_depth == 0 {
                    self.err(*span, "break outside of a loop");
                }
                Ok(TStmt::Break(*span))
            }
            ast::Stmt::Continue(span) => {
                if self.loop_depth == 0 {
                    self.err(*span, "continue outside of a loop");
                }
                Ok(TStmt::Continue(*span))
            }
            ast::Stmt::Block(b) => Ok(TStmt::Block(self.block(b))),
        }
    }

    fn assign(
        &mut self,
        target: &ast::LValue,
        op: Option<BinOp>,
        value: &ast::Expr,
        span: Span,
    ) -> CkResult<TStmt> {
        // Read the target as an expression when compound.
        let read_target = |t: &ast::LValue| -> ast::Expr {
            match t {
                ast::LValue::Name(n, s) => ast::Expr::Name(n.clone(), *s),
                ast::LValue::Field { obj, name, span } => ast::Expr::Field {
                    obj: Box::new(obj.clone()),
                    name: name.clone(),
                    span: *span,
                },
                ast::LValue::Index { arr, idx, span } => ast::Expr::Index {
                    arr: Box::new(arr.clone()),
                    idx: Box::new(idx.clone()),
                    span: *span,
                },
            }
        };

        match target {
            ast::LValue::Name(name, nspan) => {
                if let Some((slot, ty, is_final)) = self.scope.lookup(name) {
                    if is_final {
                        self.err(*nspan, format!("assignment to final variable `{name}`"));
                    }
                    let v = self.assign_value(&read_target(target), op, value, &ty, span)?;
                    return Ok(TStmt::AssignLocal {
                        slot,
                        value: v,
                        span,
                    });
                }
                // Implicit this.field or static field of the current class.
                if let Some(fl) = self.table.lookup_field(self.class, name) {
                    if self.is_static {
                        self.err(*nspan, format!("instance field `{name}` in static context"));
                        return Err(());
                    }
                    self.check_final_field_write(fl.is_final, fl.owner, *nspan, name);
                    let obj = TExpr {
                        kind: TExprKind::This,
                        ty: Type::object(self.class),
                        span: *nspan,
                    };
                    let v = self.assign_value(&read_target(target), op, value, &fl.ty, span)?;
                    return Ok(TStmt::AssignField {
                        obj,
                        field: FieldSel {
                            owner: fl.owner,
                            slot: fl.slot,
                            ty: fl.ty,
                        },
                        value: v,
                        span,
                    });
                }
                if let Some((idx, f)) = self.table.lookup_static(self.class, name) {
                    if f.is_final {
                        self.err(*nspan, format!("assignment to final static `{name}`"));
                    }
                    let fty = f.ty.clone();
                    let v = self.assign_value(&read_target(target), op, value, &fty, span)?;
                    return Ok(TStmt::AssignStatic {
                        class: self.class,
                        index: idx,
                        value: v,
                        span,
                    });
                }
                self.err(*nspan, format!("unknown variable `{name}`"));
                Err(())
            }
            ast::LValue::Field {
                obj,
                name,
                span: fspan,
            } => {
                // Static field of another class: `C.f = ...`.
                if let ast::Expr::Name(cname, _) = obj {
                    if self.scope.lookup(cname).is_none()
                        && self.table.lookup_field(self.class, cname).is_none()
                    {
                        if let Some(cid) = self.table.by_name(cname) {
                            let Some((idx, f)) = self.table.lookup_static(cid, name) else {
                                self.err(*fspan, format!("no static field `{name}` on `{cname}`"));
                                return Err(());
                            };
                            if f.is_final {
                                self.err(*fspan, format!("assignment to final static `{name}`"));
                            }
                            let fty = f.ty.clone();
                            let v =
                                self.assign_value(&read_target(target), op, value, &fty, span)?;
                            return Ok(TStmt::AssignStatic {
                                class: cid,
                                index: idx,
                                value: v,
                                span,
                            });
                        }
                    }
                }
                let tobj = self.expr(obj)?;
                let Type::Object(cid, targs) = tobj.ty.clone() else {
                    let got = self.show(&tobj.ty);
                    self.err(*fspan, format!("field assignment on non-object type {got}"));
                    return Err(());
                };
                let Some(fl) = self.table.lookup_field(cid, name) else {
                    self.err(
                        *fspan,
                        format!("no field `{name}` on `{}`", self.table.name(cid)),
                    );
                    return Err(());
                };
                self.check_final_field_write(fl.is_final, fl.owner, *fspan, name);
                let fty = fl.ty.subst(&targs);
                let v = self.assign_value(&read_target(target), op, value, &fty, span)?;
                Ok(TStmt::AssignField {
                    obj: tobj,
                    field: FieldSel {
                        owner: fl.owner,
                        slot: fl.slot,
                        ty: fty,
                    },
                    value: v,
                    span,
                })
            }
            ast::LValue::Index {
                arr,
                idx,
                span: ispan,
            } => {
                let tarr = self.expr(arr)?;
                let Type::Array(elem) = tarr.ty.clone() else {
                    let got = self.show(&tarr.ty);
                    self.err(*ispan, format!("indexing non-array type {got}"));
                    return Err(());
                };
                let tidx = self.expr(idx)?;
                let tidx = self.coerce(tidx, &Type::Int)?;
                let v = self.assign_value(&read_target(target), op, value, &elem, span)?;
                Ok(TStmt::AssignIndex {
                    arr: tarr,
                    idx: tidx,
                    value: v,
                    span,
                })
            }
        }
    }

    /// Writes to final instance fields are only allowed inside constructors
    /// of the declaring class or a subclass (the paper's semi-immutable
    /// model explicitly allows subclass constructors to overwrite).
    fn check_final_field_write(&mut self, is_final: bool, owner: ClassId, span: Span, name: &str) {
        if is_final && !(self.in_ctor && self.table.is_subclass_of(self.class, owner)) {
            self.err(
                span,
                format!("assignment to final field `{name}` outside a constructor"),
            );
        }
    }

    /// Type the RHS of an assignment, folding compound operators.
    ///
    /// Known divergence from Java: for compound assignment to a field or
    /// array element (`o.f += e`, `a[i] += e`), the receiver/index
    /// subexpressions are typed (and later evaluated) twice — once for
    /// the read and once for the write. Java evaluates them once. This
    /// only matters when those subexpressions have side effects, which
    /// the WootinJ coding rules make rare and the bundled libraries never
    /// do; documented here rather than complicating every engine.
    fn assign_value(
        &mut self,
        target_read: &ast::Expr,
        op: Option<BinOp>,
        value: &ast::Expr,
        target_ty: &Type,
        span: Span,
    ) -> CkResult<TExpr> {
        match op {
            None => {
                let v = self.expr(value)?;
                self.coerce(v, target_ty)
            }
            Some(op) => {
                let lhs = self.expr(target_read)?;
                let rhs = self.expr(value)?;
                let bin = self.binary(op, lhs, rhs, span)?;
                // Java compound assignment implicitly casts back.
                if let Some(kind) = target_ty.prim_kind() {
                    if bin.ty.prim_kind() == Some(kind) {
                        Ok(bin)
                    } else {
                        Ok(TExpr {
                            ty: target_ty.clone(),
                            span,
                            kind: TExprKind::NumCast {
                                to: kind,
                                expr: Box::new(bin),
                            },
                        })
                    }
                } else {
                    self.err(span, "compound assignment on non-numeric target");
                    Err(())
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn bool_expr(&mut self, e: &ast::Expr) -> CkResult<TExpr> {
        let te = self.expr(e)?;
        if te.ty != Type::Boolean {
            let got = self.show(&te.ty);
            self.err(te.span, format!("expected boolean, found {got}"));
            return Err(());
        }
        Ok(te)
    }

    /// Insert a widening conversion or report an assignability error.
    fn coerce(&mut self, e: TExpr, want: &Type) -> CkResult<TExpr> {
        if &e.ty == want {
            return Ok(e);
        }
        if want.is_primitive() && e.ty.is_primitive() {
            if want.widens_from(&e.ty) {
                let kind = want.prim_kind().unwrap();
                return Ok(TExpr {
                    ty: want.clone(),
                    span: e.span,
                    kind: TExprKind::Convert {
                        to: kind,
                        expr: Box::new(e),
                    },
                });
            }
            let got = self.show(&e.ty);
            let w = self.show(want);
            self.err(
                e.span,
                format!("cannot implicitly convert {got} to {w} (add a cast)"),
            );
            return Err(());
        }
        if self.table.is_subtype(&e.ty, want) {
            return Ok(e);
        }
        // Type variables are assignable to their bound.
        if let Type::Var(i) = &e.ty {
            let bound = self.type_params[*i as usize].bound.clone();
            if self.table.is_subtype(&bound, want) || &bound == want {
                return Ok(e);
            }
        }
        let got = self.show(&e.ty);
        let w = self.show(want);
        self.err(e.span, format!("expected {w}, found {got}"));
        Err(())
    }

    fn expr(&mut self, e: &ast::Expr) -> CkResult<TExpr> {
        match e {
            ast::Expr::IntLit(v, s) => {
                if *v < i32::MIN as i64 || *v > i32::MAX as i64 {
                    self.err(*s, "int literal out of 32-bit range (use an L suffix)");
                    return Err(());
                }
                Ok(TExpr {
                    kind: TExprKind::Int(*v as i32),
                    ty: Type::Int,
                    span: *s,
                })
            }
            ast::Expr::LongLit(v, s) => Ok(TExpr {
                kind: TExprKind::Long(*v),
                ty: Type::Long,
                span: *s,
            }),
            ast::Expr::FloatLit(v, s) => Ok(TExpr {
                kind: TExprKind::Float(*v),
                ty: Type::Float,
                span: *s,
            }),
            ast::Expr::DoubleLit(v, s) => Ok(TExpr {
                kind: TExprKind::Double(*v),
                ty: Type::Double,
                span: *s,
            }),
            ast::Expr::BoolLit(v, s) => Ok(TExpr {
                kind: TExprKind::Bool(*v),
                ty: Type::Boolean,
                span: *s,
            }),
            ast::Expr::NullLit(s) => Ok(TExpr {
                kind: TExprKind::Null,
                ty: Type::Null,
                span: *s,
            }),
            ast::Expr::StrLit(v, s) => Ok(TExpr {
                kind: TExprKind::Str(v.clone()),
                ty: Type::Str,
                span: *s,
            }),
            ast::Expr::This(s) => {
                if self.is_static {
                    self.err(*s, "`this` in a static context");
                    return Err(());
                }
                let targs: Vec<Type> = (0..self.type_params.len())
                    .map(|i| Type::Var(i as u32))
                    .collect();
                Ok(TExpr {
                    kind: TExprKind::This,
                    ty: Type::Object(self.class, targs),
                    span: *s,
                })
            }
            ast::Expr::Name(name, s) => {
                if let Some((slot, ty, _)) = self.scope.lookup(name) {
                    return Ok(TExpr {
                        kind: TExprKind::Local(slot),
                        ty,
                        span: *s,
                    });
                }
                if let Some(fl) = self.table.lookup_field(self.class, name) {
                    if self.is_static {
                        self.err(*s, format!("instance field `{name}` in static context"));
                        return Err(());
                    }
                    let obj = TExpr {
                        kind: TExprKind::This,
                        ty: Type::object(self.class),
                        span: *s,
                    };
                    return Ok(TExpr {
                        ty: fl.ty.clone(),
                        span: *s,
                        kind: TExprKind::GetField {
                            obj: Box::new(obj),
                            field: FieldSel {
                                owner: fl.owner,
                                slot: fl.slot,
                                ty: fl.ty,
                            },
                        },
                    });
                }
                if let Some((idx, f)) = self.table.lookup_static(self.class, name) {
                    return Ok(TExpr {
                        ty: f.ty.clone(),
                        span: *s,
                        kind: TExprKind::GetStatic {
                            class: self.class,
                            index: idx,
                        },
                    });
                }
                if self.table.by_name(name).is_some() {
                    self.err(*s, format!("class `{name}` used as a value"));
                } else {
                    self.err(*s, format!("unknown name `{name}`"));
                }
                Err(())
            }
            ast::Expr::Field { obj, name, span } => self.field_access(obj, name, *span),
            ast::Expr::Call {
                recv,
                name,
                args,
                span,
            } => self.call(recv, name, args, *span),
            ast::Expr::SuperCall { name, args, span } => {
                if self.is_static {
                    self.err(*span, "`super` in a static context");
                    return Err(());
                }
                let Some((sid, sargs)) = self.table.class(self.class).superclass.clone() else {
                    self.err(*span, "`super` call but no superclass");
                    return Err(());
                };
                let Some(ml) = self.table.lookup_method(sid, name) else {
                    self.err(
                        *span,
                        format!(
                            "no method `{name}` on superclass `{}`",
                            self.table.name(sid)
                        ),
                    );
                    return Err(());
                };
                let subst: Vec<Type> = ml.subst.iter().map(|t| t.subst(&sargs)).collect();
                let recv = TExpr {
                    kind: TExprKind::This,
                    ty: Type::object(self.class),
                    span: *span,
                };
                let (targs, ret) = self.check_args(ml.decl_class, ml.index, &subst, args, *span)?;
                Ok(TExpr {
                    ty: ret,
                    span: *span,
                    kind: TExprKind::DirectCall {
                        recv: Box::new(recv),
                        method: MethodSel {
                            decl_class: ml.decl_class,
                            index: ml.index,
                        },
                        args: targs,
                    },
                })
            }
            ast::Expr::New { ty, args, span } => {
                let rty = self
                    .table
                    .resolve_type(self.type_params, ty)
                    .map_err(|d| self.diags.push(d))?;
                let Type::Object(cid, targs) = rty.clone() else {
                    let got = self.show(&rty);
                    self.err(*span, format!("cannot instantiate non-class type {got}"));
                    return Err(());
                };
                let info = self.table.class(cid);
                if info.is_interface {
                    self.err(
                        *span,
                        format!("cannot instantiate interface `{}`", info.name),
                    );
                    return Err(());
                }
                if info.is_abstract {
                    self.err(
                        *span,
                        format!("cannot instantiate abstract class `{}`", info.name),
                    );
                    return Err(());
                }
                let Some(ctor) = &info.ctor else {
                    self.err(*span, format!("`{}` has no constructor", info.name));
                    return Err(());
                };
                if ctor.params.len() != args.len() {
                    self.err(
                        *span,
                        format!(
                            "`{}` constructor expects {} argument(s), found {}",
                            info.name,
                            ctor.params.len(),
                            args.len()
                        ),
                    );
                    return Err(());
                }
                let mut targs_out = Vec::new();
                for (a, p) in args.iter().zip(&ctor.params) {
                    let want = p.ty.subst(&targs);
                    let te = self.expr(a)?;
                    targs_out.push(self.coerce(te, &want)?);
                }
                Ok(TExpr {
                    ty: rty,
                    span: *span,
                    kind: TExprKind::New {
                        class: cid,
                        targs,
                        args: targs_out,
                    },
                })
            }
            ast::Expr::NewArray { elem, len, span } => {
                let ety = self
                    .table
                    .resolve_type(self.type_params, elem)
                    .map_err(|d| self.diags.push(d))?;
                if ety == Type::Void {
                    self.err(*span, "array of void");
                    return Err(());
                }
                let tlen = self.expr(len)?;
                let tlen = self.coerce(tlen, &Type::Int)?;
                Ok(TExpr {
                    ty: Type::array(ety.clone()),
                    span: *span,
                    kind: TExprKind::NewArray {
                        elem: ety,
                        len: Box::new(tlen),
                    },
                })
            }
            ast::Expr::Index { arr, idx, span } => {
                let tarr = self.expr(arr)?;
                let Type::Array(elem) = tarr.ty.clone() else {
                    let got = self.show(&tarr.ty);
                    self.err(*span, format!("indexing non-array type {got}"));
                    return Err(());
                };
                let tidx = self.expr(idx)?;
                let tidx = self.coerce(tidx, &Type::Int)?;
                Ok(TExpr {
                    ty: (*elem).clone(),
                    span: *span,
                    kind: TExprKind::Index {
                        arr: Box::new(tarr),
                        idx: Box::new(tidx),
                    },
                })
            }
            ast::Expr::Unary { op, expr, span } => {
                let te = self.expr(expr)?;
                match op {
                    UnOp::Neg => {
                        let Some(k) = te.ty.prim_kind().filter(|k| k.is_numeric()) else {
                            let got = self.show(&te.ty);
                            self.err(*span, format!("cannot negate {got}"));
                            return Err(());
                        };
                        let _ = k;
                        Ok(TExpr {
                            ty: te.ty.clone(),
                            span: *span,
                            kind: TExprKind::Unary {
                                op: UnOp::Neg,
                                expr: Box::new(te),
                            },
                        })
                    }
                    UnOp::Not => {
                        if te.ty != Type::Boolean {
                            let got = self.show(&te.ty);
                            self.err(*span, format!("`!` requires boolean, found {got}"));
                            return Err(());
                        }
                        Ok(TExpr {
                            ty: Type::Boolean,
                            span: *span,
                            kind: TExprKind::Unary {
                                op: UnOp::Not,
                                expr: Box::new(te),
                            },
                        })
                    }
                }
            }
            ast::Expr::Binary { op, lhs, rhs, span } => {
                let l = self.expr(lhs)?;
                let r = self.expr(rhs)?;
                self.binary(*op, l, r, *span)
            }
            ast::Expr::Cast { ty, expr, span } => {
                let to = self
                    .table
                    .resolve_type(self.type_params, ty)
                    .map_err(|d| self.diags.push(d))?;
                let te = self.expr(expr)?;
                if let (Some(tk), Some(_)) = (to.prim_kind(), te.ty.prim_kind()) {
                    if tk == PrimKind::Boolean || te.ty == Type::Boolean {
                        if to != te.ty {
                            self.err(*span, "cannot cast between boolean and numeric types");
                            return Err(());
                        }
                        return Ok(te);
                    }
                    return Ok(TExpr {
                        ty: to,
                        span: *span,
                        kind: TExprKind::NumCast {
                            to: tk,
                            expr: Box::new(te),
                        },
                    });
                }
                if to.is_reference() && te.ty.is_reference() {
                    // Up- or down-cast along the hierarchy only.
                    let ok = self.table.is_subtype(&te.ty, &to)
                        || self.table.is_subtype(&to, &te.ty)
                        || matches!(te.ty, Type::Null);
                    if !ok {
                        let from = self.show(&te.ty);
                        let tos = self.show(&to);
                        self.err(
                            *span,
                            format!("cast between unrelated types {from} and {tos}"),
                        );
                        return Err(());
                    }
                    return Ok(TExpr {
                        ty: to.clone(),
                        span: *span,
                        kind: TExprKind::RefCast {
                            to,
                            expr: Box::new(te),
                        },
                    });
                }
                self.err(*span, "invalid cast");
                Err(())
            }
            ast::Expr::InstanceOf { expr, ty, span } => {
                let te = self.expr(expr)?;
                let to = self
                    .table
                    .resolve_type(self.type_params, ty)
                    .map_err(|d| self.diags.push(d))?;
                if !te.ty.is_reference() || !to.is_reference() {
                    self.err(*span, "instanceof requires reference types");
                    return Err(());
                }
                Ok(TExpr {
                    ty: Type::Boolean,
                    span: *span,
                    kind: TExprKind::InstanceOf {
                        expr: Box::new(te),
                        ty: to,
                    },
                })
            }
            ast::Expr::Ternary {
                cond,
                then_val,
                else_val,
                span,
            } => {
                let c = self.bool_expr(cond)?;
                let t = self.expr(then_val)?;
                let f = self.expr(else_val)?;
                let ty = if t.ty == f.ty {
                    t.ty.clone()
                } else if let (Some(a), Some(b)) = (t.ty.prim_kind(), f.ty.prim_kind()) {
                    match PrimKind::promote(a, b) {
                        Some(k) => prim_type(k),
                        None => {
                            self.err(*span, "incompatible ternary branches");
                            return Err(());
                        }
                    }
                } else if self.table.is_subtype(&t.ty, &f.ty) {
                    f.ty.clone()
                } else if self.table.is_subtype(&f.ty, &t.ty) {
                    t.ty.clone()
                } else {
                    self.err(*span, "incompatible ternary branches");
                    return Err(());
                };
                let t = self.coerce(t, &ty)?;
                let f = self.coerce(f, &ty)?;
                Ok(TExpr {
                    ty,
                    span: *span,
                    kind: TExprKind::Ternary {
                        cond: Box::new(c),
                        then_val: Box::new(t),
                        else_val: Box::new(f),
                    },
                })
            }
        }
    }

    fn field_access(&mut self, obj: &ast::Expr, name: &str, span: Span) -> CkResult<TExpr> {
        // `C.f` static access when `C` names a class and isn't shadowed.
        if let ast::Expr::Name(cname, _) = obj {
            if self.scope.lookup(cname).is_none()
                && self.table.lookup_field(self.class, cname).is_none()
            {
                if let Some(cid) = self.table.by_name(cname) {
                    let Some((idx, f)) = self.table.lookup_static(cid, name) else {
                        self.err(span, format!("no static field `{name}` on `{cname}`"));
                        return Err(());
                    };
                    return Ok(TExpr {
                        ty: f.ty.clone(),
                        span,
                        kind: TExprKind::GetStatic {
                            class: cid,
                            index: idx,
                        },
                    });
                }
            }
        }
        let tobj = self.expr(obj)?;
        if name == "length" {
            if let Type::Array(_) = tobj.ty {
                return Ok(TExpr {
                    ty: Type::Int,
                    span,
                    kind: TExprKind::ArrayLen(Box::new(tobj)),
                });
            }
        }
        let (cid, targs) = self.receiver_class(&tobj, span)?;
        let Some(fl) = self.table.lookup_field(cid, name) else {
            self.err(
                span,
                format!("no field `{name}` on `{}`", self.table.name(cid)),
            );
            return Err(());
        };
        let fty = fl.ty.subst(&targs);
        Ok(TExpr {
            ty: fty.clone(),
            span,
            kind: TExprKind::GetField {
                obj: Box::new(tobj),
                field: FieldSel {
                    owner: fl.owner,
                    slot: fl.slot,
                    ty: fty,
                },
            },
        })
    }

    /// Class + type args through which members of `recv` are looked up
    /// (type variables go through their declared bound).
    fn receiver_class(&mut self, recv: &TExpr, span: Span) -> CkResult<(ClassId, Vec<Type>)> {
        match &recv.ty {
            Type::Object(cid, targs) => Ok((*cid, targs.clone())),
            Type::Var(i) => match &self.type_params[*i as usize].bound {
                Type::Object(cid, targs) => Ok((*cid, targs.clone())),
                other => {
                    let got = self.show(other);
                    self.err(span, format!("type parameter bound {got} has no members"));
                    Err(())
                }
            },
            other => {
                let got = self.show(other);
                self.err(span, format!("member access on non-object type {got}"));
                Err(())
            }
        }
    }

    fn call(
        &mut self,
        recv: &ast::Expr,
        name: &str,
        args: &[ast::Expr],
        span: Span,
    ) -> CkResult<TExpr> {
        // Static call `C.m(...)`.
        if let ast::Expr::Name(cname, _) = recv {
            if self.scope.lookup(cname).is_none()
                && self.table.lookup_field(self.class, cname).is_none()
            {
                if let Some(cid) = self.table.by_name(cname) {
                    let Some(ml) = self.table.lookup_method(cid, name) else {
                        self.err(span, format!("no method `{name}` on `{cname}`"));
                        return Err(());
                    };
                    let m = self.table.method(ml.decl_class, ml.index);
                    if !m.is_static {
                        self.err(span, format!("`{cname}.{name}` is not static"));
                        return Err(());
                    }
                    let (targs, ret) = self.check_args(ml.decl_class, ml.index, &[], args, span)?;
                    return Ok(TExpr {
                        ty: ret,
                        span,
                        kind: TExprKind::StaticCall {
                            class: ml.decl_class,
                            index: ml.index,
                            args: targs,
                        },
                    });
                }
            }
        }
        // Unqualified call in a static method: the parser lowers `m()` to
        // `this.m()`; if we are static, resolve against the current class
        // as a static call instead of erroring on `this`.
        if self.is_static {
            if let ast::Expr::This(_) = recv {
                let Some(ml) = self.table.lookup_method(self.class, name) else {
                    self.err(
                        span,
                        format!("no method `{name}` on `{}`", self.table.name(self.class)),
                    );
                    return Err(());
                };
                let m = self.table.method(ml.decl_class, ml.index);
                if !m.is_static {
                    self.err(
                        span,
                        format!("instance method `{name}` called from static context"),
                    );
                    return Err(());
                }
                let (targs, ret) = self.check_args(ml.decl_class, ml.index, &[], args, span)?;
                return Ok(TExpr {
                    ty: ret,
                    span,
                    kind: TExprKind::StaticCall {
                        class: ml.decl_class,
                        index: ml.index,
                        args: targs,
                    },
                });
            }
        }
        let trecv = self.expr(recv)?;
        let (cid, class_targs) = self.receiver_class(&trecv, span)?;
        let Some(ml) = self.table.lookup_method(cid, name) else {
            self.err(
                span,
                format!("no method `{name}` on `{}`", self.table.name(cid)),
            );
            return Err(());
        };
        let m = self.table.method(ml.decl_class, ml.index);
        if m.is_static {
            // Permit `this.staticMethod()`-style calls by lowering to a
            // static call, matching Java.
            let (targs, ret) = self.check_args(ml.decl_class, ml.index, &[], args, span)?;
            return Ok(TExpr {
                ty: ret,
                span,
                kind: TExprKind::StaticCall {
                    class: ml.decl_class,
                    index: ml.index,
                    args: targs,
                },
            });
        }
        let subst: Vec<Type> = ml.subst.iter().map(|t| t.subst(&class_targs)).collect();
        let (targs, ret) = self.check_args(ml.decl_class, ml.index, &subst, args, span)?;
        Ok(TExpr {
            ty: ret,
            span,
            kind: TExprKind::Call {
                recv: Box::new(trecv),
                method: MethodSel {
                    decl_class: ml.decl_class,
                    index: ml.index,
                },
                args: targs,
            },
        })
    }

    /// Check argument expressions against the (substituted) signature of
    /// `(decl_class, index)`; returns typed args and the return type.
    fn check_args(
        &mut self,
        decl_class: ClassId,
        index: u32,
        subst: &[Type],
        args: &[ast::Expr],
        span: Span,
    ) -> CkResult<(Vec<TExpr>, Type)> {
        let m = self.table.method(decl_class, index);
        if m.params.len() != args.len() {
            self.err(
                span,
                format!(
                    "`{}` expects {} argument(s), found {}",
                    m.name,
                    m.params.len(),
                    args.len()
                ),
            );
            return Err(());
        }
        let mut out = Vec::new();
        for (a, p) in args.iter().zip(&m.params) {
            let want = p.ty.subst(subst);
            let te = self.expr(a)?;
            out.push(self.coerce(te, &want)?);
        }
        Ok((out, m.ret.subst(subst)))
    }

    fn binary(&mut self, op: BinOp, l: TExpr, r: TExpr, span: Span) -> CkResult<TExpr> {
        use BinOp::*;
        match op {
            And | Or => {
                if l.ty != Type::Boolean || r.ty != Type::Boolean {
                    self.err(span, "logical operator requires boolean operands");
                    return Err(());
                }
                Ok(TExpr {
                    ty: Type::Boolean,
                    span,
                    kind: TExprKind::Binary {
                        op,
                        operand_kind: PrimKind::Boolean,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                    },
                })
            }
            Eq | Ne if l.ty.is_reference() && r.ty.is_reference() => Ok(TExpr {
                ty: Type::Boolean,
                span,
                kind: TExprKind::RefEq {
                    negated: op == Ne,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                },
            }),
            Eq | Ne if l.ty == Type::Boolean && r.ty == Type::Boolean => Ok(TExpr {
                ty: Type::Boolean,
                span,
                kind: TExprKind::Binary {
                    op,
                    operand_kind: PrimKind::Boolean,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                },
            }),
            Shl | Shr | BitAnd | BitOr | BitXor => {
                let (Some(lk), Some(rk)) = (l.ty.prim_kind(), r.ty.prim_kind()) else {
                    self.err(span, "bitwise operator requires integer operands");
                    return Err(());
                };
                if !matches!(lk, PrimKind::Int | PrimKind::Long)
                    || !matches!(rk, PrimKind::Int | PrimKind::Long)
                {
                    self.err(span, "bitwise operator requires int or long operands");
                    return Err(());
                }
                let kind = PrimKind::promote(lk, rk).unwrap();
                let l = self.convert_to(l, kind);
                let r = self.convert_to(r, kind);
                Ok(TExpr {
                    ty: prim_type(kind),
                    span,
                    kind: TExprKind::Binary {
                        op,
                        operand_kind: kind,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                    },
                })
            }
            _ => {
                let (Some(lk), Some(rk)) = (l.ty.prim_kind(), r.ty.prim_kind()) else {
                    let lt = self.show(&l.ty);
                    let rt = self.show(&r.ty);
                    self.err(
                        span,
                        format!("arithmetic on non-numeric types {lt} and {rt}"),
                    );
                    return Err(());
                };
                let Some(kind) = PrimKind::promote(lk, rk) else {
                    self.err(span, "arithmetic on boolean operands");
                    return Err(());
                };
                let l = self.convert_to(l, kind);
                let r = self.convert_to(r, kind);
                let ty = if op.is_comparison() {
                    Type::Boolean
                } else {
                    prim_type(kind)
                };
                Ok(TExpr {
                    ty,
                    span,
                    kind: TExprKind::Binary {
                        op,
                        operand_kind: kind,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                    },
                })
            }
        }
    }

    fn convert_to(&mut self, e: TExpr, kind: PrimKind) -> TExpr {
        if e.ty.prim_kind() == Some(kind) {
            e
        } else {
            TExpr {
                ty: prim_type(kind),
                span: e.span,
                kind: TExprKind::Convert {
                    to: kind,
                    expr: Box::new(e),
                },
            }
        }
    }
}

fn prim_type(kind: PrimKind) -> Type {
    match kind {
        PrimKind::Int => Type::Int,
        PrimKind::Long => Type::Long,
        PrimKind::Float => Type::Float,
        PrimKind::Double => Type::Double,
        PrimKind::Boolean => Type::Boolean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_unit;
    use crate::table::build;

    fn check_ok(src: &str) -> ClassTable {
        let unit = parse_unit(0, src).expect("parse");
        let mut table = match build(vec![unit]) {
            Ok(t) => t,
            Err(ds) => panic!("build failed:\n{}", crate::span::render_diags(&ds)),
        };
        match check(&mut table) {
            Ok(()) => table,
            Err(ds) => panic!("typeck failed:\n{}", crate::span::render_diags(&ds)),
        }
    }

    fn check_err(src: &str) -> String {
        let unit = parse_unit(0, src).expect("parse");
        let mut table = build(vec![unit]).expect("table build");
        match check(&mut table) {
            Ok(()) => panic!("expected type error"),
            Err(ds) => crate::span::render_diags(&ds),
        }
    }

    #[test]
    fn checks_arithmetic_with_promotion() {
        let t = check_ok("class A { double m(int i, float f, double d) { return i + f * d; } }");
        let a = t.by_name("A").unwrap();
        let m = &t.class(a).methods[0];
        assert!(m.body.is_some());
        // Return expression is a double-typed binary.
        match &m.body.as_ref().unwrap().stmts[0] {
            TStmt::Return { value: Some(v), .. } => assert_eq!(v.ty, Type::Double),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inserts_convert_nodes() {
        let t = check_ok("class A { long m(int i) { return i; } }");
        let a = t.by_name("A").unwrap();
        match &t.class(a).methods[0].body.as_ref().unwrap().stmts[0] {
            TStmt::Return {
                value:
                    Some(TExpr {
                        kind: TExprKind::Convert { to, .. },
                        ..
                    }),
                ..
            } => {
                assert_eq!(*to, PrimKind::Long);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_narrowing_without_cast() {
        let msg = check_err("class A { int m(long v) { return v; } }");
        assert!(msg.contains("cast"), "{msg}");
    }

    #[test]
    fn allows_narrowing_with_cast() {
        check_ok("class A { int m(long v) { return (int) v; } }");
    }

    #[test]
    fn resolves_implicit_this_field() {
        let t = check_ok("class A { int x; int m() { return x; } }");
        let a = t.by_name("A").unwrap();
        match &t.class(a).methods[0].body.as_ref().unwrap().stmts[0] {
            TStmt::Return {
                value:
                    Some(TExpr {
                        kind: TExprKind::GetField { .. },
                        ..
                    }),
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn virtual_call_through_interface() {
        let t = check_ok(
            "interface Solver { float solve(float x); } \
             class A { float run(Solver s) { return s.solve(1.0f); } }",
        );
        let a = t.by_name("A").unwrap();
        match &t.class(a).methods[0].body.as_ref().unwrap().stmts[0] {
            TStmt::Return {
                value:
                    Some(TExpr {
                        kind: TExprKind::Call { method, .. },
                        ..
                    }),
                ..
            } => {
                assert_eq!(method.decl_class, t.by_name("Solver").unwrap());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn static_call_resolution() {
        check_ok(
            "class MathX { @Native(\"sqrt\") static double sqrt(double x); } \
             class A { double m() { return MathX.sqrt(2.0); } }",
        );
    }

    #[test]
    fn generic_method_call_substitutes() {
        check_ok(
            "class Cell { float v; Cell(float v0) { v = v0; } float val() { return v; } } \
             class Box<T extends Cell> { T item; Box(T i) { item = i; } T get() { return item; } } \
             class A { float m() { Box<Cell> b = new Box<Cell>(new Cell(1f)); return b.get().val(); } }",
        );
    }

    #[test]
    fn missing_return_detected() {
        let msg = check_err("class A { int m(boolean b) { if (b) { return 1; } } }");
        assert!(msg.contains("without returning"), "{msg}");
    }

    #[test]
    fn both_branches_return_is_ok() {
        check_ok("class A { int m(boolean b) { if (b) { return 1; } else { return 2; } } }");
    }

    #[test]
    fn rejects_assignment_to_final_local() {
        let msg = check_err("class A { void m() { final int x = 1; x = 2; } }");
        assert!(msg.contains("final"), "{msg}");
    }

    #[test]
    fn final_field_assignable_in_subclass_ctor_only() {
        check_ok(
            "class A { final int x; A() { x = 1; } } \
             class B extends A { B() { super(); x = 2; } }",
        );
        let msg = check_err("class A { final int x; A() { x = 1; } void m() { x = 3; } }");
        assert!(msg.contains("constructor"), "{msg}");
    }

    #[test]
    fn array_ops_typed() {
        check_ok(
            "class A { float sum(float[] a) { float s = 0f; \
             for (int i = 0; i < a.length; i++) { s += a[i]; } return s; } }",
        );
    }

    #[test]
    fn compound_assignment_narrows_back() {
        // `f += d` must compile: implicit cast back to float.
        check_ok("class A { void m(double d) { float f = 0f; f += d; } }");
    }

    #[test]
    fn break_outside_loop_rejected() {
        let msg = check_err("class A { void m() { break; } }");
        assert!(msg.contains("loop"), "{msg}");
    }

    #[test]
    fn ternary_and_refeq_type_check() {
        // These are *typeable* (jrules rejects them later).
        check_ok(
            "class A { int m(boolean b, Object x, Object y) { \
               int v = b ? 1 : 2; \
               boolean same = x == y; \
               if (same) { return v; } return 0; } }",
        );
    }

    #[test]
    fn null_assignable_to_reference() {
        check_ok("class A { Object m() { Object o = null; return o; } }");
    }

    #[test]
    fn void_call_as_statement_ok_but_not_as_value() {
        check_ok("class A { void a() { } void m() { a(); } }");
        let msg = check_err("class A { void a() { } int m() { return a() + 1; } }");
        assert!(msg.contains("non-numeric") || msg.contains("void"), "{msg}");
    }

    #[test]
    fn super_call_is_direct() {
        let t = check_ok(
            "class A { int m() { return 1; } } \
             class B extends A { int m() { return super.m() + 1; } }",
        );
        let b = t.by_name("B").unwrap();
        let mut found = false;
        t.class(b).methods[0]
            .body
            .as_ref()
            .unwrap()
            .walk_exprs(&mut |e| {
                if matches!(e.kind, TExprKind::DirectCall { .. }) {
                    found = true;
                }
            });
        assert!(found);
    }

    #[test]
    fn super_ctor_args_are_typed() {
        let t = check_ok(
            "class A { int x; A(int x0) { x = x0; } } \
             class B extends A { B() { super(41); } }",
        );
        let b = t.by_name("B").unwrap();
        assert_eq!(t.class(b).ctor.as_ref().unwrap().super_args.len(), 1);
    }

    #[test]
    fn field_initializers_typed() {
        let t = check_ok("class C { } class A { C c = new C(); int n = 3; }");
        let a = t.by_name("A").unwrap();
        assert!(t.class(a).fields.iter().all(|f| f.init.is_some()));
    }

    #[test]
    fn rejects_unknown_method_and_field() {
        let msg = check_err("class A { void m(A a) { a.nope(); } }");
        assert!(msg.contains("no method"), "{msg}");
        let msg = check_err("class A { int m(A a) { return a.nope; } }");
        assert!(msg.contains("no field"), "{msg}");
    }

    #[test]
    fn rejects_arg_count_mismatch() {
        let msg = check_err("class A { int f(int x) { return x; } int m() { return f(1, 2); } }");
        assert!(msg.contains("argument"), "{msg}");
    }

    #[test]
    fn instance_field_in_static_context_rejected() {
        let msg = check_err("class A { int x; static int m() { return x; } }");
        assert!(msg.contains("static"), "{msg}");
    }
}

//! The body type checker: turns untyped method/constructor bodies and field
//! initializers into typed bodies ([`TBody`]), resolving every name and
//! inserting explicit widening conversions.

use std::cell::RefCell;
use std::sync::Arc;

use crate::ast::{Args, BinOp, Block, Body, Expr, ExprId, NameId, Root, Stmt, StmtId, TyId, UnOp};
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

thread_local! {
    /// Where every body checked on this thread is built. The query layer
    /// checks one body per call, so a builder per call would grow every
    /// node vector from empty for each body.
    static BUILDER: RefCell<TBodyBuilder> = RefCell::default();
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
    let mut results: Vec<(ClassId, Member, Arc<TBody>)> = Vec::new();
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
pub fn check_member(table: &ClassTable, id: ClassId, member: Member) -> DiagResult<Arc<TBody>> {
    BUILDER.with_borrow_mut(|b| {
        b.clear();
        let checked = match member {
            Member::Method(mi) => check_method_body(table, id, mi as usize, b),
            Member::Ctor => check_ctor(table, id, b),
            Member::Init { is_static, index } => {
                check_field_init(table, id, is_static, index as usize, b)
            }
        };
        b.clear();
        checked
    })
}

/// Put a checked body into the table and release the untyped one.
pub fn install(table: &mut ClassTable, id: ClassId, member: Member, typed: Arc<TBody>) {
    let c = table.class_mut(id);
    match (member, typed.root()) {
        (Member::Method(mi), TRoot::Block(_)) => {
            let m = &mut c.methods[mi as usize];
            m.body = Some(typed);
            m.ast_body = None;
        }
        (Member::Ctor, TRoot::Ctor { .. }) => {
            let ct = c.ctor.as_mut().expect("install: class has no ctor");
            ct.body = Some(typed);
            ct.ast_body = None;
        }
        (Member::Init { is_static, index }, TRoot::Init(_)) => {
            let fields = if is_static {
                &mut c.statics
            } else {
                &mut c.fields
            };
            let f = &mut fields[index as usize];
            f.init = Some(typed);
            f.ast_init = None;
        }
        (member, root) => unreachable!("install: {member:?} is not a {root:?}"),
    }
}

fn check_field_init(
    table: &ClassTable,
    id: ClassId,
    is_static: bool,
    fi: usize,
    b: &mut TBodyBuilder,
) -> DiagResult<Arc<TBody>> {
    let info = table.class(id);
    let f = if is_static {
        &info.statics[fi]
    } else {
        &info.fields[fi]
    };
    let body = f
        .ast_init
        .as_deref()
        .expect("check_field_init: untyped initializer already released");
    let Root::Init(init) = body.root() else {
        unreachable!("a field initializer's body is an expression")
    };
    // Instance field initializers are checked in constructor context.
    let mut ck = Checker::new(table, id, body, is_static, f.ty.clone(), b);
    let typed = match ck.expr(init) {
        Ok(e) => ck.coerce(e, &f.ty).ok(),
        Err(()) => None,
    };
    ck.finish(
        typed.map(TRoot::Init),
        f.span,
        "field initializer failed to type check",
    )
}

fn check_method_body(
    table: &ClassTable,
    id: ClassId,
    mi: usize,
    b: &mut TBodyBuilder,
) -> DiagResult<Arc<TBody>> {
    let info = table.class(id);
    let m = &info.methods[mi];
    let body = m
        .ast_body
        .as_deref()
        .expect("check_method_body: untyped body already released");
    let Root::Block(block) = body.root() else {
        unreachable!("a method's body is a block")
    };
    let mut ck = Checker::new(table, id, body, m.is_static, m.ret.clone(), b);
    for p in &m.params {
        ck.scope
            .declare(body.find_name(&p.name), p.ty.clone(), p.is_final);
    }
    let tb = ck.block(block);
    let typed = ck.finish(
        Some(TRoot::Block(tb)),
        m.span,
        "method body failed to type check",
    )?;
    // Non-void methods must return on every path. A statement that failed
    // to check would be missing from `tb`, so only a clean body can tell.
    if m.ret != Type::Void && !block_always_returns(&typed, tb) {
        return Err(vec![Diagnostic::error(
            "typeck",
            m.span,
            format!(
                "method `{}::{}` may finish without returning a value",
                info.name, m.name
            ),
        )]);
    }
    Ok(typed)
}

/// The constructor of class `id`: super(...) arguments plus the body.
fn check_ctor(table: &ClassTable, id: ClassId, b: &mut TBodyBuilder) -> DiagResult<Arc<TBody>> {
    let info = table.class(id);
    let ctor = info.ctor.as_ref().expect("check_ctor: class has no ctor");
    let body = ctor
        .ast_body
        .as_deref()
        .expect("check_ctor: untyped body already released");
    let Root::Ctor {
        super_args,
        body: block,
    } = body.root()
    else {
        unreachable!("a constructor's body is a constructor")
    };
    let mut ck = Checker::new(table, id, body, false, Type::Void, b);
    ck.in_ctor = true;
    for p in &ctor.params {
        ck.scope
            .declare(body.find_name(&p.name), p.ty.clone(), p.is_final);
    }
    // super(...) arguments against the superclass constructor.
    let mark = ck.b.lists.mark();
    let sup = info.superclass.clone();
    match (super_args, sup) {
        (Some(args), Some((sid, sargs))) if sid != OBJECT => {
            ck.super_ctor_args(sid, &sargs, args, ctor.span);
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
            ck.super_ctor_args(sid, &sargs, Args::default(), ctor.span);
        }
        _ => {}
    }
    let super_args = ck.b.lists.list(mark);
    let tb = ck.block(block);
    ck.finish(
        Some(TRoot::Ctor {
            super_args,
            body: tb,
        }),
        ctor.span,
        "constructor failed to type check",
    )
}

/// Conservative "always returns" analysis used for the missing-return check.
fn block_always_returns(body: &TBody, b: TBlock) -> bool {
    body.list(b).any(|s| match body.stmt(s) {
        TStmt::Return { .. } => true,
        TStmt::If {
            then_branch,
            else_branch: Some(e),
            ..
        } => block_always_returns(body, then_branch) && block_always_returns(body, e),
        TStmt::Block(b) => block_always_returns(body, b),
        _ => false,
    })
}

/// The locals in scope, innermost last, each keyed by its name in the
/// body (`None` for a parameter the body never names).
struct Scope {
    vars: Vec<(Option<NameId>, u32, Type, bool)>,
    /// Where each open block's locals start in `vars`.
    blocks: Vec<usize>,
    next_slot: u32,
    max_slot: u32,
}

impl Scope {
    fn new() -> Self {
        Scope {
            vars: Vec::new(),
            blocks: Vec::new(),
            next_slot: 0,
            max_slot: 0,
        }
    }

    fn declare(&mut self, name: Option<NameId>, ty: Type, is_final: bool) -> u32 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.max_slot = self.max_slot.max(self.next_slot);
        self.vars.push((name, slot, ty, is_final));
        slot
    }

    fn lookup(&self, name: NameId) -> Option<(u32, &Type, bool)> {
        (self.vars.iter().rev())
            .find(|v| v.0 == Some(name))
            .map(|(_, s, t, f)| (*s, t, *f))
    }

    fn declared_in_scope(&self, name: NameId) -> bool {
        self.vars.iter().any(|v| v.0 == Some(name))
    }

    fn push(&mut self) {
        self.blocks.push(self.vars.len());
    }

    fn pop(&mut self) {
        let start = self.blocks.pop().expect("a block to close");
        self.vars.truncate(start);
    }
}

struct Checker<'t, 'b> {
    table: &'t ClassTable,
    class: ClassId,
    type_params: &'t [TypeParamInfo],
    /// The body being checked.
    body: &'t Body,
    /// Where its typed twin is being built.
    b: &'b mut TBodyBuilder,
    is_static: bool,
    in_ctor: bool,
    ret: Type,
    scope: Scope,
    loop_depth: u32,
    diags: Vec<Diagnostic>,
}

type CkResult<T> = Result<T, ()>;

impl<'t, 'b> Checker<'t, 'b> {
    fn new(
        table: &'t ClassTable,
        class: ClassId,
        body: &'t Body,
        is_static: bool,
        ret: Type,
        b: &'b mut TBodyBuilder,
    ) -> Self {
        Checker {
            table,
            type_params: &table.class(class).type_params,
            class,
            body,
            b,
            is_static,
            in_ctor: false,
            ret,
            scope: Scope::new(),
            loop_depth: 0,
            diags: Vec::new(),
        }
    }

    /// Per-body result policy: any diagnostic fails the body; a silent
    /// failure still produces a diagnostic so callers never lose an error.
    fn finish(self, root: Option<TRoot>, span: Span, fallback: &str) -> DiagResult<Arc<TBody>> {
        if !self.diags.is_empty() {
            return Err(self.diags);
        }
        match root {
            Some(root) => Ok(self.b.finish(root, self.scope.max_slot)),
            None => Err(vec![Diagnostic::error("typeck", span, fallback)]),
        }
    }

    fn err(&mut self, span: Span, msg: impl Into<String>) {
        self.diags.push(Diagnostic::error("typeck", span, msg));
    }

    fn show(&self, t: &Type) -> String {
        self.table.show_type(t)
    }

    /// The type of a checked expression.
    fn ty(&self, e: TExprId) -> &Type {
        self.b.ty(e)
    }

    /// Add an expression node of type `ty`.
    fn typed(&mut self, e: TExpr, ty: &Type, span: Span) -> CkResult<TExprId> {
        Ok(self.b.expr(e, ty, span))
    }

    fn resolve(&mut self, ty: TyId) -> CkResult<Type> {
        let ty = self.body.type_ref(ty);
        (self.table.resolve_type(self.type_params, &ty)).map_err(|d| self.diags.push(d))
    }

    /// `name` as a class name: a name that no local or field shadows.
    fn class_named(&self, name: NameId) -> Option<ClassId> {
        let text = self.body.name(name);
        if self.scope.lookup(name).is_some() || self.table.lookup_field(self.class, text).is_some()
        {
            return None;
        }
        self.table.by_name(text)
    }

    /// The typed `super(...)` arguments, pushed onto the list the caller
    /// opened; an argument that fails to check is reported and left out.
    fn super_ctor_args(&mut self, sid: ClassId, sargs: &[Type], args: Args, span: Span) {
        let Some(sctor) = &self.table.class(sid).ctor else {
            self.err(
                span,
                format!("superclass `{}` has no constructor", self.table.name(sid)),
            );
            return;
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
            return;
        }
        for (a, p) in self.body.list(args).zip(&sctor.params) {
            let want = p.ty.subst(sargs);
            let mark = self.b.lists.mark();
            match self.expr(a).and_then(|e| self.coerce(e, &want)) {
                Ok(e) => self.b.lists.push(e.0),
                Err(()) => self.b.lists.truncate(mark),
            }
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn block(&mut self, blk: Block) -> TBlock {
        self.scope.push();
        let mark = self.b.lists.mark();
        for s in self.body.list(blk) {
            // A statement that fails is reported and left out, with any
            // list it left open.
            let at = self.b.lists.mark();
            match self.stmt(s) {
                Ok(ts) => self.b.lists.push(ts.0),
                Err(()) => self.b.lists.truncate(at),
            }
        }
        self.scope.pop();
        self.b.lists.list(mark)
    }

    fn stmt(&mut self, s: StmtId) -> CkResult<TStmtId> {
        let body = self.body;
        let span = body.stmt_span(s);
        let ts = match body.stmt(s) {
            Stmt::Local {
                name,
                ty,
                init,
                is_final,
            } => {
                let rty = self.resolve(ty)?;
                if rty == Type::Void {
                    self.err(span, "local variable of type void");
                    return Err(());
                }
                if self.scope.declared_in_scope(name) {
                    self.err(span, format!("duplicate local `{}`", body.name(name)));
                }
                let tinit = match init {
                    Some(e) => {
                        let te = self.expr(e)?;
                        Some(self.coerce(te, &rty)?)
                    }
                    None => None,
                };
                let ty = self.b.intern(&rty);
                let slot = self.scope.declare(Some(name), rty, is_final);
                TStmt::Local {
                    slot,
                    ty,
                    init: tinit,
                }
            }
            Stmt::Assign { target, op, value } => {
                return self.assign(target, op, Some(value), span);
            }
            Stmt::IncDec { target, inc } => {
                let op = if inc { BinOp::Add } else { BinOp::Sub };
                return self.assign(target, Some(op), None, span);
            }
            Stmt::Expr(e) => {
                let te = self.expr(e)?;
                let span = self.b.expr_span(te);
                match self.b.get(te) {
                    TExpr::Call { .. }
                    | TExpr::DirectCall { .. }
                    | TExpr::StaticCall { .. }
                    | TExpr::New { .. } => {}
                    _ => self.err(span, "expression statement has no effect"),
                }
                return Ok(self.b.stmt(TStmt::Expr(te), span));
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.bool_expr(cond)?;
                let t = self.block(then_branch);
                let e = else_branch.map(|b| self.block(b));
                TStmt::If {
                    cond: c,
                    then_branch: t,
                    else_branch: e,
                }
            }
            Stmt::While { cond, body } => {
                let c = self.bool_expr(cond)?;
                self.loop_depth += 1;
                let b = self.block(body);
                self.loop_depth -= 1;
                TStmt::While { cond: c, body: b }
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                self.scope.push();
                let ti = match init {
                    Some(s) => Some(self.stmt(s)?),
                    None => None,
                };
                let tc = match cond {
                    Some(c) => Some(self.bool_expr(c)?),
                    None => None,
                };
                let tu = match update {
                    Some(s) => Some(self.stmt(s)?),
                    None => None,
                };
                self.loop_depth += 1;
                let tb = self.block(body);
                self.loop_depth -= 1;
                self.scope.pop();
                TStmt::For {
                    init: ti,
                    cond: tc,
                    update: tu,
                    body: tb,
                }
            }
            Stmt::Return { value } => {
                let tv = match (value, &self.ret) {
                    (None, Type::Void) => None,
                    (None, r) => {
                        let msg = format!("missing return value of type {}", self.show(r));
                        self.err(span, msg);
                        return Err(());
                    }
                    (Some(_), Type::Void) => {
                        self.err(span, "void method returns a value");
                        return Err(());
                    }
                    (Some(e), _) => {
                        let te = self.expr(e)?;
                        let want = self.ret.clone();
                        Some(self.coerce(te, &want)?)
                    }
                };
                TStmt::Return { value: tv }
            }
            Stmt::Break => {
                if self.loop_depth == 0 {
                    self.err(span, "break outside of a loop");
                }
                TStmt::Break
            }
            Stmt::Continue => {
                if self.loop_depth == 0 {
                    self.err(span, "continue outside of a loop");
                }
                TStmt::Continue
            }
            Stmt::Block(b) => {
                let tb = self.block(b);
                // A block reads as where its first statement is.
                let span = (self.b.first(tb)).map_or(Span::default(), |s| self.b.stmt_span(s));
                return Ok(self.b.stmt(TStmt::Block(tb), span));
            }
        };
        Ok(self.b.stmt(ts, span))
    }

    /// `target op= value`; a `value` of `None` is the `1` of `target++`
    /// or `target--`.
    fn assign(
        &mut self,
        target: ExprId,
        op: Option<BinOp>,
        value: Option<ExprId>,
        span: Span,
    ) -> CkResult<TStmtId> {
        let body = self.body;
        let tspan = body.expr_span(target);
        let ts = match body.expr(target) {
            Expr::Name(n) => {
                let name = body.name(n);
                if let Some((slot, ty, is_final)) = self.scope.lookup(n) {
                    let ty = ty.clone();
                    if is_final {
                        self.err(tspan, format!("assignment to final variable `{name}`"));
                    }
                    let v = self.assign_value(target, op, value, &ty, span)?;
                    TStmt::AssignLocal { slot, value: v }
                } else if let Some(fl) = self.table.lookup_field(self.class, name) {
                    // Implicit this.field of the current class.
                    if self.is_static {
                        self.err(tspan, format!("instance field `{name}` in static context"));
                        return Err(());
                    }
                    self.check_final_field_write(fl.is_final, fl.owner, tspan, name);
                    let obj = self.typed(TExpr::This, &Type::object(self.class), tspan)?;
                    let v = self.assign_value(target, op, value, &fl.ty, span)?;
                    let field = FieldSel {
                        owner: fl.owner,
                        slot: fl.slot,
                        ty: self.b.intern(&fl.ty),
                    };
                    TStmt::AssignField {
                        obj,
                        field,
                        value: v,
                    }
                } else if let Some((idx, f)) = self.table.lookup_static(self.class, name) {
                    // Static field of the current class.
                    if f.is_final {
                        self.err(tspan, format!("assignment to final static `{name}`"));
                    }
                    let v = self.assign_value(target, op, value, &f.ty, span)?;
                    TStmt::AssignStatic {
                        class: self.class,
                        index: idx,
                        value: v,
                    }
                } else {
                    self.err(tspan, format!("unknown variable `{name}`"));
                    return Err(());
                }
            }
            Expr::Field { obj, name } => {
                let name = body.name(name);
                // Static field of another class: `C.f = ...`.
                if let Expr::Name(c) = body.expr(obj) {
                    if let Some(cid) = self.class_named(c) {
                        let Some((idx, f)) = self.table.lookup_static(cid, name) else {
                            let cname = body.name(c);
                            self.err(tspan, format!("no static field `{name}` on `{cname}`"));
                            return Err(());
                        };
                        if f.is_final {
                            self.err(tspan, format!("assignment to final static `{name}`"));
                        }
                        let v = self.assign_value(target, op, value, &f.ty, span)?;
                        let ts = TStmt::AssignStatic {
                            class: cid,
                            index: idx,
                            value: v,
                        };
                        return Ok(self.b.stmt(ts, span));
                    }
                }
                let tobj = self.expr(obj)?;
                let Type::Object(cid, targs) = self.ty(tobj).clone() else {
                    let got = self.show(self.ty(tobj));
                    self.err(tspan, format!("field assignment on non-object type {got}"));
                    return Err(());
                };
                let Some(fl) = self.table.lookup_field(cid, name) else {
                    self.err(
                        tspan,
                        format!("no field `{name}` on `{}`", self.table.name(cid)),
                    );
                    return Err(());
                };
                self.check_final_field_write(fl.is_final, fl.owner, tspan, name);
                let fty = fl.ty.subst(&targs);
                let v = self.assign_value(target, op, value, &fty, span)?;
                TStmt::AssignField {
                    obj: tobj,
                    field: FieldSel {
                        owner: fl.owner,
                        slot: fl.slot,
                        ty: self.b.intern(&fty),
                    },
                    value: v,
                }
            }
            Expr::Index { arr, idx } => {
                let tarr = self.expr(arr)?;
                let Type::Array(elem) = self.ty(tarr).clone() else {
                    let got = self.show(self.ty(tarr));
                    self.err(tspan, format!("indexing non-array type {got}"));
                    return Err(());
                };
                let tidx = self.expr(idx)?;
                let tidx = self.coerce(tidx, &Type::Int)?;
                let v = self.assign_value(target, op, value, &elem, span)?;
                TStmt::AssignIndex {
                    arr: tarr,
                    idx: tidx,
                    value: v,
                }
            }
            other => {
                unreachable!("the parser assigns to names, fields and elements only: {other:?}")
            }
        };
        Ok(self.b.stmt(ts, span))
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

    /// Type the RHS of an assignment (`value` as for [`Self::assign`]),
    /// folding compound operators.
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
        target: ExprId,
        op: Option<BinOp>,
        value: Option<ExprId>,
        target_ty: &Type,
        span: Span,
    ) -> CkResult<TExprId> {
        let Some(op) = op else {
            let v = self.expr(value.expect("a plain assignment has a value"))?;
            return self.coerce(v, target_ty);
        };
        // A compound assignment reads the target as an expression.
        let lhs = self.expr(target)?;
        let rhs = match value {
            Some(v) => self.expr(v)?,
            None => self.typed(TExpr::Int(1), &Type::Int, span)?,
        };
        let bin = self.binary(op, lhs, rhs, span)?;
        // Java compound assignment implicitly casts back.
        if let Some(kind) = target_ty.prim_kind() {
            if self.ty(bin).prim_kind() == Some(kind) {
                Ok(bin)
            } else {
                self.typed(
                    TExpr::NumCast {
                        to: kind,
                        expr: bin,
                    },
                    target_ty,
                    span,
                )
            }
        } else {
            self.err(span, "compound assignment on non-numeric target");
            Err(())
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn bool_expr(&mut self, e: ExprId) -> CkResult<TExprId> {
        let te = self.expr(e)?;
        if *self.ty(te) != Type::Boolean {
            let got = self.show(self.ty(te));
            self.err(
                self.b.expr_span(te),
                format!("expected boolean, found {got}"),
            );
            return Err(());
        }
        Ok(te)
    }

    /// Insert a widening conversion or report an assignability error.
    fn coerce(&mut self, e: TExprId, want: &Type) -> CkResult<TExprId> {
        let ty = self.ty(e);
        if ty == want {
            return Ok(e);
        }
        let span = self.b.expr_span(e);
        if want.is_primitive() && ty.is_primitive() {
            if want.widens_from(ty) {
                let kind = want.prim_kind().unwrap();
                return self.typed(TExpr::Convert { to: kind, expr: e }, want, span);
            }
            let got = self.show(ty);
            let w = self.show(want);
            self.err(
                span,
                format!("cannot implicitly convert {got} to {w} (add a cast)"),
            );
            return Err(());
        }
        if self.table.is_subtype(ty, want) {
            return Ok(e);
        }
        // Type variables are assignable to their bound.
        if let Type::Var(i) = ty {
            let bound = &self.type_params[*i as usize].bound;
            if self.table.is_subtype(bound, want) || bound == want {
                return Ok(e);
            }
        }
        let got = self.show(ty);
        let w = self.show(want);
        self.err(span, format!("expected {w}, found {got}"));
        Err(())
    }

    fn expr(&mut self, e: ExprId) -> CkResult<TExprId> {
        let body = self.body;
        let s = body.expr_span(e);
        match body.expr(e) {
            Expr::IntLit(v) => {
                if v < i32::MIN as i64 || v > i32::MAX as i64 {
                    self.err(s, "int literal out of 32-bit range (use an L suffix)");
                    return Err(());
                }
                self.typed(TExpr::Int(v as i32), &Type::Int, s)
            }
            Expr::LongLit(v) => self.typed(TExpr::Long(v), &Type::Long, s),
            Expr::FloatLit(v) => self.typed(TExpr::Float(v), &Type::Float, s),
            Expr::DoubleLit(v) => self.typed(TExpr::Double(v), &Type::Double, s),
            Expr::BoolLit(v) => self.typed(TExpr::Bool(v), &Type::Boolean, s),
            Expr::NullLit => self.typed(TExpr::Null, &Type::Null, s),
            Expr::StrLit(v) => {
                let text = self.b.intern_str(body.name(v));
                self.typed(TExpr::Str(text), &Type::Str, s)
            }
            Expr::This => {
                if self.is_static {
                    self.err(s, "`this` in a static context");
                    return Err(());
                }
                let targs: Vec<Type> = (0..self.type_params.len())
                    .map(|i| Type::Var(i as u32))
                    .collect();
                self.typed(TExpr::This, &Type::Object(self.class, targs), s)
            }
            Expr::Name(n) => {
                if let Some((slot, ty, _)) = self.scope.lookup(n) {
                    return Ok(self.b.expr(TExpr::Local(slot), ty, s));
                }
                let name = body.name(n);
                if let Some(fl) = self.table.lookup_field(self.class, name) {
                    if self.is_static {
                        self.err(s, format!("instance field `{name}` in static context"));
                        return Err(());
                    }
                    let obj = self.typed(TExpr::This, &Type::object(self.class), s)?;
                    let field = FieldSel {
                        owner: fl.owner,
                        slot: fl.slot,
                        ty: self.b.intern(&fl.ty),
                    };
                    return self.typed(TExpr::GetField { obj, field }, &fl.ty, s);
                }
                if let Some((idx, f)) = self.table.lookup_static(self.class, name) {
                    let kind = TExpr::GetStatic {
                        class: self.class,
                        index: idx,
                    };
                    return self.typed(kind, &f.ty, s);
                }
                if self.table.by_name(name).is_some() {
                    self.err(s, format!("class `{name}` used as a value"));
                } else {
                    self.err(s, format!("unknown name `{name}`"));
                }
                Err(())
            }
            Expr::Field { obj, name } => self.field_access(obj, body.name(name), s),
            Expr::Call { recv, name, args } => self.call(recv, body.name(name), args, s),
            Expr::SuperCall { name, args } => {
                let name = body.name(name);
                if self.is_static {
                    self.err(s, "`super` in a static context");
                    return Err(());
                }
                let Some((sid, sargs)) = self.table.class(self.class).superclass.clone() else {
                    self.err(s, "`super` call but no superclass");
                    return Err(());
                };
                let Some(ml) = self.table.lookup_method(sid, name) else {
                    self.err(
                        s,
                        format!(
                            "no method `{name}` on superclass `{}`",
                            self.table.name(sid)
                        ),
                    );
                    return Err(());
                };
                let subst: Vec<Type> = ml.subst.iter().map(|t| t.subst(&sargs)).collect();
                let recv = self.typed(TExpr::This, &Type::object(self.class), s)?;
                let (args, ret) = self.check_args(ml.decl_class, ml.index, &subst, args, s)?;
                let kind = TExpr::DirectCall {
                    recv,
                    method: MethodSel {
                        decl_class: ml.decl_class,
                        index: ml.index,
                    },
                    args,
                };
                self.typed(kind, &ret, s)
            }
            Expr::New { ty, args } => {
                let rty = self.resolve(ty)?;
                let Type::Object(cid, targs) = &rty else {
                    let got = self.show(&rty);
                    self.err(s, format!("cannot instantiate non-class type {got}"));
                    return Err(());
                };
                let cid = *cid;
                let info = self.table.class(cid);
                if info.is_interface {
                    self.err(s, format!("cannot instantiate interface `{}`", info.name));
                    return Err(());
                }
                if info.is_abstract {
                    self.err(
                        s,
                        format!("cannot instantiate abstract class `{}`", info.name),
                    );
                    return Err(());
                }
                let Some(ctor) = &info.ctor else {
                    self.err(s, format!("`{}` has no constructor", info.name));
                    return Err(());
                };
                if ctor.params.len() != args.len() {
                    self.err(
                        s,
                        format!(
                            "`{}` constructor expects {} argument(s), found {}",
                            info.name,
                            ctor.params.len(),
                            args.len()
                        ),
                    );
                    return Err(());
                }
                let args = self.arg_list(args, |i| ctor.params[i].ty.subst(targs))?;
                self.typed(TExpr::New { class: cid, args }, &rty, s)
            }
            Expr::NewArray { elem, len } => {
                let ety = self.resolve(elem)?;
                if ety == Type::Void {
                    self.err(s, "array of void");
                    return Err(());
                }
                let tlen = self.expr(len)?;
                let tlen = self.coerce(tlen, &Type::Int)?;
                let kind = TExpr::NewArray {
                    elem: self.b.intern(&ety),
                    len: tlen,
                };
                self.typed(kind, &Type::array(ety), s)
            }
            Expr::Index { arr, idx } => {
                let tarr = self.expr(arr)?;
                let Type::Array(elem) = self.ty(tarr).clone() else {
                    let got = self.show(self.ty(tarr));
                    self.err(s, format!("indexing non-array type {got}"));
                    return Err(());
                };
                let tidx = self.expr(idx)?;
                let tidx = self.coerce(tidx, &Type::Int)?;
                let kind = TExpr::Index {
                    arr: tarr,
                    idx: tidx,
                };
                self.typed(kind, &elem, s)
            }
            Expr::Unary { op, expr } => {
                let te = self.expr(expr)?;
                let ty = self.ty(te).clone();
                match op {
                    UnOp::Neg => {
                        if !ty.prim_kind().is_some_and(|k| k.is_numeric()) {
                            let got = self.show(&ty);
                            self.err(s, format!("cannot negate {got}"));
                            return Err(());
                        }
                        self.typed(TExpr::Unary { op, expr: te }, &ty, s)
                    }
                    UnOp::Not => {
                        if ty != Type::Boolean {
                            let got = self.show(&ty);
                            self.err(s, format!("`!` requires boolean, found {got}"));
                            return Err(());
                        }
                        self.typed(TExpr::Unary { op, expr: te }, &Type::Boolean, s)
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.expr(lhs)?;
                let r = self.expr(rhs)?;
                self.binary(op, l, r, s)
            }
            Expr::Cast { ty, expr } => {
                let to = self.resolve(ty)?;
                let te = self.expr(expr)?;
                let from = self.ty(te).clone();
                if let (Some(tk), Some(_)) = (to.prim_kind(), from.prim_kind()) {
                    if tk == PrimKind::Boolean || from == Type::Boolean {
                        if to != from {
                            self.err(s, "cannot cast between boolean and numeric types");
                            return Err(());
                        }
                        return Ok(te);
                    }
                    return self.typed(TExpr::NumCast { to: tk, expr: te }, &to, s);
                }
                if to.is_reference() && from.is_reference() {
                    // Up- or down-cast along the hierarchy only.
                    let ok = self.table.is_subtype(&from, &to)
                        || self.table.is_subtype(&to, &from)
                        || matches!(from, Type::Null);
                    if !ok {
                        let from = self.show(&from);
                        let tos = self.show(&to);
                        self.err(s, format!("cast between unrelated types {from} and {tos}"));
                        return Err(());
                    }
                    let kind = TExpr::RefCast {
                        to: self.b.intern(&to),
                        expr: te,
                    };
                    return self.typed(kind, &to, s);
                }
                self.err(s, "invalid cast");
                Err(())
            }
            Expr::InstanceOf { expr, ty } => {
                let te = self.expr(expr)?;
                let to = self.resolve(ty)?;
                if !self.ty(te).is_reference() || !to.is_reference() {
                    self.err(s, "instanceof requires reference types");
                    return Err(());
                }
                let kind = TExpr::InstanceOf {
                    expr: te,
                    ty: self.b.intern(&to),
                };
                self.typed(kind, &Type::Boolean, s)
            }
            Expr::Ternary {
                cond,
                then_val,
                else_val,
            } => {
                let c = self.bool_expr(cond)?;
                let t = self.expr(then_val)?;
                let f = self.expr(else_val)?;
                let (tt, ft) = (self.ty(t), self.ty(f));
                let ty = if tt == ft {
                    tt.clone()
                } else if let (Some(a), Some(b)) = (tt.prim_kind(), ft.prim_kind()) {
                    match PrimKind::promote(a, b) {
                        Some(k) => prim_type(k),
                        None => {
                            self.err(s, "incompatible ternary branches");
                            return Err(());
                        }
                    }
                } else if self.table.is_subtype(tt, ft) {
                    ft.clone()
                } else if self.table.is_subtype(ft, tt) {
                    tt.clone()
                } else {
                    self.err(s, "incompatible ternary branches");
                    return Err(());
                };
                let t = self.coerce(t, &ty)?;
                let f = self.coerce(f, &ty)?;
                let kind = TExpr::Ternary {
                    cond: c,
                    then_val: t,
                    else_val: f,
                };
                self.typed(kind, &ty, s)
            }
        }
    }

    fn field_access(&mut self, obj: ExprId, name: &str, span: Span) -> CkResult<TExprId> {
        // `C.f` static access when `C` names a class and isn't shadowed.
        if let Expr::Name(c) = self.body.expr(obj) {
            if let Some(cid) = self.class_named(c) {
                let Some((idx, f)) = self.table.lookup_static(cid, name) else {
                    let cname = self.body.name(c);
                    self.err(span, format!("no static field `{name}` on `{cname}`"));
                    return Err(());
                };
                let kind = TExpr::GetStatic {
                    class: cid,
                    index: idx,
                };
                return self.typed(kind, &f.ty, span);
            }
        }
        let tobj = self.expr(obj)?;
        if name == "length" {
            if let Type::Array(_) = self.ty(tobj) {
                return self.typed(TExpr::ArrayLen(tobj), &Type::Int, span);
            }
        }
        let (cid, targs) = self.receiver_class(tobj, span)?;
        let Some(fl) = self.table.lookup_field(cid, name) else {
            self.err(
                span,
                format!("no field `{name}` on `{}`", self.table.name(cid)),
            );
            return Err(());
        };
        let fty = fl.ty.subst(&targs);
        let field = FieldSel {
            owner: fl.owner,
            slot: fl.slot,
            ty: self.b.intern(&fty),
        };
        self.typed(TExpr::GetField { obj: tobj, field }, &fty, span)
    }

    /// Class + type args through which members of `recv` are looked up
    /// (type variables go through their declared bound).
    fn receiver_class(&mut self, recv: TExprId, span: Span) -> CkResult<(ClassId, Vec<Type>)> {
        let ty = match self.ty(recv) {
            Type::Var(i) => &self.type_params[*i as usize].bound,
            ty => ty,
        };
        if let Type::Object(cid, targs) = ty {
            return Ok((*cid, targs.clone()));
        }
        let msg = match self.ty(recv) {
            Type::Var(_) => format!("type parameter bound {} has no members", self.show(ty)),
            _ => format!("member access on non-object type {}", self.show(ty)),
        };
        self.err(span, msg);
        Err(())
    }

    fn call(&mut self, recv: ExprId, name: &str, args: Args, span: Span) -> CkResult<TExprId> {
        // Static call `C.m(...)`.
        if let Expr::Name(c) = self.body.expr(recv) {
            if let Some(cid) = self.class_named(c) {
                let cname = self.body.name(c);
                let Some(ml) = self.table.lookup_method(cid, name) else {
                    self.err(span, format!("no method `{name}` on `{cname}`"));
                    return Err(());
                };
                let m = self.table.method(ml.decl_class, ml.index);
                if !m.is_static {
                    self.err(span, format!("`{cname}.{name}` is not static"));
                    return Err(());
                }
                return self.static_call(ml.decl_class, ml.index, args, span);
            }
        }
        // Unqualified call in a static method: the parser lowers `m()` to
        // `this.m()`; if we are static, resolve against the current class
        // as a static call instead of erroring on `this`.
        if self.is_static && self.body.expr(recv) == Expr::This {
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
            return self.static_call(ml.decl_class, ml.index, args, span);
        }
        let trecv = self.expr(recv)?;
        let (cid, class_targs) = self.receiver_class(trecv, span)?;
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
            return self.static_call(ml.decl_class, ml.index, args, span);
        }
        let subst: Vec<Type> = ml.subst.iter().map(|t| t.subst(&class_targs)).collect();
        let (args, ret) = self.check_args(ml.decl_class, ml.index, &subst, args, span)?;
        let kind = TExpr::Call {
            recv: trecv,
            method: MethodSel {
                decl_class: ml.decl_class,
                index: ml.index,
            },
            args,
        };
        self.typed(kind, &ret, span)
    }

    fn static_call(
        &mut self,
        class: ClassId,
        index: u32,
        args: Args,
        span: Span,
    ) -> CkResult<TExprId> {
        let (args, ret) = self.check_args(class, index, &[], args, span)?;
        self.typed(TExpr::StaticCall { class, index, args }, &ret, span)
    }

    /// Check argument expressions against the (substituted) signature of
    /// `(decl_class, index)`; returns typed args and the return type.
    fn check_args(
        &mut self,
        decl_class: ClassId,
        index: u32,
        subst: &[Type],
        args: Args,
        span: Span,
    ) -> CkResult<(TArgs, Type)> {
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
        let out = self.arg_list(args, |i| m.params[i].ty.subst(subst))?;
        Ok((out, m.ret.subst(subst)))
    }

    /// Each argument checked and converted to `want(i)`, as a list.
    fn arg_list(&mut self, args: Args, want: impl Fn(usize) -> Type) -> CkResult<TArgs> {
        let mark = self.b.lists.mark();
        for (i, a) in self.body.list(args).enumerate() {
            let want = want(i);
            let te = self.expr(a)?;
            let te = self.coerce(te, &want)?;
            self.b.lists.push(te.0);
        }
        Ok(self.b.lists.list(mark))
    }

    fn binary(&mut self, op: BinOp, l: TExprId, r: TExprId, span: Span) -> CkResult<TExprId> {
        use BinOp::*;
        let (lt, rt) = (self.ty(l), self.ty(r));
        match op {
            And | Or => {
                if *lt != Type::Boolean || *rt != Type::Boolean {
                    self.err(span, "logical operator requires boolean operands");
                    return Err(());
                }
                let kind = TExpr::Binary {
                    op,
                    operand_kind: PrimKind::Boolean,
                    lhs: l,
                    rhs: r,
                };
                self.typed(kind, &Type::Boolean, span)
            }
            Eq | Ne if lt.is_reference() && rt.is_reference() => {
                let kind = TExpr::RefEq {
                    negated: op == Ne,
                    lhs: l,
                    rhs: r,
                };
                self.typed(kind, &Type::Boolean, span)
            }
            Eq | Ne if *lt == Type::Boolean && *rt == Type::Boolean => {
                let kind = TExpr::Binary {
                    op,
                    operand_kind: PrimKind::Boolean,
                    lhs: l,
                    rhs: r,
                };
                self.typed(kind, &Type::Boolean, span)
            }
            Shl | Shr | BitAnd | BitOr | BitXor => {
                let (Some(lk), Some(rk)) = (lt.prim_kind(), rt.prim_kind()) else {
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
                let node = TExpr::Binary {
                    op,
                    operand_kind: kind,
                    lhs: l,
                    rhs: r,
                };
                self.typed(node, &prim_type(kind), span)
            }
            _ => {
                let (Some(lk), Some(rk)) = (lt.prim_kind(), rt.prim_kind()) else {
                    let msg = format!(
                        "arithmetic on non-numeric types {} and {}",
                        self.show(lt),
                        self.show(rt)
                    );
                    self.err(span, msg);
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
                let node = TExpr::Binary {
                    op,
                    operand_kind: kind,
                    lhs: l,
                    rhs: r,
                };
                self.typed(node, &ty, span)
            }
        }
    }

    fn convert_to(&mut self, e: TExprId, kind: PrimKind) -> TExprId {
        if self.ty(e).prim_kind() == Some(kind) {
            e
        } else {
            let span = self.b.expr_span(e);
            self.b
                .expr(TExpr::Convert { to: kind, expr: e }, &prim_type(kind), span)
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

    /// The value of the first statement, a `return`, of `class`'s first
    /// method.
    fn returned(t: &ClassTable, class: &str) -> (Arc<TBody>, TExprId) {
        let body = t.class(t.by_name(class).unwrap()).methods[0]
            .body
            .clone()
            .unwrap();
        let TRoot::Block(b) = body.root() else {
            unreachable!("a method body is a block")
        };
        let first = body.list(b).next().unwrap();
        match body.stmt(first) {
            TStmt::Return { value: Some(v) } => (body, v),
            other => panic!("unexpected {other:?}"),
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
        // The return expression is a double-typed binary.
        let (body, v) = returned(&t, "A");
        assert!(matches!(body.expr(v), TExpr::Binary { .. }));
        assert_eq!(*body.ty(v), Type::Double);
    }

    #[test]
    fn inserts_convert_nodes() {
        let t = check_ok("class A { long m(int i) { return i; } }");
        let (body, v) = returned(&t, "A");
        match body.expr(v) {
            TExpr::Convert { to, .. } => assert_eq!(to, PrimKind::Long),
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
        let (body, v) = returned(&t, "A");
        let TExpr::GetField { obj, .. } = body.expr(v) else {
            panic!("unexpected {:?}", body.expr(v))
        };
        assert_eq!(body.expr(obj), TExpr::This);
    }

    #[test]
    fn virtual_call_through_interface() {
        let t = check_ok(
            "interface Solver { float solve(float x); } \
             class A { float run(Solver s) { return s.solve(1.0f); } }",
        );
        let (body, v) = returned(&t, "A");
        match body.expr(v) {
            TExpr::Call { method, .. } => {
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
        let body = t.class(b).methods[0].body.as_ref().unwrap();
        assert!((body.exprs().iter()).any(|e| matches!(e, TExpr::DirectCall { .. })));
    }

    #[test]
    fn super_ctor_args_are_typed() {
        let t = check_ok(
            "class A { int x; A(int x0) { x = x0; } } \
             class B extends A { B() { super(41); } }",
        );
        let b = t.by_name("B").unwrap();
        let body = t.class(b).ctor.as_ref().unwrap().body.as_ref().unwrap();
        let TRoot::Ctor { super_args, .. } = body.root() else {
            unreachable!("a constructor body is a constructor")
        };
        assert_eq!(super_args.len(), 1);
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

//! # jrules — the WootinJ coding-rule checker
//!
//! Implements the two properties from §3.2 of the paper and the eight
//! coding rules that translated code must satisfy.
//!
//! **strict-final** — a type is strict-final if it is a primitive, an array
//! of a strict-final element type, or a *leaf* class (final or without any
//! declared subclasses) all of whose fields (including inherited ones) are
//! strict-final.
//!
//! **semi-immutable** — a type is semi-immutable if it is a primitive, an
//! array of a semi-immutable *and* strict-final element type, or a class
//! where (a) all fields are of semi-immutable types, (b) all superclasses
//! are semi-immutable, (c) non-array fields are constants after
//! construction (subclass constructors may overwrite superclass fields),
//! (d) constructors contain no conditionals, no method calls, and no use
//! of `this` as a value, and (e) the type is not recursive.
//!
//! The eight **coding rules** (checked per `@WootinJ` class):
//! 1. every type appearing in the code is semi-immutable;
//! 2. every type is also strict-final, except method-parameter and field
//!    types (locals, returns, casts must be strict-final);
//! 3. method parameters are never assigned;
//! 4. a type parameter's bound `S` must have only strict-final +
//!    semi-immutable direct subclasses, and type arguments must be proper
//!    subclasses of `S` (no wildcards — the grammar has none);
//! 5. static fields are final and not of array type;
//! 6. no recursive calls (checked over a conservative call graph);
//! 7. no ternary operator and no reference equality;
//! 8. no `instanceof`, no `null` literals (exceptions, reflection,
//!    threads, and `.class` do not exist in jlang at all).

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::Arc;

use jlang::span::{Diagnostic, Span};
use jlang::table::ClassTable;
use jlang::tast::{TBlock, TBody, TExpr, TExprId, TRoot, TStmt, TStmtId};
use jlang::typeck::Member;
use jlang::types::{ClassId, Type, OBJECT};

/// Outcome of a rules check.
#[derive(Debug, Default)]
pub struct RulesReport {
    pub violations: Vec<Diagnostic>,
    /// Classes that were subject to the rules (`@WootinJ`).
    pub checked: Vec<ClassId>,
}

impl RulesReport {
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn render(&self) -> String {
        jlang::render_diags(&self.violations)
    }
}

// ---- facts: what the rules read from one body ----------------------------

/// A statement the rules read: a local declaration (rules 1 and 2) or an
/// assignment to a frame slot (rule 3 when the slot holds a parameter).
#[derive(Debug, Clone, PartialEq)]
enum StmtFact {
    Local(Type, Span),
    AssignLocal(u32, Span),
}

/// An expression site the rules read (rules 2, 4, 7 and 8).
#[derive(Debug, Clone, PartialEq)]
enum Site {
    Ternary(Span),
    RefEq(Span),
    InstanceOf(Span),
    Null(Span),
    Cast(Type, Span),
    /// A `new` with type arguments.
    New {
        class: ClassId,
        targs: Vec<Type>,
        span: Span,
    },
}

/// A write to an instance field (semi-immutable precondition (c)).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FieldWrite {
    owner: ClassId,
    slot: u32,
    span: Span,
}

/// A call target as the type checker resolved it: the declaration found
/// statically. A dispatched (virtual) call may land on any override at or
/// below it, which rule 6 resolves against the class table.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Callee {
    class: ClassId,
    index: u32,
    dispatch: bool,
}

/// What semi-immutable precondition (d) forbids in a constructor or a
/// field initializer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CtorSite {
    Branch,
    Call,
    Ternary,
    This,
}

/// Everything the coding rules read from one typed body, each list in the
/// order a walk of the body meets it. It is a pure function of the body,
/// computed in one walk ([`BodyFacts::of`]); the checks run over facts and
/// class skeletons only. The incremental pipeline keeps a body's facts
/// beside its typed body, so a check after an edit walks no tree at all.
#[derive(Debug, Default, PartialEq)]
pub struct BodyFacts {
    /// Local declarations and local assignments, in statement order.
    stmts: Vec<StmtFact>,
    /// Expression sites, in expression order.
    sites: Vec<Site>,
    /// Instance-field writes, in statement order.
    field_writes: Vec<FieldWrite>,
    /// Call targets, unresolved, in expression order.
    calls: Vec<Callee>,
    /// Precondition (d) sites in report order. A branch statement is one
    /// site; its condition is not examined further.
    ctor_sites: Vec<(CtorSite, Span)>,
}

impl BodyFacts {
    /// The facts of one checked body, whatever kind it is: a constructor's
    /// `super(...)` arguments come before its body.
    pub fn of(body: &TBody) -> Self {
        let mut facts = Self::default();
        match body.root() {
            TRoot::Block(b) => facts.walk_block(body, b),
            TRoot::Ctor {
                super_args,
                body: b,
            } => {
                for a in body.list(super_args) {
                    facts.walk_expr(body, a);
                }
                facts.walk_block(body, b);
            }
            TRoot::Init(init) => facts.walk_expr(body, init),
        }
        facts
    }

    /// An expression outside any statement: a `super(...)` argument or an
    /// initializer, where precondition (d) applies.
    fn walk_expr(&mut self, b: &TBody, e: TExprId) {
        let mut skip_this = false;
        self.pre_order(b, e, true, &mut skip_this);
    }

    fn walk_block(&mut self, b: &TBody, block: TBlock) {
        for s in b.list(block) {
            self.stmt(b, s);
        }
    }

    /// One statement: its own facts, its own expressions, then the
    /// statements nested in it.
    fn stmt(&mut self, b: &TBody, s: TStmtId) {
        let mut in_ctor = true;
        let mut this_recv = false;
        let span = b.stmt_span(s);
        let stmt = b.stmt(s);
        match stmt {
            TStmt::Local { ty, .. } => {
                (self.stmts).push(StmtFact::Local(b.type_at(ty).clone(), span))
            }
            TStmt::AssignLocal { slot, .. } => self.stmts.push(StmtFact::AssignLocal(slot, span)),
            TStmt::AssignField { obj, field, .. } => {
                self.field_writes.push(FieldWrite {
                    owner: field.owner,
                    slot: field.slot,
                    span,
                });
                this_recv = b.expr(obj) == TExpr::This;
            }
            TStmt::If { .. } | TStmt::While { .. } | TStmt::For { .. } => {
                self.ctor_sites.push((CtorSite::Branch, span));
                in_ctor = false;
            }
            _ => {}
        }
        // The statement's own expressions, in order. The implicit `this.`
        // receiver of a field write is the first node visited.
        let mut skip_this = this_recv;
        let own: [Option<TExprId>; 3] = match stmt {
            TStmt::Local { init, .. } => [init, None, None],
            TStmt::AssignLocal { value, .. } | TStmt::AssignStatic { value, .. } => {
                [Some(value), None, None]
            }
            TStmt::AssignField { obj, value, .. } => [Some(obj), Some(value), None],
            TStmt::AssignIndex { arr, idx, value } => [Some(arr), Some(idx), Some(value)],
            TStmt::Expr(e) | TStmt::If { cond: e, .. } | TStmt::While { cond: e, .. } => {
                [Some(e), None, None]
            }
            TStmt::For { cond, .. } => [cond, None, None],
            TStmt::Return { value } => [value, None, None],
            TStmt::Break | TStmt::Continue | TStmt::Block(_) => [None; 3],
        };
        for e in own.into_iter().flatten() {
            self.pre_order(b, e, in_ctor, &mut skip_this);
        }
        match stmt {
            TStmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                self.walk_block(b, then_branch);
                if let Some(e) = else_branch {
                    self.walk_block(b, e);
                }
            }
            TStmt::While { body, .. } => self.walk_block(b, body),
            TStmt::For {
                init, update, body, ..
            } => {
                if let Some(i) = init {
                    self.stmt(b, i);
                }
                if let Some(u) = update {
                    self.stmt(b, u);
                }
                self.walk_block(b, body);
            }
            TStmt::Block(block) => self.walk_block(b, block),
            _ => {}
        }
    }

    /// Expression `e` and everything under it, each node before its
    /// operands, operands left to right.
    fn pre_order(&mut self, b: &TBody, e: TExprId, in_ctor: bool, skip_this: &mut bool) {
        self.expr(b, e, in_ctor, skip_this);
        let mut visit = |e| self.pre_order(b, e, in_ctor, skip_this);
        match b.expr(e) {
            TExpr::GetField { obj: x, .. }
            | TExpr::NewArray { len: x, .. }
            | TExpr::ArrayLen(x)
            | TExpr::Unary { expr: x, .. }
            | TExpr::NumCast { expr: x, .. }
            | TExpr::RefCast { expr: x, .. }
            | TExpr::Convert { expr: x, .. }
            | TExpr::InstanceOf { expr: x, .. } => visit(x),
            TExpr::Call { recv, args, .. } | TExpr::DirectCall { recv, args, .. } => {
                visit(recv);
                b.list(args).for_each(visit);
            }
            TExpr::StaticCall { args, .. } | TExpr::New { args, .. } => {
                b.list(args).for_each(visit)
            }
            TExpr::Index { arr: x, idx: y }
            | TExpr::Binary { lhs: x, rhs: y, .. }
            | TExpr::RefEq { lhs: x, rhs: y, .. } => {
                visit(x);
                visit(y);
            }
            TExpr::Ternary {
                cond,
                then_val,
                else_val,
            } => {
                visit(cond);
                visit(then_val);
                visit(else_val);
            }
            _ => {}
        }
    }

    /// One expression node, visited in pre-order. `skip_this` exempts the
    /// next `this` the walk meets: the receiver of a field read or write.
    fn expr(&mut self, b: &TBody, e: TExprId, in_ctor: bool, skip_this: &mut bool) {
        let span = b.expr_span(e);
        let mut ctor_site = None;
        match b.expr(e) {
            TExpr::This => ctor_site = (!std::mem::take(skip_this)).then_some(CtorSite::This),
            // Reading a field of `this` is allowed; the receiver is the
            // next node a pre-order walk visits.
            TExpr::GetField { obj, .. } => *skip_this = b.expr(obj) == TExpr::This,
            TExpr::Call { method, .. } | TExpr::DirectCall { method, .. } => {
                self.calls.push(Callee {
                    class: method.decl_class,
                    index: method.index,
                    dispatch: matches!(b.expr(e), TExpr::Call { .. }),
                });
                ctor_site = Some(CtorSite::Call);
            }
            TExpr::StaticCall { class, index, .. } => {
                self.calls.push(Callee {
                    class,
                    index,
                    dispatch: false,
                });
                ctor_site = Some(CtorSite::Call);
            }
            TExpr::Ternary { .. } => {
                self.sites.push(Site::Ternary(span));
                ctor_site = Some(CtorSite::Ternary);
            }
            TExpr::RefEq { .. } => self.sites.push(Site::RefEq(span)),
            TExpr::InstanceOf { .. } => self.sites.push(Site::InstanceOf(span)),
            TExpr::Null => self.sites.push(Site::Null(span)),
            TExpr::RefCast { to, .. } => self.sites.push(Site::Cast(b.type_at(to).clone(), span)),
            TExpr::New { class, .. } => match b.ty(e) {
                Type::Object(_, targs) if !targs.is_empty() => self.sites.push(Site::New {
                    class,
                    targs: targs.clone(),
                    span,
                }),
                _ => {}
            },
            _ => {}
        }
        if let (true, Some(site)) = (in_ctor, ctor_site) {
            self.ctor_sites.push((site, span));
        }
    }
}

/// The facts of one class's bodies, by member index.
#[derive(Debug, Default)]
struct ClassFacts {
    methods: Vec<Option<Arc<BodyFacts>>>,
    ctor: Option<Arc<BodyFacts>>,
    /// Instance-field initializers.
    inits: Vec<Option<Arc<BodyFacts>>>,
}

/// The facts of every body of a class table, by class and member. A body
/// without facts is treated as one with none.
#[derive(Debug, Default)]
pub struct ProgramFacts {
    classes: Vec<ClassFacts>,
}

impl ProgramFacts {
    /// Compute the facts of every typed body in `table`, one walk each.
    pub fn of(table: &ClassTable) -> Self {
        let mut out = Self::default();
        for info in table.iter() {
            for (mi, m) in info.methods.iter().enumerate() {
                if let Some(body) = &m.body {
                    let facts = Arc::new(BodyFacts::of(body));
                    out.insert(info.id, Member::Method(mi as u32), facts);
                }
            }
            if let Some(ctor) = &info.ctor {
                if let Some(body) = &ctor.body {
                    let facts = Arc::new(BodyFacts::of(body));
                    out.insert(info.id, Member::Ctor, facts);
                }
            }
            for (i, f) in info.fields.iter().enumerate() {
                if let Some(init) = &f.init {
                    let member = Member::Init {
                        is_static: false,
                        index: i as u32,
                    };
                    out.insert(info.id, member, Arc::new(BodyFacts::of(init)));
                }
            }
        }
        out
    }

    /// Record the facts of one body (shared, not copied).
    pub fn insert(&mut self, id: ClassId, member: Member, facts: Arc<BodyFacts>) {
        let ci = id.0 as usize;
        if self.classes.len() <= ci {
            self.classes.resize_with(ci + 1, Default::default);
        }
        let class = &mut self.classes[ci];
        let (slots, index) = match member {
            Member::Method(mi) => (&mut class.methods, mi),
            Member::Ctor => {
                class.ctor = Some(facts);
                return;
            }
            Member::Init {
                is_static: false,
                index,
            } => (&mut class.inits, index),
            // No rule reads a static initializer.
            Member::Init {
                is_static: true, ..
            } => return,
        };
        let index = index as usize;
        if slots.len() <= index {
            slots.resize(index + 1, None);
        }
        slots[index] = Some(facts);
    }

    fn method(&self, id: ClassId, mi: usize) -> Option<&BodyFacts> {
        let c = self.classes.get(id.0 as usize)?;
        c.methods.get(mi)?.as_deref()
    }

    fn ctor(&self, id: ClassId) -> Option<&BodyFacts> {
        self.classes.get(id.0 as usize)?.ctor.as_deref()
    }

    fn init(&self, id: ClassId, index: usize) -> Option<&BodyFacts> {
        let c = self.classes.get(id.0 as usize)?;
        c.inits.get(index)?.as_deref()
    }

    /// Is a constructor (or field initializer) free of what precondition
    /// (d) forbids?
    fn clean(facts: Option<&BodyFacts>) -> bool {
        facts.is_none_or(|f| f.ctor_sites.is_empty())
    }
}

/// Tri-state memo for the recursive type analyses.
#[derive(Clone, Copy, PartialEq)]
enum Memo {
    InProgress,
    Yes,
    No,
}

/// The strict-final / semi-immutable analysis engine with memoization.
pub struct Analysis<'t> {
    table: &'t ClassTable,
    facts: &'t ProgramFacts,
    strict_final: HashMap<ClassId, Memo>,
    semi_immutable: HashMap<ClassId, Memo>,
    /// (owner class, own field index) -> write sites outside constructors.
    illegal_field_writes: HashMap<(ClassId, u32), Vec<Span>>,
}

impl<'t> Analysis<'t> {
    pub fn new(table: &'t ClassTable, facts: &'t ProgramFacts) -> Self {
        let mut a = Analysis {
            table,
            facts,
            strict_final: HashMap::new(),
            semi_immutable: HashMap::new(),
            illegal_field_writes: HashMap::new(),
        };
        a.scan_field_writes();
        a
    }

    /// Whole-program scan: record every write to a non-array instance field
    /// that happens outside a constructor of the declaring class or one of
    /// its subclasses. Needed by semi-immutable precondition (c).
    fn scan_field_writes(&mut self) {
        let table = self.table;
        for info in table.iter() {
            let methods = (0..info.methods.len()).map(|mi| (self.facts.method(info.id, mi), false));
            let ctor = std::iter::once((self.facts.ctor(info.id), true));
            for (facts, in_ctor) in methods.chain(ctor) {
                for w in facts.iter().flat_map(|f| &f.field_writes) {
                    let own_index = w.slot - table.class(w.owner).field_base;
                    let finfo = &table.class(w.owner).fields[own_index as usize];
                    if matches!(finfo.ty, Type::Array(_)) {
                        continue; // array fields are freely reassignable
                    }
                    if !(in_ctor && table.is_subclass_of(info.id, w.owner)) {
                        let sites = self.illegal_field_writes.entry((w.owner, own_index));
                        sites.or_default().push(w.span);
                    }
                }
            }
        }
    }

    /// Is `ty` strict-final?
    pub fn is_strict_final(&mut self, ty: &Type) -> bool {
        match ty {
            Type::Int | Type::Long | Type::Float | Type::Double | Type::Boolean => true,
            Type::Array(e) => self.is_strict_final(e),
            Type::Object(id, _) => self.class_strict_final(*id),
            // A type variable stands for a to-be-given strict-final class
            // (rule 4 validates the instantiation); treat as strict-final
            // in code positions.
            Type::Var(_) => true,
            Type::Void | Type::Null | Type::Str => false,
        }
    }

    fn class_strict_final(&mut self, id: ClassId) -> bool {
        match self.strict_final.get(&id) {
            Some(Memo::Yes) => return true,
            Some(Memo::No) => return false,
            // Inductive reading: a recursive chain is not strict-final.
            Some(Memo::InProgress) => return false,
            None => {}
        }
        self.strict_final.insert(id, Memo::InProgress);
        let info = self.table.class(id);
        let leaf = !info.is_interface && (info.is_final || self.table.is_leaf(id));
        let mut ok = leaf;
        if ok {
            // All fields of the class and its superclasses.
            for (cid, args) in self.table.super_chain(id) {
                for f in &self.table.class(cid).fields {
                    let ty = f.ty.subst(&args);
                    if !self.is_strict_final(&ty) {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    break;
                }
            }
        }
        self.strict_final
            .insert(id, if ok { Memo::Yes } else { Memo::No });
        ok
    }

    /// Is `ty` semi-immutable?
    pub fn is_semi_immutable(&mut self, ty: &Type) -> bool {
        match ty {
            Type::Int | Type::Long | Type::Float | Type::Double | Type::Boolean => true,
            Type::Array(e) => self.is_semi_immutable(e) && self.is_strict_final(e),
            Type::Object(id, _) => self.class_semi_immutable(*id),
            Type::Var(_) => true, // validated at instantiation by rule 4
            Type::Void | Type::Null | Type::Str => false,
        }
    }

    fn class_semi_immutable(&mut self, id: ClassId) -> bool {
        if id == OBJECT {
            return true; // "The Object class is a semi-immutable type."
        }
        match self.semi_immutable.get(&id) {
            Some(Memo::Yes) => return true,
            Some(Memo::No) => return false,
            // Precondition (e): recursive types are not semi-immutable.
            Some(Memo::InProgress) => return false,
            None => {}
        }
        self.semi_immutable.insert(id, Memo::InProgress);
        let ok = self.class_semi_immutable_inner(id);
        self.semi_immutable
            .insert(id, if ok { Memo::Yes } else { Memo::No });
        ok
    }

    fn class_semi_immutable_inner(&mut self, id: ClassId) -> bool {
        let info = self.table.class(id);
        // Interfaces declare no state and no constructors; they are
        // semi-immutable carriers for their implementors.
        if info.is_interface {
            return true;
        }
        // (b) superclasses semi-immutable.
        if let Some((sid, _)) = &info.superclass {
            if !self.class_semi_immutable(*sid) {
                return false;
            }
        }
        // (a) + (e): field types semi-immutable; recursion detected via the
        // InProgress memo when a field type chain loops back to `id`.
        for f in &info.fields {
            if !self.is_semi_immutable(&f.ty) {
                return false;
            }
        }
        // (c) non-array fields constant after construction.
        for (i, f) in info.fields.iter().enumerate() {
            if matches!(f.ty, Type::Array(_)) {
                continue;
            }
            if self.illegal_field_writes.contains_key(&(id, i as u32)) {
                return false;
            }
        }
        // (d) constructor restrictions.
        if info.ctor.is_some() && !ProgramFacts::clean(self.facts.ctor(id)) {
            return false;
        }
        (0..info.fields.len()).all(|i| ProgramFacts::clean(self.facts.init(id, i)))
    }

    /// Detailed diagnostics explaining why a class fails semi-immutability.
    pub fn explain_semi_immutable(&mut self, id: ClassId) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let info = self.table.class(id);
        if info.is_interface {
            return out;
        }
        if let Some((sid, _)) = &info.superclass {
            if !self.class_semi_immutable(*sid) {
                out.push(Diagnostic::error(
                    "rules",
                    info.span,
                    format!(
                        "superclass `{}` of `{}` is not semi-immutable",
                        self.table.name(*sid),
                        info.name
                    ),
                ));
            }
        }
        for f in &info.fields {
            if !self.is_semi_immutable(&f.ty) {
                out.push(Diagnostic::error(
                    "rules",
                    f.span,
                    format!(
                        "field `{}.{}` has non-semi-immutable type {}",
                        info.name,
                        f.name,
                        self.table.show_type(&f.ty)
                    ),
                ));
            }
        }
        for (i, f) in info.fields.iter().enumerate() {
            if matches!(f.ty, Type::Array(_)) {
                continue;
            }
            if let Some(spans) = self.illegal_field_writes.get(&(id, i as u32)) {
                for s in spans {
                    out.push(Diagnostic::error(
                        "rules",
                        *s,
                        format!(
                            "non-array field `{}.{}` is written outside a constructor",
                            info.name, f.name
                        ),
                    ));
                }
            }
        }
        if info.ctor.is_some() {
            let sites = self.facts.ctor(id).into_iter().flat_map(|f| &f.ctor_sites);
            for &(site, span) in sites {
                let what = match site {
                    CtorSite::Branch => "contains a conditional or loop",
                    CtorSite::This => "uses `this` as a value",
                    CtorSite::Call => "calls a method",
                    CtorSite::Ternary => "contains a conditional operator",
                };
                let msg = format!("constructor of `{}` {what}", info.name);
                out.push(Diagnostic::error("rules", span, msg));
            }
        }
        for (i, f) in info.fields.iter().enumerate() {
            if let Some((init, value)) = f.typed_init() {
                if !ProgramFacts::clean(self.facts.init(id, i)) {
                    out.push(Diagnostic::error(
                        "rules",
                        init.expr_span(value),
                        format!(
                            "initializer of `{}.{}` contains a method call, conditional, or `this`",
                            info.name, f.name
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// Check a whole program: every `@WootinJ` class is validated against the
/// eight coding rules. Non-annotated classes are ignored (the paper: "the
/// rest of the program does not have to follow the rules").
///
/// This computes every body's facts first; a caller that keeps them
/// ([`ProgramFacts`]) checks with [`check_program_with`] instead.
pub fn check_program(table: &ClassTable) -> RulesReport {
    check_program_with(table, &ProgramFacts::of(table))
}

/// [`check_program`] over facts computed beforehand: no body is walked.
pub fn check_program_with(table: &ClassTable, facts: &ProgramFacts) -> RulesReport {
    let ids: Vec<ClassId> = table
        .iter()
        .filter(|c| c.has_annotation("WootinJ"))
        .map(|c| c.id)
        .collect();
    check_classes(table, facts, &ids)
}

/// Check an explicit set of classes against the coding rules.
pub fn check_classes(table: &ClassTable, facts: &ProgramFacts, ids: &[ClassId]) -> RulesReport {
    let mut analysis = Analysis::new(table, facts);
    let mut report = RulesReport::default();
    for &id in ids {
        report.checked.push(id);
        check_class(table, facts, &mut analysis, id, &mut report.violations);
    }
    // Rule 6 (no recursion) is a whole-program property over the checked set.
    check_no_recursion(table, facts, ids, &mut report.violations);
    report
}

fn check_class(
    table: &ClassTable,
    facts: &ProgramFacts,
    analysis: &mut Analysis<'_>,
    id: ClassId,
    out: &mut Vec<Diagnostic>,
) {
    let info = table.class(id);

    // Rule 1: the class itself must be semi-immutable.
    if !analysis.class_semi_immutable(id) {
        let why = analysis.explain_semi_immutable(id);
        if why.is_empty() {
            out.push(Diagnostic::error(
                "rules",
                info.span,
                format!("`{}` is not semi-immutable", info.name),
            ));
        } else {
            out.extend(why);
        }
    }

    // Rule 4: type-parameter bounds.
    for tp in &info.type_params {
        if let Type::Object(bid, _) = &tp.bound {
            for &sub in &table.class(*bid).subclasses {
                if !analysis.class_strict_final(sub) || !analysis.class_semi_immutable(sub) {
                    out.push(Diagnostic::error(
                        "rules",
                        tp.span,
                        format!(
                            "bound `{}` of type parameter `{}` has direct subclass `{}` that is not strict-final and semi-immutable (rule 4)",
                            table.name(*bid),
                            tp.name,
                            table.name(sub)
                        ),
                    ));
                }
            }
        }
    }

    // Rule 5: static fields final, not arrays.
    for f in &info.statics {
        if !f.is_final {
            out.push(Diagnostic::error(
                "rules",
                f.span,
                format!(
                    "static field `{}.{}` must be final (rule 5)",
                    info.name, f.name
                ),
            ));
        }
        if matches!(f.ty, Type::Array(_)) {
            out.push(Diagnostic::error(
                "rules",
                f.span,
                format!(
                    "static field `{}.{}` must not be an array (rule 5)",
                    info.name, f.name
                ),
            ));
        }
    }

    // Rule 1 on field types (semi-immutable); field types may be non-leaf.
    for f in &info.fields {
        if !analysis.is_semi_immutable(&f.ty) {
            out.push(Diagnostic::error(
                "rules",
                f.span,
                format!(
                    "field `{}.{}` has non-semi-immutable type {} (rule 1)",
                    info.name,
                    f.name,
                    table.show_type(&f.ty)
                ),
            ));
        }
    }

    for (mi, m) in info.methods.iter().enumerate() {
        // Rule 1 + 2 on signature types.
        for p in &m.params {
            if !analysis.is_semi_immutable(&p.ty) {
                out.push(Diagnostic::error(
                    "rules",
                    p.span,
                    format!(
                        "parameter `{}` of `{}::{}` has non-semi-immutable type {} (rule 1)",
                        p.name,
                        info.name,
                        m.name,
                        table.show_type(&p.ty)
                    ),
                ));
            }
        }
        if m.ret != Type::Void && !analysis.is_strict_final(&m.ret) {
            out.push(Diagnostic::error(
                "rules",
                m.span,
                format!(
                    "return type of `{}::{}` must be strict-final, found {} (rule 2)",
                    info.name,
                    m.name,
                    table.show_type(&m.ret)
                ),
            ));
        }
        if m.ret != Type::Void && !analysis.is_semi_immutable(&m.ret) {
            out.push(Diagnostic::error(
                "rules",
                m.span,
                format!(
                    "return type of `{}::{}` must be semi-immutable (rule 1)",
                    info.name, m.name
                ),
            ));
        }
        let Some(body) = facts.method(id, mi) else {
            continue;
        };
        check_body(
            table,
            analysis,
            &info.name,
            &m.name,
            m.params.len() as u32,
            body,
            out,
        );
    }
}

/// Per-body checks: rules 2 (strict-final locals/casts), 3 (constant
/// parameters), 7 (ternary / reference equality), 8 (`instanceof`, `null`),
/// and rule-4 instantiation checks on `new` expressions.
fn check_body(
    table: &ClassTable,
    analysis: &mut Analysis<'_>,
    class_name: &str,
    method_name: &str,
    param_count: u32,
    facts: &BodyFacts,
    out: &mut Vec<Diagnostic>,
) {
    let mut report = |span: Span, msg: String| {
        let msg = format!("in `{class_name}::{method_name}`: {msg}");
        out.push(Diagnostic::error("rules", span, msg));
    };
    for s in &facts.stmts {
        match s {
            StmtFact::Local(ty, span) => {
                if !analysis.is_strict_final(ty) {
                    report(
                        *span,
                        format!(
                            "local variable type {} is not strict-final (rule 2)",
                            table.show_type(ty)
                        ),
                    );
                }
                if !analysis.is_semi_immutable(ty) {
                    report(
                        *span,
                        format!(
                            "local variable type {} is not semi-immutable (rule 1)",
                            table.show_type(ty)
                        ),
                    );
                }
            }
            StmtFact::AssignLocal(slot, span) if *slot < param_count => report(
                *span,
                "method parameters are constant and cannot be assigned (rule 3)".into(),
            ),
            StmtFact::AssignLocal(..) => {}
        }
    }
    for site in &facts.sites {
        match site {
            Site::Ternary(span) => report(
                *span,
                "the conditional operator `?:` is not allowed (rule 7)".into(),
            ),
            Site::RefEq(span) => report(
                *span,
                "reference equality `==`/`!=` is not allowed (rule 7)".into(),
            ),
            Site::InstanceOf(span) => report(*span, "`instanceof` is not allowed (rule 8)".into()),
            Site::Null(span) => report(*span, "`null` literals are not allowed (rule 8)".into()),
            Site::Cast(to, span) => {
                if !analysis.is_strict_final(to) {
                    report(
                        *span,
                        format!(
                            "cast target {} is not strict-final (rule 2)",
                            table.show_type(to)
                        ),
                    );
                }
            }
            Site::New { class, targs, span } => {
                // Rule 4: type arguments must be proper strict-final
                // subclasses of the parameter's bound.
                let cinfo = table.class(*class);
                for (tp, ta) in cinfo.type_params.iter().zip(targs) {
                    let Type::Object(aid, _) = ta else { continue };
                    if let Type::Object(bid, _) = &tp.bound {
                        if aid == bid {
                            report(
                                *span,
                                format!(
                                    "type argument for `{}` must be a proper subclass of its bound `{}`, not the bound itself (rule 4)",
                                    tp.name,
                                    table.name(*bid)
                                ),
                            );
                        }
                    }
                    if !analysis.class_strict_final(*aid) {
                        report(
                            *span,
                            format!(
                                "type argument `{}` is not strict-final (rule 4)",
                                table.name(*aid)
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Rule 6: reject recursion over a conservative call graph. A virtual call
/// may land on any override declared at or below the statically resolved
/// class, so edges are added to all of them.
///
/// Nodes are searched in the order their bodies are met, so which cycle is
/// reported does not depend on hash order.
fn check_no_recursion(
    table: &ClassTable,
    facts: &ProgramFacts,
    ids: &[ClassId],
    out: &mut Vec<Diagnostic>,
) {
    type Node = (ClassId, u32);
    let mut edges: HashMap<Node, Vec<Node>> = HashMap::new();
    let mut order: Vec<Node> = Vec::new();
    // The implementations of each dispatched call target.
    let mut overrides: HashMap<Node, Vec<Node>> = HashMap::new();
    for &id in ids {
        for mi in 0..table.class(id).methods.len() {
            let Some(body) = facts.method(id, mi) else {
                continue;
            };
            let from = (id, mi as u32);
            if !edges.contains_key(&from) {
                order.push(from);
            }
            let mut succs = std::mem::take(edges.entry(from).or_default());
            for c in &body.calls {
                let target = (c.class, c.index);
                if c.dispatch {
                    let all = overrides
                        .entry(target)
                        .or_insert_with(|| implementations(table, target));
                    succs.extend_from_slice(all);
                } else {
                    succs.push(target);
                }
            }
            edges.insert(from, succs);
        }
    }

    /// Every implementation reachable from a declaration downward.
    fn implementations(table: &ClassTable, decl: (ClassId, u32)) -> Vec<(ClassId, u32)> {
        let name = &table.method(decl.0, decl.1).name;
        let mut t = Vec::new();
        let mut stack = vec![decl.0];
        let mut seen = Vec::new();
        while let Some(c) = stack.pop() {
            if seen.contains(&c) {
                continue;
            }
            seen.push(c);
            if let Some(im) = table.resolve_impl(c, name) {
                if !t.contains(&im) {
                    t.push(im);
                }
            }
            stack.extend(table.class(c).subclasses.iter().copied());
        }
        t
    }

    // DFS cycle detection.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }

    fn dfs(
        n: (ClassId, u32),
        edges: &HashMap<(ClassId, u32), Vec<(ClassId, u32)>>,
        color: &mut HashMap<(ClassId, u32), Color>,
        cycle: &mut Vec<(ClassId, u32)>,
    ) -> bool {
        match color.get(&n).copied().unwrap_or(Color::White) {
            Color::Gray => {
                cycle.push(n);
                return true;
            }
            Color::Black => return false,
            Color::White => {}
        }
        color.insert(n, Color::Gray);
        if let Some(succs) = edges.get(&n) {
            for &s in succs {
                if dfs(s, edges, color, cycle) {
                    if cycle.len() == 1 || cycle.first() != cycle.last() {
                        cycle.push(n);
                    }
                    return true;
                }
            }
        }
        color.insert(n, Color::Black);
        false
    }

    let mut color: HashMap<Node, Color> = HashMap::new();
    for n in order {
        let mut cycle = Vec::new();
        if dfs(n, &edges, &mut color, &mut cycle) {
            let names: Vec<String> = cycle
                .iter()
                .rev()
                .map(|(c, m)| format!("{}::{}", table.name(*c), table.method(*c, *m).name))
                .collect();
            let (c, m) = cycle[0];
            out.push(Diagnostic::error(
                "rules",
                table.method(c, m).span,
                format!(
                    "recursive call chain is not allowed (rule 6): {}",
                    names.join(" -> ")
                ),
            ));
            return; // one cycle report is enough
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jlang::compile_str;

    fn report(src: &str) -> RulesReport {
        let table = compile_str(src).expect("compile");
        check_program(&table)
    }

    fn assert_violation(src: &str, needle: &str) {
        let r = report(src);
        assert!(
            r.violations.iter().any(|d| d.message.contains(needle)),
            "expected violation containing {needle:?}, got:\n{}",
            r.render()
        );
    }

    #[test]
    fn clean_library_passes() {
        let r = report(
            "@WootinJ interface Solver { float solve(float self, int index); } \
             @WootinJ final class PhysSolver implements Solver { \
               float a; \
               PhysSolver(float a0) { a = a0; } \
               float solve(float self, int index) { return a * self + index; } } \
             @WootinJ final class Stencil { \
               Solver solver; \
               Stencil(Solver s) { solver = s; } \
               void run(float[] data, int n) { \
                 for (int i = 0; i < n; i++) { data[i] = solver.solve(data[i], i); } } }",
        );
        assert!(r.is_ok(), "unexpected violations:\n{}", r.render());
        assert_eq!(r.checked.len(), 3);
    }

    #[test]
    fn unannotated_classes_are_ignored() {
        // This class violates several rules but is not @WootinJ.
        let r = report(
            "class Free { int x; void bump() { x = x + 1; } int f(int n) { if (n == 0) { return 1; } return n * f(n - 1); } }",
        );
        assert!(r.is_ok());
        assert!(r.checked.is_empty());
    }

    #[test]
    fn strict_final_analysis_on_types() {
        let table = compile_str(
            "final class Leaf { float v; Leaf(float v0) { v = v0; } } \
             class Base { } class Derived extends Base { } \
             final class HasNonLeafField { Base b; HasNonLeafField(Base b0) { b = b0; } }",
        )
        .unwrap();
        let facts = ProgramFacts::of(&table);
        let mut a = Analysis::new(&table, &facts);
        let leaf = Type::object(table.by_name("Leaf").unwrap());
        let base = Type::object(table.by_name("Base").unwrap());
        let derived = Type::object(table.by_name("Derived").unwrap());
        let hnlf = Type::object(table.by_name("HasNonLeafField").unwrap());
        assert!(a.is_strict_final(&leaf));
        assert!(!a.is_strict_final(&base), "Base has a subclass");
        assert!(a.is_strict_final(&derived), "Derived is a leaf");
        assert!(!a.is_strict_final(&hnlf), "field of non-leaf type");
        assert!(a.is_strict_final(&Type::array(Type::Float)));
        assert!(a.is_strict_final(&Type::array(leaf)));
        assert!(!a.is_strict_final(&Type::array(base)));
    }

    #[test]
    fn recursive_type_is_not_semi_immutable() {
        let table =
            compile_str("final class Node { Node next; Node(Node n) { next = n; } }").unwrap();
        let facts = ProgramFacts::of(&table);
        let mut a = Analysis::new(&table, &facts);
        let node = Type::object(table.by_name("Node").unwrap());
        assert!(!a.is_semi_immutable(&node));
        // The in-progress memo also makes recursive chains non-strict-final
        // — the conservative (inductive) choice.
        assert!(!a.is_strict_final(&node));
    }

    #[test]
    fn field_write_outside_ctor_breaks_semi_immutability() {
        assert_violation(
            "@WootinJ final class Counter { int n; Counter() { n = 0; } \
             void bump() { n = n + 1; } }",
            "written outside a constructor",
        );
    }

    #[test]
    fn array_fields_may_be_reassigned() {
        let r = report(
            "@WootinJ final class Buf { float[] data; Buf(float[] d) { data = d; } \
             void swap(float[] next) { data = next; } }",
        );
        assert!(r.is_ok(), "{}", r.render());
    }

    #[test]
    fn ctor_with_branch_rejected() {
        assert_violation(
            "@WootinJ final class A { int x; A(int v) { if (v > 0) { x = v; } else { x = 0; } } }",
            "conditional",
        );
    }

    #[test]
    fn ctor_with_method_call_rejected() {
        assert_violation(
            "@WootinJ final class A { int x; A() { x = helper(); } static int helper() { return 1; } }",
            "calls a method",
        );
    }

    #[test]
    fn ctor_passing_this_rejected() {
        assert_violation(
            "@WootinJ final class B { Object o; B(Object x) { o = x; } } \
             @WootinJ final class A { B b; A() { b = new B(this); } }",
            "`this`",
        );
    }

    #[test]
    fn ctor_reading_own_field_allowed() {
        let r = report("@WootinJ final class A { int x; int y; A(int v) { x = v; y = x + 1; } }");
        assert!(r.is_ok(), "{}", r.render());
    }

    #[test]
    fn param_assignment_rejected() {
        assert_violation(
            "@WootinJ final class A { A() { } void m(int x) { x = 3; } }",
            "rule 3",
        );
    }

    #[test]
    fn local_assignment_allowed() {
        let r = report(
            "@WootinJ final class A { A() { } int m(int x) { int y = x; y = y + 1; return y; } }",
        );
        assert!(r.is_ok(), "{}", r.render());
    }

    #[test]
    fn ternary_rejected() {
        assert_violation(
            "@WootinJ final class A { A() { } int m(boolean b) { int r = 0; r = b ? 1 : 0; return r; } }",
            "rule 7",
        );
    }

    #[test]
    fn ref_equality_rejected() {
        assert_violation(
            "@WootinJ final class A { A() { } boolean m(Object x, Object y) { return x == y; } }",
            "rule 7",
        );
    }

    #[test]
    fn instanceof_and_null_rejected() {
        assert_violation(
            "@WootinJ final class A { A() { } boolean m(Object x) { return x instanceof A; } }",
            "rule 8",
        );
        assert_violation(
            "@WootinJ final class A { A() { } Object m() { return null; } }",
            "rule 8",
        );
    }

    #[test]
    fn non_strict_final_local_rejected() {
        assert_violation(
            "class Base { } final class Sub extends Base { } \
             @WootinJ final class A { A() { } void m() { Base b = new Sub(); } }",
            "rule 2",
        );
    }

    #[test]
    fn non_leaf_param_type_allowed() {
        // Rule 2 exempts parameter and field types.
        let r = report(
            "interface Solver { float solve(float x); } \
             final class Impl implements Solver { Impl() { } float solve(float x) { return x; } } \
             @WootinJ final class A { Solver s; A(Solver s0) { s = s0; } \
               float m(Solver param) { return param.solve(1f); } }",
        );
        assert!(r.is_ok(), "{}", r.render());
    }

    #[test]
    fn recursion_rejected() {
        assert_violation(
            "@WootinJ final class A { A() { } int fact(int n) { \
               if (n <= 1) { return 1; } return n * fact(n - 1); } }",
            "rule 6",
        );
    }

    #[test]
    fn mutual_recursion_rejected() {
        assert_violation(
            "@WootinJ final class A { A() { } \
               int even(int n) { if (n == 0) { return 1; } return odd(n - 1); } \
               int odd(int n) { if (n == 0) { return 0; } return even(n - 1); } }",
            "rule 6",
        );
    }

    #[test]
    fn virtual_recursion_through_override_rejected() {
        // b.m() may dispatch back into the same method via an override.
        assert_violation(
            "@WootinJ class Base { Base() { } int m(int n) { return n; } } \
             @WootinJ final class Sub extends Base { Sub() { } \
               int m(int n) { if (n == 0) { return 0; } Base b = new Sub(); return b.m(n - 1); } }",
            "rule 6",
        );
    }

    #[test]
    fn mutable_static_rejected() {
        assert_violation(
            "@WootinJ final class A { static int counter = 0; A() { } }",
            "rule 5",
        );
        assert_violation(
            "@WootinJ final class A { static final float[] table = new float[4]; A() { } }",
            "rule 5",
        );
    }

    #[test]
    fn rule4_bound_subclasses_must_be_strict_final() {
        // NonLeaf is a direct subclass of the bound and itself has a subclass.
        assert_violation(
            "interface Ctx { } class NonLeaf implements Ctx { } final class Leaf2 extends NonLeaf { } \
             @WootinJ final class Holder<T extends Ctx> { T ctx; Holder(T c) { ctx = c; } }",
            "rule 4",
        );
    }

    #[test]
    fn rule4_type_argument_must_be_proper_subclass() {
        assert_violation(
            "interface Ctx { } final class MyCtx implements Ctx { MyCtx() { } } \
             @WootinJ final class Holder<T extends Ctx> { T ctx; Holder(T c) { ctx = c; } } \
             @WootinJ final class Main { Main() { } void m(Ctx c) { \
               Holder<Ctx> h = new Holder<Ctx>(c); } }",
            "not the bound itself",
        );
    }

    #[test]
    fn rule4_clean_instantiation_passes() {
        let r = report(
            "interface Ctx { } final class MyCtx implements Ctx { MyCtx() { } } \
             @WootinJ final class Holder<T extends Ctx> { T ctx; Holder(T c) { ctx = c; } } \
             @WootinJ final class Main { Main() { } void m(MyCtx c) { \
               Holder<MyCtx> h = new Holder<MyCtx>(c); } }",
        );
        assert!(r.is_ok(), "{}", r.render());
    }

    #[test]
    fn subclass_ctor_may_overwrite_super_field() {
        // Explicitly allowed by the paper's semi-immutable definition.
        let r = report(
            "@WootinJ class Conf { int n; Conf(int n0) { n = n0; } } \
             @WootinJ final class BigConf extends Conf { BigConf() { super(1); n = 64; } }",
        );
        assert!(r.is_ok(), "{}", r.render());
    }

    #[test]
    fn paper_listing3_style_program_passes() {
        let r = report(
            "@WootinJ interface Generator { float[] make(int length, int seed); } \
             @WootinJ interface Solver { float solve(float self, int index); } \
             @WootinJ final class PhysDataGen implements Generator { \
               PhysDataGen() { } \
               float[] make(int length, int seed) { \
                 float[] a = new float[length]; \
                 for (int i = 0; i < length; i++) { a[i] = i + seed; } \
                 return a; } } \
             @WootinJ final class PhysSolver implements Solver { \
               PhysSolver() { } \
               float solve(float self, int index) { return self * 0.5f + index; } } \
             @WootinJ final class StencilApp { \
               Generator generator; Solver solver; \
               StencilApp(Generator g, Solver s) { generator = g; solver = s; } \
               float run(int length, int updateCnt) { \
                 float[] array = generator.make(length, 0); \
                 for (int t = 0; t < updateCnt; t++) { \
                   for (int i = 0; i < length; i++) { array[i] = solver.solve(array[i], i); } } \
                 return array[0]; } }",
        );
        assert!(r.is_ok(), "{}", r.render());
    }

    #[test]
    fn ctor_sites_are_reported_once_and_field_reads_are_allowed_in_any_statement() {
        // A local in a constructor may read a field of `this`, as a field
        // write's value may.
        let r = report(
            "@WootinJ final class A { int x; int y; A(int v) { x = v; int t = x; y = t; } }",
        );
        assert!(r.is_ok(), "{}", r.render());
        // Two nested calls are two violations, whatever statement holds them.
        let r = report(
            "@WootinJ final class A { int x; A(int v) { int t = f(g(v)); x = t; } \
             static int f(int a) { return a; } static int g(int a) { return a; } }",
        );
        let calls = r
            .violations
            .iter()
            .filter(|d| d.message.contains("calls a method"));
        assert_eq!(calls.count(), 2, "{}", r.render());
    }

    #[test]
    fn the_reported_cycle_does_not_depend_on_hash_order() {
        let src = "@WootinJ final class A { A() { } \
               int even(int n) { if (n == 0) { return 1; } return odd(n - 1); } \
               int odd(int n) { if (n == 0) { return 0; } return even(n - 1); } }";
        let first = report(src).render();
        assert!(first.contains("A::even -> A::odd -> A::even"), "{first}");
        for _ in 0..8 {
            assert_eq!(report(src).render(), first);
        }
    }
}

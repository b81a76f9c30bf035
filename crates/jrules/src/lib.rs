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

use jlang::span::{Diagnostic, Span};
use jlang::table::ClassTable;
use jlang::tast::{TBlock, TExpr, TExprKind, TStmt};
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
    strict_final: HashMap<ClassId, Memo>,
    semi_immutable: HashMap<ClassId, Memo>,
    /// (owner class, own field index) -> write sites outside constructors.
    illegal_field_writes: HashMap<(ClassId, u32), Vec<Span>>,
}

impl<'t> Analysis<'t> {
    pub fn new(table: &'t ClassTable) -> Self {
        let mut a = Analysis {
            table,
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
        let record = |table: &ClassTable,
                      illegal: &mut HashMap<(ClassId, u32), Vec<Span>>,
                      ctx_class: ClassId,
                      in_ctor: bool,
                      body: &TBlock| {
            body.walk_stmts(&mut |s| {
                if let TStmt::AssignField { field, span, .. } = s {
                    let owner = field.owner;
                    let own_index = field.slot - table.class(owner).field_base;
                    let finfo = &table.class(owner).fields[own_index as usize];
                    if matches!(finfo.ty, Type::Array(_)) {
                        return; // array fields are freely reassignable
                    }
                    let allowed = in_ctor && table.is_subclass_of(ctx_class, owner);
                    if !allowed {
                        illegal.entry((owner, own_index)).or_default().push(*span);
                    }
                }
            });
        };
        for info in self.table.iter() {
            for m in &info.methods {
                if let Some(body) = &m.body {
                    record(
                        self.table,
                        &mut self.illegal_field_writes,
                        info.id,
                        false,
                        body,
                    );
                }
            }
            if let Some(ctor) = &info.ctor {
                if let Some(body) = &ctor.body {
                    record(
                        self.table,
                        &mut self.illegal_field_writes,
                        info.id,
                        true,
                        body,
                    );
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
        if let Some(ctor) = &info.ctor {
            if !ctor_body_clean(ctor.body.as_deref(), &ctor.super_args) {
                return false;
            }
        }
        for f in &info.fields {
            if let Some(init) = &f.init {
                if !init_expr_clean(init) {
                    return false;
                }
            }
        }
        true
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
        if let Some(ctor) = &info.ctor {
            out.extend(ctor_violations(
                &info.name,
                ctor.body.as_deref(),
                &ctor.super_args,
            ));
        }
        for f in &info.fields {
            if let Some(init) = &f.init {
                if !init_expr_clean(init) {
                    out.push(Diagnostic::error(
                        "rules",
                        init.span,
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

/// Is a constructor body free of conditionals, calls, and `this`-as-value?
fn ctor_body_clean(body: Option<&TBlock>, super_args: &[TExpr]) -> bool {
    let Some(body) = body else { return true };
    let mut probe = Vec::new();
    for a in super_args {
        expr_violations(a, "ctor", &mut probe);
    }
    let mut out = Vec::new();
    out.extend(probe);
    out.extend(ctor_violations("ctor", Some(body), &[]));
    out.is_empty()
}

/// Diagnostics for semi-immutable precondition (d) on a constructor body.
fn ctor_violations(
    class_name: &str,
    body: Option<&TBlock>,
    super_args: &[TExpr],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for a in super_args {
        expr_violations(a, class_name, &mut out);
    }
    let Some(body) = body else { return out };
    body.walk_stmts(&mut |s| match s {
        TStmt::If { span, .. } | TStmt::While { span, .. } | TStmt::For { span, .. } => {
            out.push(Diagnostic::error(
                "rules",
                *span,
                format!("constructor of `{class_name}` contains a conditional or loop"),
            ));
        }
        TStmt::AssignField { obj, value, .. } => {
            // The implicit `this.` receiver of a field write is fine.
            if !matches!(obj.kind, TExprKind::This) {
                expr_violations(obj, class_name, &mut out);
            }
            expr_violations(value, class_name, &mut out);
        }
        other => other.for_each_expr(&mut |e| {
            expr_violations(e, class_name, &mut out);
        }),
    });
    out
}

/// Report calls, ternaries, and `this`-as-value within a constructor
/// expression. Field reads through `this` are allowed (they are analyzable
/// because earlier assignments fixed their abstract values).
fn expr_violations(e: &TExpr, class_name: &str, out: &mut Vec<Diagnostic>) {
    match &e.kind {
        TExprKind::GetField { obj, .. } if matches!(obj.kind, TExprKind::This) => return,
        TExprKind::This => {
            out.push(Diagnostic::error(
                "rules",
                e.span,
                format!("constructor of `{class_name}` uses `this` as a value"),
            ));
            return;
        }
        TExprKind::Call { .. } | TExprKind::DirectCall { .. } | TExprKind::StaticCall { .. } => {
            out.push(Diagnostic::error(
                "rules",
                e.span,
                format!("constructor of `{class_name}` calls a method"),
            ));
        }
        TExprKind::Ternary { .. } => {
            out.push(Diagnostic::error(
                "rules",
                e.span,
                format!("constructor of `{class_name}` contains a conditional operator"),
            ));
        }
        _ => {}
    }
    // Recurse manually so the GetField(this) exemption applies at any depth.
    match &e.kind {
        TExprKind::GetField { obj, .. } => expr_violations(obj, class_name, out),
        TExprKind::Call { recv, args, .. } | TExprKind::DirectCall { recv, args, .. } => {
            expr_violations(recv, class_name, out);
            for a in args {
                expr_violations(a, class_name, out);
            }
        }
        TExprKind::StaticCall { args, .. } | TExprKind::New { args, .. } => {
            for a in args {
                expr_violations(a, class_name, out);
            }
        }
        TExprKind::NewArray { len, .. } => expr_violations(len, class_name, out),
        TExprKind::Index { arr, idx } => {
            expr_violations(arr, class_name, out);
            expr_violations(idx, class_name, out);
        }
        TExprKind::ArrayLen(x)
        | TExprKind::Unary { expr: x, .. }
        | TExprKind::NumCast { expr: x, .. }
        | TExprKind::RefCast { expr: x, .. }
        | TExprKind::Convert { expr: x, .. }
        | TExprKind::InstanceOf { expr: x, .. } => expr_violations(x, class_name, out),
        TExprKind::Binary { lhs, rhs, .. } | TExprKind::RefEq { lhs, rhs, .. } => {
            expr_violations(lhs, class_name, out);
            expr_violations(rhs, class_name, out);
        }
        TExprKind::Ternary {
            cond,
            then_val,
            else_val,
        } => {
            expr_violations(cond, class_name, out);
            expr_violations(then_val, class_name, out);
            expr_violations(else_val, class_name, out);
        }
        _ => {}
    }
}

/// Is a field initializer expression free of calls/conditionals/`this`?
/// (`new`, literals, and reads of other fields are allowed.)
fn init_expr_clean(e: &TExpr) -> bool {
    let mut out = Vec::new();
    expr_violations(e, "init", &mut out);
    out.is_empty()
}

/// Check a whole program: every `@WootinJ` class is validated against the
/// eight coding rules. Non-annotated classes are ignored (the paper: "the
/// rest of the program does not have to follow the rules").
pub fn check_program(table: &ClassTable) -> RulesReport {
    let ids: Vec<ClassId> = table
        .iter()
        .filter(|c| c.has_annotation("WootinJ"))
        .map(|c| c.id)
        .collect();
    check_classes(table, &ids)
}

/// Check an explicit set of classes against the coding rules.
pub fn check_classes(table: &ClassTable, ids: &[ClassId]) -> RulesReport {
    let mut analysis = Analysis::new(table);
    let mut report = RulesReport::default();
    for &id in ids {
        report.checked.push(id);
        check_class(table, &mut analysis, id, &mut report.violations);
    }
    // Rule 6 (no recursion) is a whole-program property over the checked set.
    check_no_recursion(table, ids, &mut report.violations);
    report
}

fn check_class(
    table: &ClassTable,
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

    for m in &info.methods {
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
        let Some(body) = &m.body else { continue };
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
    body: &TBlock,
    out: &mut Vec<Diagnostic>,
) {
    let ctx = |msg: String| format!("in `{class_name}::{method_name}`: {msg}");
    body.walk_stmts(&mut |s| match s {
        TStmt::Local { ty, span, .. } => {
            if !analysis.is_strict_final(ty) {
                out.push(Diagnostic::error(
                    "rules",
                    *span,
                    ctx(format!(
                        "local variable type {} is not strict-final (rule 2)",
                        table.show_type(ty)
                    )),
                ));
            }
            if !analysis.is_semi_immutable(ty) {
                out.push(Diagnostic::error(
                    "rules",
                    *span,
                    ctx(format!(
                        "local variable type {} is not semi-immutable (rule 1)",
                        table.show_type(ty)
                    )),
                ));
            }
        }
        TStmt::AssignLocal { slot, span, .. } if *slot < param_count => {
            out.push(Diagnostic::error(
                "rules",
                *span,
                ctx("method parameters are constant and cannot be assigned (rule 3)".into()),
            ));
        }
        _ => {}
    });
    body.walk_exprs(&mut |e| match &e.kind {
        TExprKind::Ternary { .. } => out.push(Diagnostic::error(
            "rules",
            e.span,
            ctx("the conditional operator `?:` is not allowed (rule 7)".into()),
        )),
        TExprKind::RefEq { .. } => out.push(Diagnostic::error(
            "rules",
            e.span,
            ctx("reference equality `==`/`!=` is not allowed (rule 7)".into()),
        )),
        TExprKind::InstanceOf { .. } => out.push(Diagnostic::error(
            "rules",
            e.span,
            ctx("`instanceof` is not allowed (rule 8)".into()),
        )),
        TExprKind::Null => out.push(Diagnostic::error(
            "rules",
            e.span,
            ctx("`null` literals are not allowed (rule 8)".into()),
        )),
        TExprKind::RefCast { to, .. }
            if !analysis.is_strict_final(to) => {
                out.push(Diagnostic::error(
                    "rules",
                    e.span,
                    ctx(format!(
                        "cast target {} is not strict-final (rule 2)",
                        table.show_type(to)
                    )),
                ));
            }
        TExprKind::New { class, targs, .. } => {
            // Rule 4: type arguments must be proper strict-final subclasses
            // of the parameter's bound.
            let cinfo = table.class(*class);
            for (tp, ta) in cinfo.type_params.iter().zip(targs) {
                if let Type::Object(aid, _) = ta {
                    if let Type::Object(bid, _) = &tp.bound {
                        if aid == bid {
                            out.push(Diagnostic::error(
                                "rules",
                                e.span,
                                ctx(format!(
                                    "type argument for `{}` must be a proper subclass of its bound `{}`, not the bound itself (rule 4)",
                                    tp.name,
                                    table.name(*bid)
                                )),
                            ));
                        }
                    }
                    if !analysis.class_strict_final(*aid) {
                        out.push(Diagnostic::error(
                            "rules",
                            e.span,
                            ctx(format!(
                                "type argument `{}` is not strict-final (rule 4)",
                                table.name(*aid)
                            )),
                        ));
                    }
                }
            }
        }
        _ => {}
    });
}

/// Rule 6: reject recursion over a conservative call graph. A virtual call
/// may land on any override declared at or below the statically resolved
/// class, so edges are added to all of them.
fn check_no_recursion(table: &ClassTable, ids: &[ClassId], out: &mut Vec<Diagnostic>) {
    type Node = (ClassId, u32);
    let mut edges: HashMap<Node, Vec<Node>> = HashMap::new();

    let add_body_edges = |from: Node, body: &TBlock, edges: &mut HashMap<Node, Vec<Node>>| {
        // One map lookup per body: most expression nodes are not calls.
        let succs = edges.entry(from).or_default();
        body.walk_exprs(&mut |e| match &e.kind {
            TExprKind::Call { method, .. } => {
                // All implementations reachable from decl_class downward.
                let name = &table.method(method.decl_class, method.index).name;
                let mut t = Vec::new();
                let mut stack = vec![method.decl_class];
                let mut seen = Vec::new();
                while let Some(c) = stack.pop() {
                    if seen.contains(&c) {
                        continue;
                    }
                    seen.push(c);
                    if let Some((ic, im)) = table.resolve_impl(c, name) {
                        if !t.contains(&(ic, im)) {
                            t.push((ic, im));
                        }
                    }
                    stack.extend(table.class(c).subclasses.iter().copied());
                }
                succs.extend(t);
            }
            TExprKind::DirectCall { method, .. } => succs.push((method.decl_class, method.index)),
            TExprKind::StaticCall { class, index, .. } => succs.push((*class, *index)),
            _ => {}
        });
    };

    for &id in ids {
        let info = table.class(id);
        for (mi, m) in info.methods.iter().enumerate() {
            if let Some(body) = &m.body {
                add_body_edges((id, mi as u32), body, &mut edges);
            }
        }
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
    let nodes: Vec<Node> = edges.keys().copied().collect();
    for n in nodes {
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
        let mut a = Analysis::new(&table);
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
        let mut a = Analysis::new(&table);
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
}

//! Span-free structural fingerprints over the untyped and typed bodies.
//!
//! Every hash here deliberately ignores [`Span`]s: an edit that only
//! moves code around (whitespace, comments, reformatting) shifts every
//! span in the file but must leave all fingerprints unchanged — that is
//! the *early cutoff* that lets a re-parsed file invalidate nothing
//! downstream. Conversely everything with semantic weight — names,
//! modifiers, annotations, literal bit patterns, resolved ids and
//! slots — is absorbed.
//!
//! Two families:
//!
//! * **Item fingerprints** ([`item_fp`]) cover a class's declaration
//!   skeleton with bodies stripped: the "item tree" query. A body edit
//!   leaves it unchanged; adding/renaming members, changing signatures,
//!   supers or annotations changes it.
//! * **Body fingerprints** ([`body_fp`]) cover one untyped body, and
//!   typed-body hashes ([`thash_and_refs`]) the type checker's output,
//!   which feeds the `lower_fn` memo validation. Both are one loop over a
//!   flat body's node slices.
//!
//! [`Span`]: jlang::span::Span

use jlang::ast;
use jlang::tast::{FieldSel, TBody, TExpr, TRoot, TStmt};
use jlang::types::{ClassId, PrimKind, Type};
use nir::hash::Fingerprint;

/// A list is its run in the id list, which a body hash covers in full.
fn list<X>(f: &mut Fingerprint, l: ast::IdList<X>) -> &mut Fingerprint {
    f.u32(l.start()).u32(l.len() as u32)
}

fn opt(f: &mut Fingerprint, id: Option<u32>) -> &mut Fingerprint {
    match id {
        Some(id) => f.u8(1).u32(id),
        None => f.u8(0),
    }
}

// ---- untyped (parser output) -------------------------------------------

fn hash_typeref(f: &mut Fingerprint, t: &ast::TypeRef) {
    match t {
        ast::TypeRef::Void => f.u8(0),
        ast::TypeRef::Int => f.u8(1),
        ast::TypeRef::Long => f.u8(2),
        ast::TypeRef::Float => f.u8(3),
        ast::TypeRef::Double => f.u8(4),
        ast::TypeRef::Boolean => f.u8(5),
        ast::TypeRef::Named { name, args, .. } => {
            f.u8(6).str(name).u32(args.len() as u32);
            for a in args {
                hash_typeref(f, a);
            }
            f
        }
        ast::TypeRef::Array(e) => {
            f.u8(7);
            hash_typeref(f, e);
            f
        }
    };
}

fn hash_annotations(f: &mut Fingerprint, anns: &[ast::Annotation]) {
    f.u32(anns.len() as u32);
    for a in anns {
        f.str(&a.name);
        match &a.arg {
            Some(s) => f.u8(1).str(s),
            None => f.u8(0),
        };
    }
}

fn hash_modifiers(f: &mut Fingerprint, m: &ast::Modifiers) {
    f.bool(m.is_static).bool(m.is_final).bool(m.is_abstract);
}

fn hash_params(f: &mut Fingerprint, ps: &[ast::Param]) {
    f.u32(ps.len() as u32);
    for p in ps {
        // Parameter names bind body slots, so a rename is a signature
        // change for the declaring class (its own bodies re-check).
        f.str(&p.name).bool(p.is_final);
        hash_typeref(f, &p.ty);
    }
}

/// Fingerprint of one class's *item tree*: the declaration skeleton with
/// every body (method bodies, ctor body + super args, field
/// initializers) stripped. Includes the [`ClassId`] the table assigns at
/// this revision, so id drift (a class inserted before this one)
/// invalidates everything that resolved against the old id.
pub fn item_fp(c: &ast::ClassDecl, assigned: ClassId) -> u64 {
    let mut f = Fingerprint::seeded(0x6974_656d); // "item"
    f.u32(assigned.0).str(&c.name).bool(c.is_interface);
    hash_annotations(&mut f, &c.annotations);
    hash_modifiers(&mut f, &c.modifiers);
    f.u32(c.type_params.len() as u32);
    for tp in &c.type_params {
        f.str(&tp.name);
        match &tp.bound {
            Some(b) => {
                f.u8(1);
                hash_typeref(&mut f, b);
            }
            None => {
                f.u8(0);
            }
        }
    }
    match &c.superclass {
        Some(s) => {
            f.u8(1);
            hash_typeref(&mut f, s);
        }
        None => {
            f.u8(0);
        }
    }
    f.u32(c.interfaces.len() as u32);
    for i in &c.interfaces {
        hash_typeref(&mut f, i);
    }
    f.u32(c.fields.len() as u32);
    for fd in &c.fields {
        f.str(&fd.name);
        hash_typeref(&mut f, &fd.ty);
        hash_annotations(&mut f, &fd.annotations);
        hash_modifiers(&mut f, &fd.modifiers);
        // Presence of an initializer is part of the skeleton (it decides
        // whether the ctor bundle reads one); its value is body-level.
        f.bool(fd.init.is_some());
    }
    f.u32(c.methods.len() as u32);
    for m in &c.methods {
        f.str(&m.name);
        hash_annotations(&mut f, &m.annotations);
        hash_modifiers(&mut f, &m.modifiers);
        hash_params(&mut f, &m.params);
        hash_typeref(&mut f, &m.ret);
        f.bool(m.body.is_some());
    }
    match &c.ctor {
        Some(ct) => {
            f.u8(1);
            hash_params(&mut f, &ct.params);
        }
        None => {
            f.u8(0);
        }
    }
    f.finish()
}

/// Fingerprint of one untyped body — a method body, a constructor
/// (`super(...)` arguments plus body) or a field initializer: a loop over
/// its node vectors, its id list and its names. A body interns its own
/// names, so its fingerprint does not depend on the rest of its file.
pub fn body_fp(b: &ast::Body) -> u64 {
    use ast::{Expr as E, Root, Stmt as S, TypeNode as T};
    let mut f = Fingerprint::seeded(0x626f_6479); // "body"
    match b.root() {
        Root::Block(body) => list(f.u8(0), body),
        Root::Ctor { super_args, body } => {
            match super_args {
                Some(args) => list(f.u8(1).u8(1), args),
                None => f.u8(1).u8(0),
            };
            list(&mut f, body)
        }
        Root::Init(e) => f.u8(2).u32(e.0),
    };
    f.u32(b.exprs().len() as u32);
    for e in b.exprs() {
        match *e {
            E::IntLit(v) => f.u8(0).i64(v),
            E::LongLit(v) => f.u8(1).i64(v),
            E::FloatLit(v) => f.u8(2).u32(v.to_bits()),
            E::DoubleLit(v) => f.u8(3).f64_bits(v),
            E::BoolLit(v) => f.u8(4).bool(v),
            E::NullLit => f.u8(5),
            E::StrLit(s) => f.u8(6).u32(s.0),
            E::Name(n) => f.u8(7).u32(n.0),
            E::This => f.u8(8),
            E::Field { obj, name } => f.u8(9).u32(obj.0).u32(name.0),
            E::Call { recv, name, args } => list(f.u8(10).u32(recv.0).u32(name.0), args),
            E::SuperCall { name, args } => list(f.u8(11).u32(name.0), args),
            E::New { ty, args } => list(f.u8(12).u32(ty.0), args),
            E::NewArray { elem, len } => f.u8(13).u32(elem.0).u32(len.0),
            E::Index { arr, idx } => f.u8(14).u32(arr.0).u32(idx.0),
            E::Unary { op, expr } => f.u8(15).u8(op as u8).u32(expr.0),
            E::Binary { op, lhs, rhs } => f.u8(16).u8(op as u8).u32(lhs.0).u32(rhs.0),
            E::Cast { ty, expr } => f.u8(17).u32(ty.0).u32(expr.0),
            E::InstanceOf { expr, ty } => f.u8(18).u32(expr.0).u32(ty.0),
            E::Ternary {
                cond,
                then_val,
                else_val,
            } => f.u8(19).u32(cond.0).u32(then_val.0).u32(else_val.0),
        };
    }
    f.u32(b.stmts().len() as u32);
    for s in b.stmts() {
        match *s {
            S::Local {
                name,
                ty,
                init,
                is_final,
            } => opt(
                f.u8(0).u32(name.0).u32(ty.0).bool(is_final),
                init.map(|e| e.0),
            ),
            S::Assign { target, op, value } => {
                let op = op.map_or(0xff, |o| o as u8);
                f.u8(1).u8(op).u32(target.0).u32(value.0)
            }
            S::IncDec { target, inc } => f.u8(2).bool(inc).u32(target.0),
            S::Expr(e) => f.u8(3).u32(e.0),
            S::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let f = list(f.u8(4).u32(cond.0), then_branch);
                match else_branch {
                    Some(b) => list(f.u8(1), b),
                    None => f.u8(0),
                }
            }
            S::While { cond, body } => list(f.u8(5).u32(cond.0), body),
            S::For {
                init,
                cond,
                update,
                body,
            } => {
                let f = opt(opt(f.u8(6), init.map(|s| s.0)), cond.map(|e| e.0));
                list(opt(f, update.map(|s| s.0)), body)
            }
            S::Return { value } => opt(f.u8(7), value.map(|e| e.0)),
            S::Break => f.u8(8),
            S::Continue => f.u8(9),
            S::Block(b) => list(f.u8(10), b),
        };
    }
    f.u32(b.types().len() as u32);
    for t in b.types() {
        match *t {
            T::Void => f.u8(0),
            T::Int => f.u8(1),
            T::Long => f.u8(2),
            T::Float => f.u8(3),
            T::Double => f.u8(4),
            T::Boolean => f.u8(5),
            T::Named { name, args, .. } => list(f.u8(6).u32(name.0), args),
            T::Array(elem) => f.u8(7).u32(elem.0),
        };
    }
    f.u32(b.ids().len() as u32);
    for &id in b.ids() {
        f.u32(id);
    }
    for name in b.names() {
        f.str(name);
    }
    f.finish()
}

// ---- typed (checker output) --------------------------------------------

fn hash_type(f: &mut Fingerprint, t: &Type) {
    match t {
        Type::Void => {
            f.u8(0);
        }
        Type::Int => {
            f.u8(1);
        }
        Type::Long => {
            f.u8(2);
        }
        Type::Float => {
            f.u8(3);
        }
        Type::Double => {
            f.u8(4);
        }
        Type::Boolean => {
            f.u8(5);
        }
        Type::Object(id, args) => {
            f.u8(6).u32(id.0).u32(args.len() as u32);
            for a in args {
                hash_type(f, a);
            }
        }
        Type::Array(e) => {
            f.u8(7);
            hash_type(f, e);
        }
        Type::Var(v) => {
            f.u8(8).u32(*v);
        }
        Type::Null => {
            f.u8(9);
        }
        Type::Str => {
            f.u8(10);
        }
    }
}

fn prim_tag(p: PrimKind) -> u8 {
    match p {
        PrimKind::Int => 0,
        PrimKind::Long => 1,
        PrimKind::Float => 2,
        PrimKind::Double => 3,
        PrimKind::Boolean => 4,
    }
}

fn refs_in_type(t: &Type, out: &mut Vec<ClassId>) {
    match t {
        Type::Object(id, args) => {
            out.push(*id);
            for a in args {
                refs_in_type(a, out);
            }
        }
        Type::Array(e) => refs_in_type(e, out),
        _ => {}
    }
}

/// The early-cutoff hash of one checked body, and every class it resolved
/// against. The hash is what a `lower_fn` memo records per body
/// dependency: if a re-checked body hashes identically, lowering it again
/// would emit identical NIR. It is a loop over the body's root and frame
/// size, its nodes with their types, its id list, its type table and its
/// strings; spans are left out. The classes are those in its types, the
/// field owners, method declaration classes, and static and `new`
/// targets: the typeck memo of the body is valid only while all their
/// item trees are unchanged.
pub fn thash_and_refs(b: &TBody) -> (u64, Vec<ClassId>) {
    fn sel<'f>(
        f: &'f mut Fingerprint,
        s: FieldSel,
        refs: &mut Vec<ClassId>,
    ) -> &'f mut Fingerprint {
        refs.push(s.owner);
        f.u32(s.owner.0).u32(s.slot).u32(s.ty.0)
    }
    let mut refs = Vec::new();
    let mut f = Fingerprint::seeded(0x7462_6479); // "tbdy"
    match b.root() {
        TRoot::Block(body) => list(f.u8(0), body),
        TRoot::Ctor { super_args, body } => list(list(f.u8(1), super_args), body),
        TRoot::Init(e) => f.u8(2).u32(e.0),
    };
    f.u32(b.frame()).u32(b.exprs().len() as u32);
    for (e, ty) in b.exprs().iter().zip(b.expr_types()) {
        let f = f.u32(ty.0);
        match *e {
            TExpr::Int(v) => f.u8(0).u32(v as u32),
            TExpr::Long(v) => f.u8(1).i64(v),
            TExpr::Float(v) => f.u8(2).u32(v.to_bits()),
            TExpr::Double(v) => f.u8(3).f64_bits(v),
            TExpr::Bool(v) => f.u8(4).bool(v),
            TExpr::Null => f.u8(5),
            TExpr::Str(s) => f.u8(6).u32(s.0),
            TExpr::Local(slot) => f.u8(7).u32(slot),
            TExpr::This => f.u8(8),
            TExpr::GetField { obj, field } => sel(f.u8(9).u32(obj.0), field, &mut refs),
            TExpr::GetStatic { class, index } => {
                refs.push(class);
                f.u8(10).u32(class.0).u32(index)
            }
            TExpr::Call { recv, method, args } | TExpr::DirectCall { recv, method, args } => {
                refs.push(method.decl_class);
                let tag = if matches!(e, TExpr::Call { .. }) {
                    11
                } else {
                    12
                };
                let f = f.u8(tag).u32(recv.0);
                list(f.u32(method.decl_class.0).u32(method.index), args)
            }
            TExpr::StaticCall { class, index, args } => {
                refs.push(class);
                list(f.u8(13).u32(class.0).u32(index), args)
            }
            TExpr::New { class, args } => {
                refs.push(class);
                list(f.u8(14).u32(class.0), args)
            }
            TExpr::NewArray { elem, len } => f.u8(15).u32(elem.0).u32(len.0),
            TExpr::Index { arr, idx } => f.u8(16).u32(arr.0).u32(idx.0),
            TExpr::ArrayLen(a) => f.u8(17).u32(a.0),
            TExpr::Unary { op, expr } => f.u8(18).u8(op as u8).u32(expr.0),
            TExpr::Binary {
                op,
                operand_kind,
                lhs,
                rhs,
            } => {
                let f = f.u8(19).u8(op as u8).u8(prim_tag(operand_kind));
                f.u32(lhs.0).u32(rhs.0)
            }
            TExpr::RefEq { negated, lhs, rhs } => f.u8(20).bool(negated).u32(lhs.0).u32(rhs.0),
            TExpr::NumCast { to, expr } => f.u8(21).u8(prim_tag(to)).u32(expr.0),
            TExpr::RefCast { to, expr } => f.u8(22).u32(to.0).u32(expr.0),
            TExpr::Convert { to, expr } => f.u8(23).u8(prim_tag(to)).u32(expr.0),
            TExpr::InstanceOf { expr, ty } => f.u8(24).u32(expr.0).u32(ty.0),
            TExpr::Ternary {
                cond,
                then_val,
                else_val,
            } => f.u8(25).u32(cond.0).u32(then_val.0).u32(else_val.0),
        };
    }
    f.u32(b.stmts().len() as u32);
    for s in b.stmts() {
        match *s {
            TStmt::Local { slot, ty, init } => opt(f.u8(0).u32(slot).u32(ty.0), init.map(|e| e.0)),
            TStmt::AssignLocal { slot, value } => f.u8(1).u32(slot).u32(value.0),
            TStmt::AssignField { obj, field, value } => {
                sel(f.u8(2).u32(obj.0).u32(value.0), field, &mut refs)
            }
            TStmt::AssignStatic {
                class,
                index,
                value,
            } => {
                refs.push(class);
                f.u8(3).u32(class.0).u32(index).u32(value.0)
            }
            TStmt::AssignIndex { arr, idx, value } => f.u8(4).u32(arr.0).u32(idx.0).u32(value.0),
            TStmt::Expr(e) => f.u8(5).u32(e.0),
            TStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let f = list(f.u8(6).u32(cond.0), then_branch);
                match else_branch {
                    Some(b) => list(f.u8(1), b),
                    None => f.u8(0),
                }
            }
            TStmt::While { cond, body } => list(f.u8(7).u32(cond.0), body),
            TStmt::For {
                init,
                cond,
                update,
                body,
            } => {
                let f = opt(opt(f.u8(8), init.map(|s| s.0)), cond.map(|e| e.0));
                list(opt(f, update.map(|s| s.0)), body)
            }
            TStmt::Return { value } => opt(f.u8(9), value.map(|e| e.0)),
            TStmt::Break => f.u8(10),
            TStmt::Continue => f.u8(11),
            TStmt::Block(b) => list(f.u8(12), b),
        };
    }
    f.u32(b.ids().len() as u32);
    for &id in b.ids() {
        f.u32(id);
    }
    f.u32(b.types().len() as u32);
    for t in b.types() {
        hash_type(&mut f, t);
        refs_in_type(t, &mut refs);
    }
    for s in b.strs() {
        f.str(s);
    }
    (f.finish(), refs)
}

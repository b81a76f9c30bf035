//! Span-free structural fingerprints over the untyped and typed ASTs.
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
//! * **Body fingerprints** ([`body_fp`], [`ctor_src_fp`]) cover one
//!   untyped body; typed-body hashes ([`thash_and_refs`]) cover the
//!   type checker's output and feed the `lower_fn` memo validation.
//!
//! [`Span`]: jlang::span::Span

use jlang::ast;
use jlang::tast::{FieldSel, MethodSel, TBlock, TExpr, TExprKind, TStmt};
use jlang::typeck::Typed;
use jlang::types::{ClassId, PrimKind, Type};
use nir::hash::Fingerprint;

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

/// Fingerprint of one untyped method body.
pub fn body_fp(b: &ast::Block) -> u64 {
    let mut f = Fingerprint::seeded(0x626f_6479); // "body"
    hash_block(&mut f, b);
    f.finish()
}

/// Fingerprint of the constructor source: super(...) args plus the ctor
/// body. Field initializers are separate bodies with their own memos;
/// the *typed* ctor bundle hash recombines them for lowering deps.
pub fn ctor_src_fp(c: &ast::ClassDecl) -> u64 {
    let mut f = Fingerprint::seeded(0x63746f72); // "ctor"
    match &c.ctor {
        Some(ct) => {
            f.u8(1);
            match &ct.super_args {
                Some(args) => {
                    f.u8(1).u32(args.len() as u32);
                    for a in args.iter() {
                        hash_expr(&mut f, a);
                    }
                }
                None => {
                    f.u8(0);
                }
            }
            hash_block(&mut f, &ct.body);
        }
        None => {
            f.u8(0);
        }
    }
    f.finish()
}

/// Fingerprint of one field initializer expression.
pub fn init_fp(e: &ast::Expr) -> u64 {
    let mut f = Fingerprint::seeded(0x696e_6974); // "init"
    hash_expr(&mut f, e);
    f.finish()
}

fn hash_block(f: &mut Fingerprint, b: &ast::Block) {
    f.u32(b.stmts.len() as u32);
    for s in &b.stmts {
        hash_stmt(f, s);
    }
}

fn hash_opt_expr(f: &mut Fingerprint, e: &Option<ast::Expr>) {
    match e {
        Some(e) => {
            f.u8(1);
            hash_expr(f, e);
        }
        None => {
            f.u8(0);
        }
    }
}

fn hash_lvalue(f: &mut Fingerprint, lv: &ast::LValue) {
    match lv {
        ast::LValue::Name(n, _) => {
            f.u8(0).str(n);
        }
        ast::LValue::Field { obj, name, .. } => {
            f.u8(1).str(name);
            hash_expr(f, obj);
        }
        ast::LValue::Index { arr, idx, .. } => {
            f.u8(2);
            hash_expr(f, arr);
            hash_expr(f, idx);
        }
    }
}

fn hash_stmt(f: &mut Fingerprint, s: &ast::Stmt) {
    match s {
        ast::Stmt::Local {
            name,
            ty,
            init,
            is_final,
            ..
        } => {
            f.u8(0).str(name).bool(*is_final);
            hash_typeref(f, ty);
            hash_opt_expr(f, init);
        }
        ast::Stmt::Assign {
            target, op, value, ..
        } => {
            f.u8(1).u8(op.map_or(0xff, |o| o as u8));
            hash_lvalue(f, target);
            hash_expr(f, value);
        }
        ast::Stmt::IncDec { target, inc, .. } => {
            f.u8(2).bool(*inc);
            hash_lvalue(f, target);
        }
        ast::Stmt::Expr(e) => {
            f.u8(3);
            hash_expr(f, e);
        }
        ast::Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            f.u8(4);
            hash_expr(f, cond);
            hash_block(f, then_branch);
            match else_branch {
                Some(b) => {
                    f.u8(1);
                    hash_block(f, b);
                }
                None => {
                    f.u8(0);
                }
            }
        }
        ast::Stmt::While { cond, body, .. } => {
            f.u8(5);
            hash_expr(f, cond);
            hash_block(f, body);
        }
        ast::Stmt::For {
            init,
            cond,
            update,
            body,
            ..
        } => {
            f.u8(6);
            match init {
                Some(s) => {
                    f.u8(1);
                    hash_stmt(f, s);
                }
                None => {
                    f.u8(0);
                }
            }
            hash_opt_expr(f, cond);
            match update {
                Some(s) => {
                    f.u8(1);
                    hash_stmt(f, s);
                }
                None => {
                    f.u8(0);
                }
            }
            hash_block(f, body);
        }
        ast::Stmt::Return { value, .. } => {
            f.u8(7);
            hash_opt_expr(f, value);
        }
        ast::Stmt::Break(_) => {
            f.u8(8);
        }
        ast::Stmt::Continue(_) => {
            f.u8(9);
        }
        ast::Stmt::Block(b) => {
            f.u8(10);
            hash_block(f, b);
        }
    }
}

fn hash_expr(f: &mut Fingerprint, e: &ast::Expr) {
    match e {
        ast::Expr::IntLit(v, _) => {
            f.u8(0).i64(*v);
        }
        ast::Expr::LongLit(v, _) => {
            f.u8(1).i64(*v);
        }
        ast::Expr::FloatLit(v, _) => {
            f.u8(2).u32(v.to_bits());
        }
        ast::Expr::DoubleLit(v, _) => {
            f.u8(3).f64_bits(*v);
        }
        ast::Expr::BoolLit(v, _) => {
            f.u8(4).bool(*v);
        }
        ast::Expr::NullLit(_) => {
            f.u8(5);
        }
        ast::Expr::StrLit(s, _) => {
            f.u8(6).str(s);
        }
        ast::Expr::Name(n, _) => {
            f.u8(7).str(n);
        }
        ast::Expr::This(_) => {
            f.u8(8);
        }
        ast::Expr::Field { obj, name, .. } => {
            f.u8(9).str(name);
            hash_expr(f, obj);
        }
        ast::Expr::Call {
            recv, name, args, ..
        } => {
            f.u8(10).str(name).u32(args.len() as u32);
            hash_expr(f, recv);
            for a in args {
                hash_expr(f, a);
            }
        }
        ast::Expr::SuperCall { name, args, .. } => {
            f.u8(11).str(name).u32(args.len() as u32);
            for a in args {
                hash_expr(f, a);
            }
        }
        ast::Expr::New { ty, args, .. } => {
            f.u8(12).u32(args.len() as u32);
            hash_typeref(f, ty);
            for a in args {
                hash_expr(f, a);
            }
        }
        ast::Expr::NewArray { elem, len, .. } => {
            f.u8(13);
            hash_typeref(f, elem);
            hash_expr(f, len);
        }
        ast::Expr::Index { arr, idx, .. } => {
            f.u8(14);
            hash_expr(f, arr);
            hash_expr(f, idx);
        }
        ast::Expr::Unary { op, expr, .. } => {
            f.u8(15).u8(*op as u8);
            hash_expr(f, expr);
        }
        ast::Expr::Binary { op, lhs, rhs, .. } => {
            f.u8(16).u8(*op as u8);
            hash_expr(f, lhs);
            hash_expr(f, rhs);
        }
        ast::Expr::Cast { ty, expr, .. } => {
            f.u8(17);
            hash_typeref(f, ty);
            hash_expr(f, expr);
        }
        ast::Expr::InstanceOf { expr, ty, .. } => {
            f.u8(18);
            hash_typeref(f, ty);
            hash_expr(f, expr);
        }
        ast::Expr::Ternary {
            cond,
            then_val,
            else_val,
            ..
        } => {
            f.u8(19);
            hash_expr(f, cond);
            hash_expr(f, then_val);
            hash_expr(f, else_val);
        }
    }
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

fn hash_field_sel(f: &mut Fingerprint, s: &FieldSel) {
    f.u32(s.owner.0).u32(s.slot);
    hash_type(f, &s.ty);
}

fn hash_method_sel(f: &mut Fingerprint, s: &MethodSel) {
    f.u32(s.decl_class.0).u32(s.index);
}

/// Fingerprint of one typed body (plus its frame size). This is what a
/// `lower_fn` memo records per body dependency: if the re-typechecked
/// body hashes identically, lowering it again would emit identical NIR.
fn thash_block(b: &TBlock, frame: u32) -> u64 {
    let mut f = Fingerprint::seeded(0x7462_6c6b); // "tblk"
    f.u32(frame);
    thash_blk(&mut f, b);
    f.finish()
}

/// Fingerprint of a typed expression list (super-ctor args etc.).
fn thash_exprs(es: &[TExpr]) -> u64 {
    let mut f = Fingerprint::seeded(0x7465_7873); // "texs"
    f.u32(es.len() as u32);
    for e in es {
        thash_expr(&mut f, e);
    }
    f.finish()
}

/// The early-cutoff hash of one checked body, with every class it
/// resolved against (see [`collect_refs`]).
pub fn thash_and_refs(typed: &Typed) -> (u64, Vec<ClassId>) {
    let mut refs = Vec::new();
    let thash = match typed {
        Typed::Method { body, frame } => {
            collect_refs(body, &mut refs);
            thash_block(body, *frame)
        }
        Typed::Ctor {
            super_args,
            body,
            frame,
        } => {
            collect_exprs_refs(super_args, &mut refs);
            collect_refs(body, &mut refs);
            let mut h = Fingerprint::seeded(0x7463_7472); // "tctr"
            h.u64(thash_exprs(super_args))
                .u64(thash_block(body, *frame));
            h.finish()
        }
        Typed::Init(e) => {
            let e = std::slice::from_ref(&**e);
            collect_exprs_refs(e, &mut refs);
            thash_exprs(e)
        }
    };
    (thash, refs)
}

fn thash_blk(f: &mut Fingerprint, b: &TBlock) {
    f.u32(b.stmts.len() as u32);
    for s in &b.stmts {
        thash_stmt(f, s);
    }
}

fn thash_opt_expr(f: &mut Fingerprint, e: &Option<TExpr>) {
    match e {
        Some(e) => {
            f.u8(1);
            thash_expr(f, e);
        }
        None => {
            f.u8(0);
        }
    }
}

fn thash_stmt(f: &mut Fingerprint, s: &TStmt) {
    match s {
        TStmt::Local { slot, ty, init, .. } => {
            f.u8(0).u32(*slot);
            hash_type(f, ty);
            thash_opt_expr(f, init);
        }
        TStmt::AssignLocal { slot, value, .. } => {
            f.u8(1).u32(*slot);
            thash_expr(f, value);
        }
        TStmt::AssignField {
            obj, field, value, ..
        } => {
            f.u8(2);
            hash_field_sel(f, field);
            thash_expr(f, obj);
            thash_expr(f, value);
        }
        TStmt::AssignStatic {
            class,
            index,
            value,
            ..
        } => {
            f.u8(3).u32(class.0).u32(*index);
            thash_expr(f, value);
        }
        TStmt::AssignIndex {
            arr, idx, value, ..
        } => {
            f.u8(4);
            thash_expr(f, arr);
            thash_expr(f, idx);
            thash_expr(f, value);
        }
        TStmt::Expr(e) => {
            f.u8(5);
            thash_expr(f, e);
        }
        TStmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            f.u8(6);
            thash_expr(f, cond);
            thash_blk(f, then_branch);
            match else_branch {
                Some(b) => {
                    f.u8(1);
                    thash_blk(f, b);
                }
                None => {
                    f.u8(0);
                }
            }
        }
        TStmt::While { cond, body, .. } => {
            f.u8(7);
            thash_expr(f, cond);
            thash_blk(f, body);
        }
        TStmt::For {
            init,
            cond,
            update,
            body,
            ..
        } => {
            f.u8(8);
            match init {
                Some(s) => {
                    f.u8(1);
                    thash_stmt(f, s);
                }
                None => {
                    f.u8(0);
                }
            }
            thash_opt_expr(f, cond);
            match update {
                Some(s) => {
                    f.u8(1);
                    thash_stmt(f, s);
                }
                None => {
                    f.u8(0);
                }
            }
            thash_blk(f, body);
        }
        TStmt::Return { value, .. } => {
            f.u8(9);
            thash_opt_expr(f, value);
        }
        TStmt::Break(_) => {
            f.u8(10);
        }
        TStmt::Continue(_) => {
            f.u8(11);
        }
        TStmt::Block(b) => {
            f.u8(12);
            thash_blk(f, b);
        }
    }
}

fn thash_expr(f: &mut Fingerprint, e: &TExpr) {
    hash_type(f, &e.ty);
    match &e.kind {
        TExprKind::Int(v) => {
            f.u8(0).u32(*v as u32);
        }
        TExprKind::Long(v) => {
            f.u8(1).i64(*v);
        }
        TExprKind::Float(v) => {
            f.u8(2).u32(v.to_bits());
        }
        TExprKind::Double(v) => {
            f.u8(3).f64_bits(*v);
        }
        TExprKind::Bool(v) => {
            f.u8(4).bool(*v);
        }
        TExprKind::Null => {
            f.u8(5);
        }
        TExprKind::Str(s) => {
            f.u8(6).str(s);
        }
        TExprKind::Local(slot) => {
            f.u8(7).u32(*slot);
        }
        TExprKind::This => {
            f.u8(8);
        }
        TExprKind::GetField { obj, field } => {
            f.u8(9);
            hash_field_sel(f, field);
            thash_expr(f, obj);
        }
        TExprKind::GetStatic { class, index } => {
            f.u8(10).u32(class.0).u32(*index);
        }
        TExprKind::Call { recv, method, args } => {
            f.u8(11).u32(args.len() as u32);
            hash_method_sel(f, method);
            thash_expr(f, recv);
            for a in args {
                thash_expr(f, a);
            }
        }
        TExprKind::DirectCall { recv, method, args } => {
            f.u8(12).u32(args.len() as u32);
            hash_method_sel(f, method);
            thash_expr(f, recv);
            for a in args {
                thash_expr(f, a);
            }
        }
        TExprKind::StaticCall { class, index, args } => {
            f.u8(13).u32(class.0).u32(*index).u32(args.len() as u32);
            for a in args {
                thash_expr(f, a);
            }
        }
        TExprKind::New { class, targs, args } => {
            f.u8(14).u32(class.0).u32(targs.len() as u32);
            for t in targs {
                hash_type(f, t);
            }
            f.u32(args.len() as u32);
            for a in args {
                thash_expr(f, a);
            }
        }
        TExprKind::NewArray { elem, len } => {
            f.u8(15);
            hash_type(f, elem);
            thash_expr(f, len);
        }
        TExprKind::Index { arr, idx } => {
            f.u8(16);
            thash_expr(f, arr);
            thash_expr(f, idx);
        }
        TExprKind::ArrayLen(a) => {
            f.u8(17);
            thash_expr(f, a);
        }
        TExprKind::Unary { op, expr } => {
            f.u8(18).u8(*op as u8);
            thash_expr(f, expr);
        }
        TExprKind::Binary {
            op,
            operand_kind,
            lhs,
            rhs,
        } => {
            f.u8(19).u8(*op as u8).u8(prim_tag(*operand_kind));
            thash_expr(f, lhs);
            thash_expr(f, rhs);
        }
        TExprKind::RefEq { negated, lhs, rhs } => {
            f.u8(20).bool(*negated);
            thash_expr(f, lhs);
            thash_expr(f, rhs);
        }
        TExprKind::NumCast { to, expr } => {
            f.u8(21).u8(prim_tag(*to));
            thash_expr(f, expr);
        }
        TExprKind::RefCast { to, expr } => {
            f.u8(22);
            hash_type(f, to);
            thash_expr(f, expr);
        }
        TExprKind::Convert { to, expr } => {
            f.u8(23).u8(prim_tag(*to));
            thash_expr(f, expr);
        }
        TExprKind::InstanceOf { expr, ty } => {
            f.u8(24);
            hash_type(f, ty);
            thash_expr(f, expr);
        }
        TExprKind::Ternary {
            cond,
            then_val,
            else_val,
        } => {
            f.u8(25);
            thash_expr(f, cond);
            thash_expr(f, then_val);
            thash_expr(f, else_val);
        }
    }
}

// ---- class-reference extraction ----------------------------------------

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

/// Every class a typed body resolves against: types of all expressions
/// and locals, field owners, method declaration classes, static and
/// `new` targets. The typeck memo of the body is valid only while all
/// these classes' item trees are unchanged.
fn collect_refs(b: &TBlock, out: &mut Vec<ClassId>) {
    b.walk_stmts(&mut |s| match s {
        TStmt::Local { ty, .. } => refs_in_type(ty, out),
        TStmt::AssignField { field, .. } => {
            out.push(field.owner);
            refs_in_type(&field.ty, out);
        }
        TStmt::AssignStatic { class, .. } => out.push(*class),
        _ => {}
    });
    b.walk_exprs(&mut |e| collect_expr_refs(e, out));
}

/// Class references of a typed expression tree (non-recursive contribution;
/// use with `TExpr::walk` or via [`collect_refs`]).
fn collect_expr_refs(e: &TExpr, out: &mut Vec<ClassId>) {
    refs_in_type(&e.ty, out);
    match &e.kind {
        TExprKind::GetField { field, .. } => {
            out.push(field.owner);
            refs_in_type(&field.ty, out);
        }
        TExprKind::GetStatic { class, .. } => out.push(*class),
        TExprKind::Call { method, .. } | TExprKind::DirectCall { method, .. } => {
            out.push(method.decl_class)
        }
        TExprKind::StaticCall { class, .. } => out.push(*class),
        TExprKind::New { class, targs, .. } => {
            out.push(*class);
            for t in targs {
                refs_in_type(t, out);
            }
        }
        TExprKind::NewArray { elem, .. } => refs_in_type(elem, out),
        TExprKind::RefCast { to, .. } => refs_in_type(to, out),
        TExprKind::InstanceOf { ty, .. } => refs_in_type(ty, out),
        _ => {}
    }
}

/// Refs of a typed expression list (super-ctor args, field inits).
fn collect_exprs_refs(es: &[TExpr], out: &mut Vec<ClassId>) {
    for e in es {
        e.walk(&mut |e| collect_expr_refs(e, out));
    }
}

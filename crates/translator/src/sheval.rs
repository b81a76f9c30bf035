//! Shape evaluation: abstract interpretation of typed method bodies over
//! the [`Shape`] domain.
//!
//! This is the "simple program analysis" of §3.3: given the exact shapes
//! of the receiver and arguments, determine the exact shape of every
//! expression — in particular method return values and constructed
//! objects. The coding rules make this sound and terminating:
//! constructors are branch-free, shapes of locals are fixed at their
//! declaration, and recursion is forbidden.

use std::collections::{HashMap, HashSet};

use jlang::table::ClassTable;
use jlang::tast::{TArgs, TBlock, TBody, TExpr, TExprId, TStmt, TStmtId};
use jlang::types::{ClassId, Type};

use crate::shape::{elem_ty_of, Shape, TransError};
use crate::TResult;

/// Identity of a shape specialization of a method.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpecKey {
    pub class: ClassId,
    pub method: u32,
    /// `None` for static methods.
    pub recv: Option<Shape>,
    pub args: Vec<Shape>,
}

pub struct ShapeEval<'t> {
    pub table: &'t ClassTable,
    ret_cache: HashMap<SpecKey, Option<Shape>>,
    in_progress: HashSet<SpecKey>,
}

struct Env {
    locals: HashMap<u32, Shape>,
    recv: Option<Shape>,
}

impl<'t> ShapeEval<'t> {
    pub fn new(table: &'t ClassTable) -> Self {
        ShapeEval {
            table,
            ret_cache: HashMap::new(),
            in_progress: HashSet::new(),
        }
    }

    /// The return shape of a specialized method (`None` = void).
    pub fn method_return(&mut self, key: &SpecKey) -> TResult<Option<Shape>> {
        if let Some(s) = self.ret_cache.get(key) {
            return Ok(s.clone());
        }
        if !self.in_progress.insert(key.clone()) {
            return Err(TransError::new(format!(
                "recursion reached shape analysis in `{}::{}` (coding rule 6 forbids recursive calls)",
                self.table.name(key.class),
                self.table.method(key.class, key.method).name
            )));
        }
        let result = self.method_return_inner(key);
        self.in_progress.remove(key);
        if let Ok(s) = &result {
            self.ret_cache.insert(key.clone(), s.clone());
        }
        result
    }

    fn method_return_inner(&mut self, key: &SpecKey) -> TResult<Option<Shape>> {
        let m = self.table.method(key.class, key.method);
        if let Some(native) = &m.native {
            return native_return_shape(&m.ret, native);
        }
        let Some((body, block)) = m.typed_body() else {
            return Err(TransError::new(format!(
                "method `{}::{}` has no body to analyze",
                self.table.name(key.class),
                m.name
            )));
        };
        if m.ret == Type::Void {
            // Still walk the body to surface shape errors early? Walking is
            // done during lowering anyway; skip for speed.
            return Ok(None);
        }
        let mut env = Env {
            locals: HashMap::new(),
            recv: key.recv.clone(),
        };
        for (i, a) in key.args.iter().enumerate() {
            env.locals.insert(i as u32, a.clone());
        }
        let mut ret: Option<Option<Shape>> = None;
        self.block(&mut env, body, block, &mut ret)?;
        match ret {
            Some(s) => Ok(s),
            None => Err(TransError::new(format!(
                "could not determine return shape of `{}::{}`",
                self.table.name(key.class),
                m.name
            ))),
        }
    }

    fn block(
        &mut self,
        env: &mut Env,
        b: &TBody,
        block: TBlock,
        ret: &mut Option<Option<Shape>>,
    ) -> TResult<()> {
        for s in b.list(block) {
            self.stmt(env, b, s, ret)?;
        }
        Ok(())
    }

    fn stmt(
        &mut self,
        env: &mut Env,
        b: &TBody,
        s: TStmtId,
        ret: &mut Option<Option<Shape>>,
    ) -> TResult<()> {
        match b.stmt(s) {
            TStmt::Local { slot, ty, init } => {
                let shape = match init {
                    Some(e) => self.expr(env, b, e)?,
                    None => shape_from_decl(b.type_at(ty)).ok_or_else(|| {
                        TransError::new(format!(
                            "object-typed local needs an initializer for shape analysis (type {})",
                            self.table.show_type(b.type_at(ty))
                        ))
                    })?,
                };
                env.locals.insert(slot, shape);
                Ok(())
            }
            TStmt::AssignLocal { slot, value } => {
                let new = self.expr(env, b, value)?;
                if let Some(old) = env.locals.get(&slot) {
                    if old != &new {
                        return Err(TransError::new(format!(
                            "local changes shape from {} to {} — exact types must be static",
                            old.show(self.table),
                            new.show(self.table)
                        )));
                    }
                }
                env.locals.insert(slot, new);
                Ok(())
            }
            TStmt::AssignField { obj, value, .. } => {
                self.expr(env, b, obj)?;
                self.expr(env, b, value)?;
                Ok(())
            }
            TStmt::AssignIndex { arr, idx, value } => {
                self.expr(env, b, arr)?;
                self.expr(env, b, value)?;
                self.expr(env, b, idx)?;
                Ok(())
            }
            TStmt::AssignStatic { value, .. } => {
                self.expr(env, b, value)?;
                Ok(())
            }
            TStmt::Expr(e) => {
                self.expr_stmt(env, b, e)?;
                Ok(())
            }
            TStmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.expr(env, b, cond)?;
                self.block(env, b, then_branch, ret)?;
                if let Some(e) = else_branch {
                    self.block(env, b, e, ret)?;
                }
                Ok(())
            }
            TStmt::While { cond, body, .. } => {
                self.expr(env, b, cond)?;
                self.block(env, b, body, ret)
            }
            TStmt::For {
                init,
                cond,
                update,
                body,
                ..
            } => {
                if let Some(i) = init {
                    self.stmt(env, b, i, ret)?;
                }
                if let Some(c) = cond {
                    self.expr(env, b, c)?;
                }
                self.block(env, b, body, ret)?;
                if let Some(u) = update {
                    self.stmt(env, b, u, ret)?;
                }
                Ok(())
            }
            TStmt::Return { value, .. } => {
                let shape = match value {
                    Some(e) => Some(self.expr(env, b, e)?),
                    None => None,
                };
                match ret {
                    None => *ret = Some(shape),
                    Some(prev) => {
                        if prev != &shape {
                            return Err(TransError::new(
                                "return statements produce different shapes — exact types must be static".to_string(),
                            ));
                        }
                    }
                }
                Ok(())
            }
            TStmt::Break | TStmt::Continue => Ok(()),
            TStmt::Block(block) => self.block(env, b, block, ret),
        }
    }

    /// Statement-position expression: void calls are fine here.
    fn expr_stmt(&mut self, env: &mut Env, b: &TBody, e: TExprId) -> TResult<()> {
        match b.expr(e) {
            TExpr::Call { recv, method, args } => {
                let rs = self.expr(env, b, recv)?;
                let Some(class) = rs.class() else {
                    return Err(TransError::new("call on non-object shape"));
                };
                let name = &self.table.method(method.decl_class, method.index).name;
                let (ic, im) = self.table.resolve_impl(class, name).ok_or_else(|| {
                    TransError::new(format!(
                        "no implementation of `{name}` on `{}`",
                        self.table.name(class)
                    ))
                })?;
                let arg_shapes = self.arg_shapes(env, b, args)?;
                let key = SpecKey {
                    class: ic,
                    method: im,
                    recv: Some(rs),
                    args: arg_shapes,
                };
                self.method_return(&key)?;
                Ok(())
            }
            TExpr::DirectCall { recv, method, args } => {
                let rs = self.expr(env, b, recv)?;
                let arg_shapes = self.arg_shapes(env, b, args)?;
                let key = SpecKey {
                    class: method.decl_class,
                    method: method.index,
                    recv: Some(rs),
                    args: arg_shapes,
                };
                self.method_return(&key)?;
                Ok(())
            }
            TExpr::StaticCall { class, index, args } => {
                let arg_shapes = self.arg_shapes(env, b, args)?;
                let key = SpecKey {
                    class,
                    method: index,
                    recv: None,
                    args: arg_shapes,
                };
                self.method_return(&key)?;
                Ok(())
            }
            _ => {
                self.expr(env, b, e)?;
                Ok(())
            }
        }
    }

    /// The shapes of call or constructor arguments, left to right.
    fn arg_shapes(&mut self, env: &mut Env, b: &TBody, args: TArgs) -> TResult<Vec<Shape>> {
        let mut out = Vec::with_capacity(args.len());
        for a in b.list(args) {
            out.push(self.expr(env, b, a)?);
        }
        Ok(out)
    }

    fn expr(&mut self, env: &mut Env, b: &TBody, e: TExprId) -> TResult<Shape> {
        use jlang::types::PrimKind::*;
        match b.expr(e) {
            TExpr::Int(_) => Ok(Shape::Prim(Int)),
            TExpr::Long(_) => Ok(Shape::Prim(Long)),
            TExpr::Float(_) => Ok(Shape::Prim(Float)),
            TExpr::Double(_) => Ok(Shape::Prim(Double)),
            TExpr::Bool(_) => Ok(Shape::Prim(Boolean)),
            TExpr::Local(slot) => env.locals.get(&slot).cloned().ok_or_else(|| {
                TransError::new(format!("local slot {slot} used before assignment"))
            }),
            TExpr::This => env
                .recv
                .clone()
                .ok_or_else(|| TransError::new("`this` in static translation context")),
            TExpr::GetField { obj, field } => {
                let os = self.expr(env, b, obj)?;
                field_shape(self.table, &os, field.slot)
            }
            TExpr::GetStatic { class, index } => {
                let f = &self.table.class(class).statics[index as usize];
                shape_from_decl(&f.ty).ok_or_else(|| {
                    TransError::new("static fields must be primitives under the coding rules")
                })
            }
            TExpr::Call { recv, method, args } => {
                let rs = self.expr(env, b, recv)?;
                let Some(class) = rs.class() else {
                    return Err(TransError::new("call on non-object shape"));
                };
                let name = &self.table.method(method.decl_class, method.index).name;
                let (ic, im) = self.table.resolve_impl(class, name).ok_or_else(|| {
                    TransError::new(format!(
                        "no implementation of `{name}` on `{}`",
                        self.table.name(class)
                    ))
                })?;
                let arg_shapes = self.arg_shapes(env, b, args)?;
                let key = SpecKey {
                    class: ic,
                    method: im,
                    recv: Some(rs),
                    args: arg_shapes,
                };
                self.method_return(&key)?
                    .ok_or_else(|| TransError::new(format!("void call `{name}` used as a value")))
            }
            TExpr::DirectCall { recv, method, args } => {
                let rs = self.expr(env, b, recv)?;
                let arg_shapes = self.arg_shapes(env, b, args)?;
                let key = SpecKey {
                    class: method.decl_class,
                    method: method.index,
                    recv: Some(rs),
                    args: arg_shapes,
                };
                self.method_return(&key)?
                    .ok_or_else(|| TransError::new("void super-call used as a value"))
            }
            TExpr::StaticCall { class, index, args } => {
                let arg_shapes = self.arg_shapes(env, b, args)?;
                let key = SpecKey {
                    class,
                    method: index,
                    recv: None,
                    args: arg_shapes,
                };
                self.method_return(&key)?
                    .ok_or_else(|| TransError::new("void static call used as a value"))
            }
            TExpr::New { class, args, .. } => {
                let arg_shapes = self.arg_shapes(env, b, args)?;
                self.ctor_shape(class, &arg_shapes)
            }
            TExpr::NewArray { elem, .. } => elem_ty_of(b.type_at(elem))
                .map(Shape::Arr)
                .ok_or_else(|| TransError::new("only primitive arrays can be translated")),
            TExpr::Index { arr, idx } => {
                self.expr(env, b, idx)?;
                match self.expr(env, b, arr)? {
                    Shape::Arr(e) => Ok(Shape::Prim(e.prim())),
                    other => Err(TransError::new(format!(
                        "indexing non-array shape {}",
                        other.show(self.table)
                    ))),
                }
            }
            TExpr::ArrayLen(a) => {
                self.expr(env, b, a)?;
                Ok(Shape::Prim(Int))
            }
            TExpr::Unary { expr, .. } => self.expr(env, b, expr),
            TExpr::Binary {
                op,
                operand_kind,
                lhs,
                rhs,
            } => {
                self.expr(env, b, lhs)?;
                self.expr(env, b, rhs)?;
                if op.is_comparison() {
                    Ok(Shape::Prim(Boolean))
                } else {
                    Ok(Shape::Prim(operand_kind))
                }
            }
            TExpr::NumCast { to, expr } | TExpr::Convert { to, expr } => {
                self.expr(env, b, expr)?;
                Ok(Shape::Prim(to))
            }
            TExpr::RefCast { to, expr } => {
                let s = self.expr(env, b, expr)?;
                if let (Some(c), Type::Object(want, _)) = (s.class(), b.type_at(to)) {
                    if !self.table.is_subclass_of(c, *want) {
                        return Err(TransError::new(format!(
                            "cast of `{}` to `{}` can never succeed",
                            self.table.name(c),
                            self.table.name(*want)
                        )));
                    }
                }
                Ok(s)
            }
            TExpr::RefEq { .. } => Err(TransError::new(
                "reference equality cannot be translated (coding rule 7)",
            )),
            TExpr::InstanceOf { .. } => Err(TransError::new(
                "`instanceof` cannot be translated (coding rule 8)",
            )),
            TExpr::Null => Err(TransError::new(
                "`null` cannot be translated (coding rule 8)",
            )),
            TExpr::Str(_) => Err(TransError::new("strings cannot be translated")),
            TExpr::Ternary { .. } => Err(TransError::new(
                "the conditional operator cannot be translated (coding rule 7)",
            )),
        }
    }

    /// Abstractly run the constructor chain of `new class(args)` and
    /// assemble the resulting object shape. Constructors are straight-line
    /// under the semi-immutable rules; anything else is reported.
    pub fn ctor_shape(&mut self, class: ClassId, arg_shapes: &[Shape]) -> TResult<Shape> {
        let size = self.table.class(class).instance_size() as usize;
        let mut fields: Vec<Option<Shape>> = vec![None; size];
        self.run_ctor_abstract(class, arg_shapes, &mut fields)?;
        let mut out = Vec::with_capacity(size);
        for (slot, s) in fields.into_iter().enumerate() {
            match s {
                Some(s) => out.push(s),
                None => {
                    // Unassigned fields default like Java: primitives to 0.
                    let decl = field_decl_type(self.table, class, slot as u32);
                    match decl.and_then(|t| shape_from_decl(&t)) {
                        Some(s) => out.push(s),
                        None => {
                            return Err(TransError::new(format!(
                                "field slot {slot} of `{}` is not assigned by any constructor; \
                                 its exact type cannot be determined",
                                self.table.name(class)
                            )))
                        }
                    }
                }
            }
        }
        Ok(Shape::Obj { class, fields: out })
    }

    fn run_ctor_abstract(
        &mut self,
        class: ClassId,
        arg_shapes: &[Shape],
        fields: &mut Vec<Option<Shape>>,
    ) -> TResult<()> {
        let info = self.table.class(class);
        let Some(ctor) = &info.ctor else {
            return Err(TransError::new(format!(
                "`{}` has no constructor",
                info.name
            )));
        };
        if ctor.params.len() != arg_shapes.len() {
            return Err(TransError::new(format!(
                "constructor of `{}` expects {} args, got {}",
                info.name,
                ctor.params.len(),
                arg_shapes.len()
            )));
        }
        let mut env = Env {
            locals: HashMap::new(),
            recv: None,
        };
        for (i, s) in arg_shapes.iter().enumerate() {
            env.locals.insert(i as u32, s.clone());
        }
        let typed = ctor.typed_body();
        // 1. super constructor.
        if let Some((sid, _)) = &info.superclass {
            if *sid != jlang::OBJECT {
                let mut sargs = Vec::new();
                if let Some((b, args, _)) = typed {
                    for a in b.list(args) {
                        sargs.push(self.ctor_expr(&mut env, b, a, fields)?);
                    }
                }
                self.run_ctor_abstract(*sid, &sargs, fields)?;
            }
        }
        // 2. field initializers.
        for (i, f) in info.fields.iter().enumerate() {
            if let Some((init, value)) = f.typed_init() {
                let s = self.ctor_expr(&mut env, init, value, fields)?;
                fields[(info.field_base + i as u32) as usize] = Some(s);
            }
        }
        // 3. constructor body (straight-line assignments only).
        if let Some((b, _, body)) = typed {
            self.ctor_block(&mut env, b, body, fields)?;
        }
        Ok(())
    }

    fn ctor_block(
        &mut self,
        env: &mut Env,
        b: &TBody,
        body: TBlock,
        fields: &mut Vec<Option<Shape>>,
    ) -> TResult<()> {
        for s in b.list(body) {
            match b.stmt(s) {
                TStmt::Local { slot, init, ty } => {
                    let shape = match init {
                        Some(e) => self.ctor_expr(env, b, e, fields)?,
                        None => shape_from_decl(b.type_at(ty)).ok_or_else(|| {
                            TransError::new("uninitialized object local in constructor")
                        })?,
                    };
                    env.locals.insert(slot, shape);
                }
                TStmt::AssignLocal { slot, value } => {
                    let shape = self.ctor_expr(env, b, value, fields)?;
                    env.locals.insert(slot, shape);
                }
                TStmt::AssignField { obj, field, value } => {
                    if b.expr(obj) != TExpr::This {
                        return Err(TransError::new(
                            "constructor assigns a field of another object (not semi-immutable)",
                        ));
                    }
                    let shape = self.ctor_expr(env, b, value, fields)?;
                    fields[field.slot as usize] = Some(shape);
                }
                TStmt::Block(block) => self.ctor_block(env, b, block, fields)?,
                _ => {
                    return Err(TransError::new(format!(
                        "constructor contains a statement that breaks semi-immutability \
                         (line {}); only assignments are allowed",
                        b.stmt_span(s).line
                    )))
                }
            }
        }
        Ok(())
    }

    /// Expressions inside constructors: like `expr` but `this.field` reads
    /// resolve against the in-progress field map instead of a receiver.
    fn ctor_expr(
        &mut self,
        env: &mut Env,
        b: &TBody,
        e: TExprId,
        fields: &mut Vec<Option<Shape>>,
    ) -> TResult<Shape> {
        match b.expr(e) {
            TExpr::GetField { obj, field } if b.expr(obj) == TExpr::This => {
                fields[field.slot as usize].clone().ok_or_else(|| {
                    TransError::new(format!(
                        "constructor reads field slot {} before assigning it",
                        field.slot
                    ))
                })
            }
            TExpr::This => Err(TransError::new(
                "constructor uses `this` as a value (not semi-immutable)",
            )),
            // Allocation inside a constructor is fine (e.g. field inits).
            TExpr::New { class, args } => {
                let mut arg_shapes = Vec::with_capacity(args.len());
                for a in b.list(args) {
                    arg_shapes.push(self.ctor_expr(env, b, a, fields)?);
                }
                self.ctor_shape(class, &arg_shapes)
            }
            TExpr::NewArray { elem, len } => {
                self.ctor_expr(env, b, len, fields)?;
                elem_ty_of(b.type_at(elem))
                    .map(Shape::Arr)
                    .ok_or_else(|| TransError::new("only primitive arrays can be translated"))
            }
            TExpr::Binary {
                op,
                operand_kind,
                lhs,
                rhs,
            } => {
                self.ctor_expr(env, b, lhs, fields)?;
                self.ctor_expr(env, b, rhs, fields)?;
                if op.is_comparison() {
                    Ok(Shape::Prim(jlang::PrimKind::Boolean))
                } else {
                    Ok(Shape::Prim(operand_kind))
                }
            }
            TExpr::Unary { expr, .. } => self.ctor_expr(env, b, expr, fields),
            TExpr::NumCast { to, expr } | TExpr::Convert { to, expr } => {
                self.ctor_expr(env, b, expr, fields)?;
                Ok(Shape::Prim(to))
            }
            TExpr::Call { .. } | TExpr::DirectCall { .. } | TExpr::StaticCall { .. } => Err(
                TransError::new("constructor calls a method (not semi-immutable)"),
            ),
            _ => self.expr(env, b, e),
        }
    }
}

/// Shape derivable from a declared type alone (primitives and primitive
/// arrays — the cases where the declaration pins the exact type).
pub fn shape_from_decl(ty: &Type) -> Option<Shape> {
    match ty {
        Type::Int => Some(Shape::Prim(jlang::PrimKind::Int)),
        Type::Long => Some(Shape::Prim(jlang::PrimKind::Long)),
        Type::Float => Some(Shape::Prim(jlang::PrimKind::Float)),
        Type::Double => Some(Shape::Prim(jlang::PrimKind::Double)),
        Type::Boolean => Some(Shape::Prim(jlang::PrimKind::Boolean)),
        Type::Array(e) => elem_ty_of(e).map(Shape::Arr),
        _ => None,
    }
}

/// Return shape of an `@Native` method from its declared signature.
pub(crate) fn native_return_shape(ret: &Type, key: &str) -> TResult<Option<Shape>> {
    match ret {
        Type::Void => Ok(None),
        t => shape_from_decl(t)
            .map(Some)
            .ok_or_else(|| TransError::new(format!("native `{key}` returns unsupported type {t}"))),
    }
}

/// Declared type of the field at absolute `slot` of `class`.
fn field_decl_type(table: &ClassTable, class: ClassId, slot: u32) -> Option<Type> {
    for (cid, args) in table.super_chain(class) {
        let info = table.class(cid);
        let base = info.field_base;
        if slot >= base && slot < base + info.fields.len() as u32 {
            return Some(info.fields[(slot - base) as usize].ty.subst(&args));
        }
    }
    None
}

/// Shape of field `slot` within an object shape.
pub fn field_shape(table: &ClassTable, obj: &Shape, slot: u32) -> TResult<Shape> {
    match obj {
        Shape::Obj { fields, .. } => fields
            .get(slot as usize)
            .cloned()
            .ok_or_else(|| TransError::new(format!("field slot {slot} out of range for shape"))),
        other => Err(TransError::new(format!(
            "field access on non-object shape {}",
            other.show(table)
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::shape_of_value;
    use jlang::compile_str;
    use jlang::types::PrimKind;
    use jvm::{Jvm, Value};

    fn entry_key(
        table: &ClassTable,
        jvm: &Jvm<'_>,
        recv: &Value,
        method: &str,
        args: &[Value],
    ) -> SpecKey {
        let rs = shape_of_value(jvm, recv).unwrap();
        let class = rs.class().unwrap();
        let (ic, im) = table.resolve_impl(class, method).unwrap();
        let arg_shapes = args
            .iter()
            .map(|a| shape_of_value(jvm, a).unwrap())
            .collect();
        SpecKey {
            class: ic,
            method: im,
            recv: Some(rs),
            args: arg_shapes,
        }
    }

    #[test]
    fn return_shape_through_dispatch() {
        let table = compile_str(
            "interface Solver { float solve(float x); } \
             final class Mul implements Solver { float a; Mul(float a0) { a = a0; } \
               float solve(float x) { return a * x; } } \
             final class App { Solver s; App(Solver s0) { s = s0; } \
               float run(float x) { return s.solve(x); } }",
        )
        .unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let mul = jvm.new_instance("Mul", &[Value::Float(3.0)]).unwrap();
        let app = jvm.new_instance("App", &[mul]).unwrap();
        let key = entry_key(&table, &jvm, &app, "run", &[Value::Float(1.0)]);
        let mut se = ShapeEval::new(&table);
        assert_eq!(
            se.method_return(&key).unwrap(),
            Some(Shape::Prim(PrimKind::Float))
        );
    }

    #[test]
    fn object_return_shapes() {
        let table = compile_str(
            "final class Cell { float v; Cell(float v0) { v = v0; } } \
             final class Maker { Maker() { } Cell make(float x) { return new Cell(x + 1f); } }",
        )
        .unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let maker = jvm.new_instance("Maker", &[]).unwrap();
        let key = entry_key(&table, &jvm, &maker, "make", &[Value::Float(0.0)]);
        let mut se = ShapeEval::new(&table);
        let ret = se.method_return(&key).unwrap().unwrap();
        assert_eq!(
            ret,
            Shape::Obj {
                class: table.by_name("Cell").unwrap(),
                fields: vec![Shape::Prim(PrimKind::Float)],
            }
        );
    }

    #[test]
    fn ctor_chain_with_super_and_inits() {
        let table = compile_str(
            "class Base { int a; Base(int a0) { a = a0; } } \
             final class Sub extends Base { float[] buf = new float[4]; int b; \
               Sub(int x) { super(x); b = a + 1; } }",
        )
        .unwrap();
        let mut se = ShapeEval::new(&table);
        let sub = table.by_name("Sub").unwrap();
        let s = se.ctor_shape(sub, &[Shape::Prim(PrimKind::Int)]).unwrap();
        assert_eq!(
            s,
            Shape::Obj {
                class: sub,
                fields: vec![
                    Shape::Prim(PrimKind::Int),
                    Shape::Arr(nir::ElemTy::F32),
                    Shape::Prim(PrimKind::Int),
                ],
            }
        );
    }

    #[test]
    fn divergent_return_shapes_rejected() {
        let table = compile_str(
            "interface I { } final class A implements I { A() { } } final class B implements I { B() { } } \
             final class F { F() { } I pick(boolean b) { if (b) { return new A(); } return new B(); } }",
        )
        .unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let f = jvm.new_instance("F", &[]).unwrap();
        let key = entry_key(&table, &jvm, &f, "pick", &[Value::Bool(true)]);
        let mut se = ShapeEval::new(&table);
        let err = se.method_return(&key).unwrap_err();
        assert!(err.message.contains("different shapes"), "{err}");
    }

    #[test]
    fn recursion_detected() {
        let table = compile_str(
            "final class R { R() { } int f(int n) { if (n <= 0) { return 0; } return f(n - 1); } }",
        )
        .unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let r = jvm.new_instance("R", &[]).unwrap();
        let key = entry_key(&table, &jvm, &r, "f", &[Value::Int(3)]);
        let mut se = ShapeEval::new(&table);
        let err = se.method_return(&key).unwrap_err();
        assert!(err.message.contains("recursion"), "{err}");
    }

    #[test]
    fn unassigned_object_field_rejected() {
        let table = compile_str(
            "final class Inner { Inner() { } } \
             final class Outer { Inner i; Outer() { } }",
        )
        .unwrap();
        let mut se = ShapeEval::new(&table);
        let outer = table.by_name("Outer").unwrap();
        let err = se.ctor_shape(outer, &[]).unwrap_err();
        assert!(err.message.contains("not assigned"), "{err}");
    }

    #[test]
    fn unassigned_primitive_field_defaults() {
        let table = compile_str("final class P { int x; float y; P() { } }").unwrap();
        let mut se = ShapeEval::new(&table);
        let p = table.by_name("P").unwrap();
        let s = se.ctor_shape(p, &[]).unwrap();
        assert_eq!(
            s,
            Shape::Obj {
                class: p,
                fields: vec![Shape::Prim(PrimKind::Int), Shape::Prim(PrimKind::Float)],
            }
        );
    }
}

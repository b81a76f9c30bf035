//! Shape evaluation: abstract interpretation of typed method bodies over
//! the [`Shape`] domain.
//!
//! This is the "simple program analysis" of §3.3: given the exact shapes
//! of the receiver and arguments, determine the exact shape of every
//! expression — in particular method return values and constructed
//! objects. The coding rules make this sound and terminating:
//! constructors are branch-free, shapes of locals are fixed at their
//! declaration, and recursion is forbidden.
//!
//! A constructor chain runs here as `walk::ctor` runs it for the
//! lowerers, through the ordinary statement and expression walk with a
//! field frame in the environment. It keeps its own short chain because
//! it emits nothing and so cannot drive `walk::Lower`. Both shaped
//! analyses hold a chain to one rule before it runs
//! ([`ShapeEval::ctor_rule`]); the checks they share on shapes are the
//! free functions at the end of this file.

use std::collections::{HashMap, HashSet};

use jlang::table::ClassTable;
use jlang::tast::{FieldSel, MethodSel, TArgs, TBlock, TBody, TExpr, TExprId, TStmt, TStmtId};
use jlang::types::{ClassId, PrimKind, Type};
use jrules::BodyFacts;

use crate::shape::{elem_ty_of, Shape, TransError};
use crate::walk::{self, refused};
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
    /// Classes whose constructor chain passed [`ShapeEval::ctor_rule`].
    ctor_ok: HashSet<ClassId>,
}

struct Env {
    locals: HashMap<u32, Shape>,
    recv: Option<Shape>,
    /// The field frame of the constructor chain being run (absolute slot
    /// -> shape once assigned); `None` in a method.
    fields: Option<Vec<Option<Shape>>>,
}

impl Env {
    /// The frame entry that `obj.field` names when `obj` is `this` in a
    /// running constructor chain.
    fn frame_slot(&mut self, b: &TBody, obj: TExprId, slot: u32) -> Option<&mut Option<Shape>> {
        match (&mut self.fields, b.expr(obj)) {
            (Some(frame), TExpr::This) => Some(&mut frame[slot as usize]),
            _ => None,
        }
    }
}

impl<'t> ShapeEval<'t> {
    pub fn new(table: &'t ClassTable) -> Self {
        ShapeEval {
            table,
            ret_cache: HashMap::new(),
            in_progress: HashSet::new(),
            ctor_ok: HashSet::new(),
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
            locals: (0..).zip(key.args.iter().cloned()).collect(),
            recv: key.recv.clone(),
            fields: None,
        };
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
                    None => uninit_local(self.table, b.type_at(ty))?,
                };
                env.locals.insert(slot, shape);
                Ok(())
            }
            TStmt::AssignLocal { slot, value } => {
                let new = self.expr(env, b, value)?;
                if let Some(old) = env.locals.get(&slot) {
                    same_shape(self.table, old, &new)?;
                }
                env.locals.insert(slot, new);
                Ok(())
            }
            TStmt::AssignField { obj, field, value } => {
                if env.frame_slot(b, obj, field.slot).is_none() {
                    self.expr(env, b, obj)?;
                }
                let s = self.expr(env, b, value)?;
                if let Some(entry) = env.frame_slot(b, obj, field.slot) {
                    *entry = Some(s);
                }
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
                self.expr_maybe_void(env, b, e)?;
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

    /// An expression in statement position: a call may be void (`None`).
    fn expr_maybe_void(&mut self, env: &mut Env, b: &TBody, e: TExprId) -> TResult<Option<Shape>> {
        let key = match b.expr(e) {
            TExpr::Call { recv, method, args } => {
                let rs = self.expr(env, b, recv)?;
                let (class, method) = call_target(self.table, &rs, method)?;
                SpecKey {
                    class,
                    method,
                    recv: Some(rs),
                    args: self.arg_shapes(env, b, args)?,
                }
            }
            TExpr::DirectCall { recv, method, args } => SpecKey {
                class: method.decl_class,
                method: method.index,
                recv: Some(self.expr(env, b, recv)?),
                args: self.arg_shapes(env, b, args)?,
            },
            TExpr::StaticCall { class, index, args } => SpecKey {
                class,
                method: index,
                recv: None,
                args: self.arg_shapes(env, b, args)?,
            },
            _ => return self.expr(env, b, e).map(Some),
        };
        self.method_return(&key)
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
        use PrimKind::*;
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
                .ok_or_else(|| TransError::new("`this` in a static translation context")),
            TExpr::GetField { obj, field } => match env.frame_slot(b, obj, field.slot) {
                Some(entry) => {
                    Ok(frame_field(self.table, entry, field)?.unwrap_or_else(Shape::Prim))
                }
                None => {
                    let os = self.expr(env, b, obj)?;
                    field_shape(self.table, &os, field.slot)
                }
            },
            TExpr::GetStatic { class, index } => {
                let f = &self.table.class(class).statics[index as usize];
                shape_from_decl(&f.ty).ok_or_else(|| {
                    TransError::new("static fields must be primitives under the coding rules")
                })
            }
            x @ (TExpr::Call { .. } | TExpr::DirectCall { .. } | TExpr::StaticCall { .. }) => {
                self.expr_maybe_void(env, b, e)?.ok_or_else(|| refused(x))
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
                check_cast(self.table, &s, b.type_at(to))?;
                Ok(s)
            }
            x @ (TExpr::RefEq { .. }
            | TExpr::InstanceOf { .. }
            | TExpr::Null
            | TExpr::Str(_)
            | TExpr::Ternary { .. }) => Err(refused(x)),
        }
    }

    /// The one rule the shaped modes hold a constructor chain to before
    /// it runs inline: semi-immutable precondition (d) as `jrules` finds
    /// and words it ([`BodyFacts::ctor_violation`]) in every constructor
    /// and field initializer of the chain, and what an inline run cannot
    /// hold, a `return` or a write to another object's field. Array
    /// element stores pass, as `jrules` lets them. A class whose chain
    /// passed is not walked again in the same translation.
    pub fn ctor_rule(&mut self, class: ClassId) -> TResult<()> {
        if self.ctor_ok.contains(&class) {
            return Ok(());
        }
        for (cid, _) in self.table.super_chain(class) {
            let info = self.table.class(cid);
            if let Some(ctor) = &info.ctor {
                let facts = ctor.body.as_deref().map(BodyFacts::of);
                let inline = ctor
                    .typed_body()
                    .and_then(|(b, _, body)| inline_blocker(b, body));
                if let Some(what) = facts.and_then(|f| f.ctor_violation()).or(inline) {
                    let msg = format!("constructor of `{}` {what}", info.name);
                    return Err(TransError::new(msg));
                }
            }
            for f in &info.fields {
                let facts = f.init.as_deref().map(BodyFacts::of);
                if let Some(what) = facts.and_then(|f| f.ctor_violation()) {
                    let msg = format!("initializer of `{}.{}` {what}", info.name, f.name);
                    return Err(TransError::new(msg));
                }
            }
        }
        self.ctor_ok.insert(class);
        Ok(())
    }

    /// Abstractly run the constructor chain of `new class(args)` and
    /// assemble the object's shape.
    pub fn ctor_shape(&mut self, class: ClassId, args: &[Shape]) -> TResult<Shape> {
        self.ctor_rule(class)?;
        let size = self.table.class(class).instance_size() as usize;
        let mut env = Env {
            locals: HashMap::new(),
            recv: None,
            fields: Some(vec![None; size]),
        };
        self.ctor_chain(&mut env, class, args.to_vec())?;
        let fields = (env.fields.into_iter().flatten().enumerate())
            .map(|(slot, s)| match s {
                Some(s) => Ok(s),
                None => unassigned_field(self.table, class, slot as u32).map(Shape::Prim),
            })
            .collect::<TResult<_>>()?;
        Ok(Shape::Obj { class, fields })
    }

    /// One level of a constructor chain, in [`walk::ctor`]'s order, with
    /// `args` as the locals: the `super(...)` arguments, the superclass's
    /// level, the field initializers, the body.
    fn ctor_chain(&mut self, env: &mut Env, class: ClassId, args: Vec<Shape>) -> TResult<()> {
        let info = self.table.class(class);
        let typed = walk::ctor_of(self.table, class)?.typed_body();
        env.locals = (0..).zip(args).collect();
        if let Some((sid, _)) = &info.superclass {
            if *sid != jlang::OBJECT {
                let sargs = match typed {
                    Some((b, sargs, _)) => self.arg_shapes(env, b, sargs)?,
                    None => Vec::new(),
                };
                let locals = std::mem::take(&mut env.locals);
                self.ctor_chain(env, *sid, sargs)?;
                env.locals = locals;
            }
        }
        for (i, f) in info.fields.iter().enumerate() {
            if let Some((init, value)) = f.typed_init() {
                let s = self.expr(env, init, value)?;
                if let Some(frame) = &mut env.fields {
                    frame[(info.field_base + i as u32) as usize] = Some(s);
                }
            }
        }
        match typed {
            Some((b, _, body)) => self.block(env, b, body, &mut None),
            None => Ok(()),
        }
    }
}

/// What a constructor body holds that its inline run cannot: a `return`,
/// or a write to a field of an object other than `this`. Precondition
/// (d) leaves the body no branch or loop to look into.
fn inline_blocker(b: &TBody, block: TBlock) -> Option<&'static str> {
    b.list(block).find_map(|s| match b.stmt(s) {
        TStmt::Return { .. } => Some("contains a `return`"),
        TStmt::AssignField { obj, .. } if b.expr(obj) != TExpr::This => {
            Some("writes a field of another object")
        }
        TStmt::Block(inner) => inline_blocker(b, inner),
        _ => None,
    })
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

/// What field `slot` of a `class` object holds when its constructor
/// chain never assigns it: a primitive reads zero, as in Java; any other
/// field is refused, since nothing pins its exact type.
pub(crate) fn unassigned_field(table: &ClassTable, class: ClassId, slot: u32) -> TResult<PrimKind> {
    let field = table
        .super_chain(class)
        .into_iter()
        .find_map(|(cid, args)| {
            let info = table.class(cid);
            let f = info
                .fields
                .get(slot.checked_sub(info.field_base)? as usize)?;
            Some((&info.name, &f.name, f.ty.subst(&args)))
        });
    let Some((owner, name, ty)) = field else {
        let class = table.name(class);
        return Err(TransError::new(format!(
            "`{class}` has no field slot {slot}"
        )));
    };
    ty.prim_kind().ok_or_else(|| {
        TransError::new(format!(
            "field `{owner}.{name}` ({}) is not assigned by the constructor chain of `{}`; \
             only a primitive field defaults",
            table.show_type(&ty),
            table.name(class)
        ))
    })
}

/// What a constructor chain reads from its field frame's `field`: the
/// value once assigned; before that, as in Java, a primitive field reads
/// zero (`Err` with its kind), and any other field is refused.
pub(crate) fn frame_field<T: Clone>(
    table: &ClassTable,
    entry: &Option<T>,
    field: FieldSel,
) -> TResult<Result<T, PrimKind>> {
    match entry {
        Some(v) => Ok(Ok(v.clone())),
        None => unassigned_field(table, field.owner, field.slot)
            .map(Err)
            .map_err(|_| {
                TransError::new(format!(
                    "constructor reads field slot {} before assigning it",
                    field.slot
                ))
            }),
    }
}

/// The implementation a virtual call of `method` on a `recv` runs.
pub(crate) fn call_target(
    table: &ClassTable,
    recv: &Shape,
    method: MethodSel,
) -> TResult<(ClassId, u32)> {
    let name = &table.method(method.decl_class, method.index).name;
    let target = recv.class().and_then(|c| table.resolve_impl(c, name));
    target.ok_or_else(|| {
        let on = recv
            .class()
            .map_or_else(|| recv.show(table), |c| table.name(c).into());
        TransError::new(format!("no implementation of `{name}` on `{on}`"))
    })
}

/// `(to) v` for a `v` of shape `s`: refused when it can never succeed.
pub(crate) fn check_cast(table: &ClassTable, s: &Shape, to: &Type) -> TResult<()> {
    if let (Some(c), Type::Object(want, _)) = (s.class(), to) {
        if !table.is_subclass_of(c, *want) {
            return Err(TransError::new(format!(
                "cast of `{}` to `{}` can never succeed",
                table.name(c),
                table.name(*want)
            )));
        }
    }
    Ok(())
}

/// The shape of a local declared as `ty` without an initializer: only a
/// primitive or array declaration pins it.
pub(crate) fn uninit_local(table: &ClassTable, ty: &Type) -> TResult<Shape> {
    shape_from_decl(ty).ok_or_else(|| {
        TransError::new(format!(
            "object-typed local of type {} needs an initializer",
            table.show_type(ty)
        ))
    })
}

/// A local keeps the shape of its first value: exact types are static.
pub(crate) fn same_shape(table: &ClassTable, old: &Shape, new: &Shape) -> TResult<()> {
    if old != new {
        return Err(TransError::new(format!(
            "local changes shape from {} to {}",
            old.show(table),
            new.show(table)
        )));
    }
    Ok(())
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

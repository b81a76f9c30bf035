//! What the shaped modes share about shapes: a specialization's identity
//! ([`SpecKey`]), the one constructor rule ([`ShapeEval::ctor_rule`]),
//! and the checks on shapes that the lowering makes as it goes (the free
//! functions below).
//!
//! The paper's §3.3 "simple program analysis" (given the exact shapes of
//! the receiver and arguments, the exact shape of every expression) is
//! the lowering's own walk: each operand carries its shape, and a
//! function learns its return shape from its body's `return`s. The coding
//! rules keep that sound: constructors are branch-free, a local keeps the
//! shape of its first value, and recursion is forbidden.

use std::collections::HashSet;

use jlang::table::ClassTable;
use jlang::tast::{FieldSel, MethodSel, TBlock, TBody, TExpr, TStmt};
use jlang::types::{ClassId, PrimKind, Type};
use jrules::BodyFacts;

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
    /// Classes whose constructor chain passed [`ShapeEval::ctor_rule`].
    ctor_ok: HashSet<ClassId>,
}

impl<'t> ShapeEval<'t> {
    pub fn new(table: &'t ClassTable) -> Self {
        ShapeEval {
            table,
            ctor_ok: HashSet::new(),
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

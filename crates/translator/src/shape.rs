//! The shape domain: exact runtime types of whole object graphs.
//!
//! WootinJ's key move is translating with *runtime type information*: the
//! entry method's actual arguments (and the composed application object)
//! are inspected, and because the coding rules make every reachable object
//! semi-immutable with statically determinable exact types, one [`Shape`]
//! describes each value completely. Specialization keys, devirtualization,
//! and object inlining all operate on shapes.

use jlang::table::ClassTable;
use jlang::tast::{TBody, TExprId};
use jlang::types::{ClassId, PrimKind, Type};
use jvm::{ArrayData, Jvm, Value};
use nir::{ElemTy, Ty};

/// The exact type of a value, including the exact types of everything
/// reachable from it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Shape {
    Prim(PrimKind),
    /// Primitive array (bulk HPC data).
    Arr(ElemTy),
    /// Exact class plus the shapes of all instance fields, in absolute
    /// slot order (inherited fields first).
    Obj {
        class: ClassId,
        fields: Vec<Shape>,
    },
}

/// A translation error.
#[derive(Debug, Clone)]
pub struct TransError {
    pub message: String,
}

impl TransError {
    pub fn new(message: impl Into<String>) -> Self {
        TransError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TransError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "translation error: {}", self.message)
    }
}

impl std::error::Error for TransError {}

pub type TResult<T> = Result<T, TransError>;

impl Shape {
    /// Number of scalar/array leaves in the flattened representation.
    pub fn leaf_count(&self) -> usize {
        match self {
            Shape::Prim(_) | Shape::Arr(_) => 1,
            Shape::Obj { fields, .. } => fields.iter().map(Shape::leaf_count).sum(),
        }
    }

    /// The NIR register types of the flattened leaves, in order.
    pub fn leaf_tys(&self) -> Vec<nir::Ty> {
        let mut out = Vec::with_capacity(self.leaf_count());
        self.collect_leaf_tys(&mut out);
        out
    }

    fn collect_leaf_tys(&self, out: &mut Vec<nir::Ty>) {
        match self {
            Shape::Prim(k) => out.push(nir::Ty::of_prim(*k)),
            Shape::Arr(e) => out.push(nir::Ty::Arr(*e)),
            Shape::Obj { fields, .. } => {
                for f in fields {
                    f.collect_leaf_tys(out);
                }
            }
        }
    }

    /// For an object shape: `(leaf offset, field shape)` of field `slot`.
    pub fn field_leaf_range(&self, slot: u32) -> Option<(usize, &Shape)> {
        let Shape::Obj { fields, .. } = self else {
            return None;
        };
        let mut off = 0;
        for (i, f) in fields.iter().enumerate() {
            if i as u32 == slot {
                return Some((off, f));
            }
            off += f.leaf_count();
        }
        None
    }

    /// Exact class of an object shape.
    pub fn class(&self) -> Option<ClassId> {
        match self {
            Shape::Obj { class, .. } => Some(*class),
            _ => None,
        }
    }

    /// A short stable string used in specialized function names.
    pub fn mangle(&self, table: &ClassTable) -> String {
        match self {
            Shape::Prim(PrimKind::Int) => "i".into(),
            Shape::Prim(PrimKind::Long) => "l".into(),
            Shape::Prim(PrimKind::Float) => "f".into(),
            Shape::Prim(PrimKind::Double) => "d".into(),
            Shape::Prim(PrimKind::Boolean) => "z".into(),
            Shape::Arr(e) => format!("A{}", ElemShape(*e).mangle()),
            Shape::Obj { class, fields } => {
                let mut s = table.name(*class).to_string();
                if !fields.is_empty() {
                    s.push('_');
                    for f in fields {
                        s.push_str(&f.mangle(table));
                    }
                }
                s
            }
        }
    }

    /// Render human-readably for error messages.
    pub fn show(&self, table: &ClassTable) -> String {
        match self {
            Shape::Prim(k) => format!("{k:?}").to_lowercase(),
            Shape::Arr(e) => format!("{}[]", e.c_name()),
            Shape::Obj { class, fields } => {
                let mut s = table.name(*class).to_string();
                if !fields.is_empty() {
                    s.push('{');
                    for (i, f) in fields.iter().enumerate() {
                        if i > 0 {
                            s.push(',');
                        }
                        s.push_str(&f.show(table));
                    }
                    s.push('}');
                }
                s
            }
        }
    }
}

struct ElemShape(ElemTy);

impl ElemShape {
    fn mangle(&self) -> &'static str {
        match self.0 {
            ElemTy::I32 => "i",
            ElemTy::I64 => "l",
            ElemTy::F32 => "f",
            ElemTy::F64 => "d",
            ElemTy::Bool => "z",
        }
    }
}

/// NIR element type for a jlang array element type (primitive only).
pub fn elem_ty_of(t: &Type) -> Option<ElemTy> {
    Some(match t {
        Type::Int => ElemTy::I32,
        Type::Long => ElemTy::I64,
        Type::Float => ElemTy::F32,
        Type::Double => ElemTy::F64,
        Type::Boolean => ElemTy::Bool,
        _ => return None,
    })
}

/// NIR register type for a declared jlang type.
pub(crate) fn decl_ty(t: &Type) -> TResult<Ty> {
    Ok(match t {
        Type::Int => Ty::I32,
        Type::Long => Ty::I64,
        Type::Float => Ty::F32,
        Type::Double => Ty::F64,
        Type::Boolean => Ty::Bool,
        Type::Array(e) => Ty::Arr(
            elem_ty_of(e)
                .ok_or_else(|| TransError::new("only primitive arrays can be translated"))?,
        ),
        Type::Object(..) | Type::Var(_) => Ty::Obj,
        other => return Err(TransError::new(format!("untranslatable type {other}"))),
    })
}

/// The primitive kind of a typed expression.
pub(crate) fn expr_kind(b: &TBody, e: TExprId) -> TResult<PrimKind> {
    b.ty(e)
        .prim_kind()
        .ok_or_else(|| TransError::new("expected a primitive expression"))
}

/// Derive the shape of a live jvm value (the runtime type information that
/// drives translation).
pub fn shape_of_value(jvm: &Jvm<'_>, v: &Value) -> TResult<Shape> {
    match v {
        Value::Int(_) => Ok(Shape::Prim(PrimKind::Int)),
        Value::Long(_) => Ok(Shape::Prim(PrimKind::Long)),
        Value::Float(_) => Ok(Shape::Prim(PrimKind::Float)),
        Value::Double(_) => Ok(Shape::Prim(PrimKind::Double)),
        Value::Bool(_) => Ok(Shape::Prim(PrimKind::Boolean)),
        Value::Arr(r) => match jvm.heap.arr(*r) {
            ArrayData::I32(_) => Ok(Shape::Arr(ElemTy::I32)),
            ArrayData::I64(_) => Ok(Shape::Arr(ElemTy::I64)),
            ArrayData::F32(_) => Ok(Shape::Arr(ElemTy::F32)),
            ArrayData::F64(_) => Ok(Shape::Arr(ElemTy::F64)),
            ArrayData::Bool(_) => Ok(Shape::Arr(ElemTy::Bool)),
            ArrayData::Ref(_) => Err(TransError::new(
                "object arrays cannot be translated (the coding rules confine bulk data to primitive arrays)",
            )),
        },
        Value::Obj(r) => {
            let obj = jvm.heap.obj(*r);
            let mut fields = Vec::with_capacity(obj.fields.len());
            for (slot, fv) in obj.fields.iter().enumerate() {
                if matches!(fv, Value::Null) {
                    return Err(TransError::new(format!(
                        "object graph is incomplete: field slot {slot} of `{}` is null",
                        jvm.table.name(obj.class)
                    )));
                }
                fields.push(shape_of_value(jvm, fv)?);
            }
            Ok(Shape::Obj { class: obj.class, fields })
        }
        Value::Null => Err(TransError::new("cannot derive a shape from null")),
        Value::Str(_) => Err(TransError::new("string values cannot be translated")),
        Value::Void => Err(TransError::new("cannot derive a shape from void")),
    }
}

/// A leaf of a flattened value: the path of absolute field slots from the
/// root, ending at a primitive or array.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafPath {
    pub path: Vec<u32>,
    pub ty: nir::Ty,
}

/// Enumerate the leaf paths of a shape, in flattening order.
pub fn leaf_paths(shape: &Shape) -> Vec<LeafPath> {
    let mut out = Vec::new();
    let mut path = Vec::new();
    collect_paths(shape, &mut path, &mut out);
    out
}

fn collect_paths(shape: &Shape, path: &mut Vec<u32>, out: &mut Vec<LeafPath>) {
    match shape {
        Shape::Prim(k) => out.push(LeafPath {
            path: path.clone(),
            ty: nir::Ty::of_prim(*k),
        }),
        Shape::Arr(e) => out.push(LeafPath {
            path: path.clone(),
            ty: nir::Ty::Arr(*e),
        }),
        Shape::Obj { fields, .. } => {
            for (i, f) in fields.iter().enumerate() {
                path.push(i as u32);
                collect_paths(f, path, out);
                path.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jlang::compile_str;

    #[test]
    fn shapes_from_live_objects() {
        let table = compile_str(
            "interface Solver { float solve(float x); } \
             class FastSolver implements Solver { float a; FastSolver(float a0) { a = a0; } \
               float solve(float x) { return a * x; } } \
             class App { Solver s; float[] data; App(Solver s0, float[] d) { s = s0; data = d; } }",
        )
        .unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let solver = jvm
            .new_instance("FastSolver", &[Value::Float(2.0)])
            .unwrap();
        let data = jvm.new_f32_array(&[1.0, 2.0]);
        let app = jvm.new_instance("App", &[solver, data]).unwrap();
        let shape = shape_of_value(&jvm, &app).unwrap();
        let app_id = table.by_name("App").unwrap();
        let fs_id = table.by_name("FastSolver").unwrap();
        assert_eq!(
            shape,
            Shape::Obj {
                class: app_id,
                fields: vec![
                    Shape::Obj {
                        class: fs_id,
                        fields: vec![Shape::Prim(PrimKind::Float)]
                    },
                    Shape::Arr(ElemTy::F32),
                ],
            }
        );
        assert_eq!(shape.leaf_count(), 2);
        assert_eq!(
            shape.leaf_tys(),
            vec![nir::Ty::F32, nir::Ty::Arr(ElemTy::F32)]
        );
        let paths = leaf_paths(&shape);
        assert_eq!(paths[0].path, vec![0, 0]);
        assert_eq!(paths[1].path, vec![1]);
    }

    #[test]
    fn null_field_rejected() {
        let table = compile_str("class B { } class A { B b; A() { } }").unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let a = jvm.new_instance("A", &[]).unwrap();
        let err = shape_of_value(&jvm, &a).unwrap_err();
        assert!(err.message.contains("null"), "{err}");
    }

    #[test]
    fn field_leaf_ranges() {
        let table = compile_str(
            "class P { int x; int y; P(int a, int b) { x = a; y = b; } } \
             class Q { P p; float f; Q(P p0, float f0) { p = p0; f = f0; } }",
        )
        .unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let p = jvm
            .new_instance("P", &[Value::Int(1), Value::Int(2)])
            .unwrap();
        let q = jvm.new_instance("Q", &[p, Value::Float(3.0)]).unwrap();
        let shape = shape_of_value(&jvm, &q).unwrap();
        let (off0, f0) = shape.field_leaf_range(0).unwrap();
        assert_eq!(off0, 0);
        assert_eq!(f0.leaf_count(), 2);
        let (off1, f1) = shape.field_leaf_range(1).unwrap();
        assert_eq!(off1, 2);
        assert_eq!(f1, &Shape::Prim(PrimKind::Float));
    }

    #[test]
    fn mangle_is_deterministic_and_distinct() {
        let table = compile_str(
            "class A { int x; A(int v) { x = v; } } class B { float y; B(float v) { y = v; } }",
        )
        .unwrap();
        let mut jvm = Jvm::new(&table).unwrap();
        let a = jvm.new_instance("A", &[Value::Int(1)]).unwrap();
        let b = jvm.new_instance("B", &[Value::Float(1.0)]).unwrap();
        let sa = shape_of_value(&jvm, &a).unwrap();
        let sb = shape_of_value(&jvm, &b).unwrap();
        assert_ne!(sa.mangle(&table), sb.mangle(&table));
        assert_eq!(sa.mangle(&table), sa.mangle(&table));
    }
}

//! Runtime values and the object/array heap of the interpreter.

use jlang::types::{ClassId, PrimKind, Type};
use std::fmt;
use std::rc::Rc;

/// Reference to a heap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjRef(pub u32);

/// Reference to a heap array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrRef(pub u32);

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i32),
    Long(i64),
    Float(f32),
    Double(f64),
    Bool(bool),
    Obj(ObjRef),
    Arr(ArrRef),
    Str(Rc<str>),
    Null,
    /// Result of a `void` call.
    Void,
}

impl Value {
    pub fn str(s: &str) -> Value {
        Value::Str(Rc::from(s))
    }

    pub fn as_i32(&self) -> Result<i32, String> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(format!("expected int, found {other:?}")),
        }
    }

    pub fn as_i64(&self) -> Result<i64, String> {
        match self {
            Value::Long(v) => Ok(*v),
            other => Err(format!("expected long, found {other:?}")),
        }
    }

    pub fn as_f32(&self) -> Result<f32, String> {
        match self {
            Value::Float(v) => Ok(*v),
            other => Err(format!("expected float, found {other:?}")),
        }
    }

    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Value::Double(v) => Ok(*v),
            other => Err(format!("expected double, found {other:?}")),
        }
    }

    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(format!("expected boolean, found {other:?}")),
        }
    }

    pub fn as_obj(&self) -> Result<ObjRef, String> {
        match self {
            Value::Obj(r) => Ok(*r),
            other => Err(format!("expected object, found {other:?}")),
        }
    }

    pub fn as_arr(&self) -> Result<ArrRef, String> {
        match self {
            Value::Arr(r) => Ok(*r),
            other => Err(format!("expected array, found {other:?}")),
        }
    }

    /// Numeric value widened to f64 (for generic numeric natives).
    pub fn to_f64_lossy(&self) -> Result<f64, String> {
        Ok(match self {
            Value::Int(v) => *v as f64,
            Value::Long(v) => *v as f64,
            Value::Float(v) => *v as f64,
            Value::Double(v) => *v,
            other => return Err(format!("expected numeric, found {other:?}")),
        })
    }

    /// The zero/default value for a declared type.
    pub fn default_for(ty: &Type) -> Value {
        match ty {
            Type::Int => Value::Int(0),
            Type::Long => Value::Long(0),
            Type::Float => Value::Float(0.0),
            Type::Double => Value::Double(0.0),
            Type::Boolean => Value::Bool(false),
            _ => Value::Null,
        }
    }

    /// The zero value for a primitive kind.
    pub fn zero(kind: PrimKind) -> Value {
        match kind {
            PrimKind::Int => Value::Int(0),
            PrimKind::Long => Value::Long(0),
            PrimKind::Float => Value::Float(0.0),
            PrimKind::Double => Value::Double(0.0),
            PrimKind::Boolean => Value::Bool(false),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}L"),
            Value::Float(v) => write!(f, "{v}f"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Obj(r) => write!(f, "obj@{}", r.0),
            Value::Arr(r) => write!(f, "arr@{}", r.0),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Null => write!(f, "null"),
            Value::Void => write!(f, "void"),
        }
    }
}

/// Typed array storage: HPC data lives in flat primitive vectors.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayData {
    I32(Vec<i32>),
    I64(Vec<i64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
    /// Arrays of objects (or nested arrays).
    Ref(Vec<Value>),
}

/// What an array is, without its elements: `float array of length 4`.
/// Error messages name arrays this way: the `Debug` form of a
/// million-element array is megabytes.
impl fmt::Display for ArrayData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let elem = match self {
            ArrayData::I32(_) => "int",
            ArrayData::I64(_) => "long",
            ArrayData::F32(_) => "float",
            ArrayData::F64(_) => "double",
            ArrayData::Bool(_) => "boolean",
            ArrayData::Ref(_) => "reference",
        };
        write!(f, "{elem} array of length {}", self.len())
    }
}

impl ArrayData {
    pub fn new(elem: &Type, len: usize) -> ArrayData {
        match elem {
            Type::Int => ArrayData::I32(vec![0; len]),
            Type::Long => ArrayData::I64(vec![0; len]),
            Type::Float => ArrayData::F32(vec![0.0; len]),
            Type::Double => ArrayData::F64(vec![0.0; len]),
            Type::Boolean => ArrayData::Bool(vec![false; len]),
            _ => ArrayData::Ref(vec![Value::Null; len]),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ArrayData::I32(v) => v.len(),
            ArrayData::I64(v) => v.len(),
            ArrayData::F32(v) => v.len(),
            ArrayData::F64(v) => v.len(),
            ArrayData::Bool(v) => v.len(),
            ArrayData::Ref(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn get(&self, i: usize) -> Option<Value> {
        if i >= self.len() {
            return None;
        }
        Some(match self {
            ArrayData::I32(v) => Value::Int(v[i]),
            ArrayData::I64(v) => Value::Long(v[i]),
            ArrayData::F32(v) => Value::Float(v[i]),
            ArrayData::F64(v) => Value::Double(v[i]),
            ArrayData::Bool(v) => Value::Bool(v[i]),
            ArrayData::Ref(v) => v[i].clone(),
        })
    }

    pub fn set(&mut self, i: usize, val: Value) -> Result<(), String> {
        if i >= self.len() {
            return Err(format!(
                "array index {i} out of bounds (len {})",
                self.len()
            ));
        }
        match (self, val) {
            (ArrayData::I32(v), Value::Int(x)) => v[i] = x,
            (ArrayData::I64(v), Value::Long(x)) => v[i] = x,
            (ArrayData::F32(v), Value::Float(x)) => v[i] = x,
            (ArrayData::F64(v), Value::Double(x)) => v[i] = x,
            (ArrayData::Bool(v), Value::Bool(x)) => v[i] = x,
            (ArrayData::Ref(v), x) => v[i] = x,
            (arr, x) => return Err(format!("type mismatch storing {x:?} into {arr}")),
        }
        Ok(())
    }
}

/// A heap object: its runtime class plus one value slot per instance field
/// (absolute layout, inherited fields first).
#[derive(Debug, Clone)]
pub struct ObjData {
    pub class: ClassId,
    pub fields: Vec<Value>,
}

/// The interpreter heap. There is no garbage collector — HPC runs are
/// short-lived and the paper's framework leaves memory to the developer.
#[derive(Debug, Default)]
pub struct Heap {
    pub objects: Vec<ObjData>,
    pub arrays: Vec<ArrayData>,
}

impl Heap {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn alloc_obj(&mut self, class: ClassId, field_count: usize) -> ObjRef {
        let r = ObjRef(self.objects.len() as u32);
        self.objects.push(ObjData {
            class,
            fields: vec![Value::Null; field_count],
        });
        r
    }

    pub fn alloc_arr(&mut self, data: ArrayData) -> ArrRef {
        let r = ArrRef(self.arrays.len() as u32);
        self.arrays.push(data);
        r
    }

    pub fn obj(&self, r: ObjRef) -> &ObjData {
        &self.objects[r.0 as usize]
    }

    pub fn obj_mut(&mut self, r: ObjRef) -> &mut ObjData {
        &mut self.objects[r.0 as usize]
    }

    pub fn arr(&self, r: ArrRef) -> &ArrayData {
        &self.arrays[r.0 as usize]
    }

    pub fn arr_mut(&mut self, r: ArrRef) -> &mut ArrayData {
        &mut self.arrays[r.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_data_roundtrip() {
        let mut a = ArrayData::new(&Type::Float, 4);
        assert_eq!(a.len(), 4);
        a.set(2, Value::Float(1.5)).unwrap();
        assert_eq!(a.get(2), Some(Value::Float(1.5)));
        assert_eq!(a.get(0), Some(Value::Float(0.0)));
        assert_eq!(a.get(4), None);
    }

    #[test]
    fn array_type_mismatch_rejected() {
        let mut a = ArrayData::new(&Type::Int, 2);
        assert!(a.set(0, Value::Float(1.0)).is_err());
        assert!(a.set(5, Value::Int(1)).is_err());
    }

    #[test]
    fn a_type_mismatch_names_the_array_without_its_elements() {
        let mut a = ArrayData::new(&Type::Float, 1_000_000);
        let e = a.set(7, Value::Int(3)).unwrap_err();
        assert!(e.len() < 200, "{} bytes", e.len());
        assert_eq!(
            e,
            "type mismatch storing Int(3) into float array of length 1000000"
        );
    }

    #[test]
    fn defaults_match_java() {
        assert_eq!(Value::default_for(&Type::Int), Value::Int(0));
        assert_eq!(Value::default_for(&Type::Boolean), Value::Bool(false));
        assert_eq!(Value::default_for(&Type::array(Type::Float)), Value::Null);
    }

    #[test]
    fn heap_allocation() {
        let mut h = Heap::new();
        let o = h.alloc_obj(ClassId(1), 3);
        assert_eq!(h.obj(o).fields.len(), 3);
        let a = h.alloc_arr(ArrayData::new(&Type::Double, 8));
        assert_eq!(h.arr(a).len(), 8);
    }
}

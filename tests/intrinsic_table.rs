//! The intrinsic table (`nir::INTRINSICS`) agrees with the Java side of
//! the framework: every `@Native` key the prelude declares is a row whose
//! operand and result types are the Java method's, every row is declared
//! there, and the `jvm` (the oracle the translation is checked against)
//! has a native for every row.

use jlang::types::Type;
use jvm::Jvm;
use nir::{ElemTy, IntrinTy, Intrinsic, Ty, INTRINSICS};
use wootinj::build_table;

/// The keys both lowerers turn into instructions of their own (`Sync`,
/// `SharedAlloc`), not into intrinsics.
const SPECIAL_FORMS: [&str; 2] = ["cuda.sync", "cuda.sharedF32"];

/// The NIR type of a Java type, if it has one.
fn nir_ty(t: &Type) -> Option<Ty> {
    Some(match t {
        Type::Int => Ty::I32,
        Type::Long => Ty::I64,
        Type::Float => Ty::F32,
        Type::Double => Ty::F64,
        Type::Boolean => Ty::Bool,
        Type::Array(e) => Ty::Arr(match nir_ty(e)? {
            Ty::I32 => ElemTy::I32,
            Ty::I64 => ElemTy::I64,
            Ty::F32 => ElemTy::F32,
            Ty::F64 => ElemTy::F64,
            Ty::Bool => ElemTy::Bool,
            _ => return None,
        }),
        _ => return None,
    })
}

fn fits(want: IntrinTy, java: &Type) -> bool {
    match want {
        IntrinTy::Is(t) => nir_ty(java) == Some(t),
        IntrinTy::AnyArr => matches!(java, Type::Array(_)),
    }
}

#[test]
fn every_prelude_native_is_a_row_of_its_java_signature() {
    let table = build_table(&[]).unwrap();
    let mut declared = vec![];
    for m in table.iter().flat_map(|c| &c.methods) {
        let Some(key) = m.native.as_deref() else {
            continue;
        };
        declared.push(key);
        if SPECIAL_FORMS.contains(&key) {
            assert!(Intrinsic::by_key(key).is_none(), "{key}");
            continue;
        }
        let row = Intrinsic::by_key(key).unwrap_or_else(|| panic!("`{key}` has no row"));
        let params: Vec<&Type> = m.params.iter().map(|p| &p.ty).collect();
        assert_eq!(row.params.len(), params.len(), "{key}: arity");
        for (i, (want, java)) in row.params.iter().zip(&params).enumerate() {
            assert!(
                fits(*want, java),
                "{key}: operand {i} is {java:?}, row {want:?}"
            );
        }
        match (row.ret, &m.ret) {
            (None, Type::Void) => {}
            (Some(want), java) => {
                assert!(fits(want, java), "{key}: returns {java:?}, row {want:?}")
            }
            (None, java) => panic!("{key}: returns {java:?}, row returns nothing"),
        }
    }
    for row in &INTRINSICS {
        assert!(
            declared.contains(&row.key),
            "{} is not in the prelude",
            row.key
        );
    }
}

#[test]
fn the_jvm_has_a_native_for_every_row() {
    let table = build_table(&[]).unwrap();
    let jvm = Jvm::new(&table).unwrap();
    for row in &INTRINSICS {
        assert!(jvm.has_native(row.key), "the jvm has no `{}`", row.key);
    }
}

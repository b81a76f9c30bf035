//! Compile-time constants: every `static final` initializer the `jvm`
//! evaluates translates, and the translated program returns the same
//! value, bit for bit. The translator folds a constant initializer when it
//! lowers a read of it, so each operator of each kind is one more way for
//! the two to disagree (Java's shift masks and its `%` on floats among
//! them).

use jvm::Value;
use wootinj::{build_table, JitOptions, Val, WootinJ};

/// `(result type, initializer)`: every operator each kind has.
const CASES: &[(&str, &str)] = &[
    ("int", "1 << 33"),
    ("int", "-17 >> 2"),
    ("int", "-7 / 2"),
    ("int", "7 % -3"),
    ("int", "12 & 10 | 1 ^ 7"),
    (
        "boolean",
        "3 < 4 && 4 <= 4 && 5 > 4 && 5 >= 6 == false && 1 != 2",
    ),
    ("long", "1L << 40"),
    ("long", "1L << 65"),
    ("long", "-1024L >> 3"),
    ("long", "-7L / 2L"),
    ("long", "-7L % 3L"),
    ("long", "12L & 10L"),
    ("long", "12L | 3L"),
    ("long", "12L ^ 10L"),
    ("long", "3000000000L * 5L - 1L + 2L"),
    ("boolean", "3L < 4L"),
    (
        "boolean",
        "4L <= 3L || 5L > 4L && 5L >= 5L && 1L == 1L && 1L != 2L",
    ),
    ("float", "1.5f + 2.25f - 0.5f * 3f / 7f"),
    ("float", "5.5f % 2f"),
    ("float", "-7.25f % 2f"),
    ("float", "1f / 0f"),
    ("boolean", "1.5f < 2.5f"),
    (
        "boolean",
        "1.5f <= 1.5f && 2f > 1f && 2f >= 3f == false && 1f == 1f && 1f != 2f",
    ),
    ("double", "1.0 / 3.0 + 0.1 - 0.2 * 3.0"),
    ("double", "5.5 % 2.0"),
    ("double", "-5.5 % -2.0"),
    ("boolean", "2.0 >= 1.0"),
    (
        "boolean",
        "1.0 < 2.0 && 1.0 <= 0.5 == false && 2.0 > 1.0 && 1.0 == 1.0 && 1.0 != 2.0",
    ),
    ("boolean", "true != false && (false || true) == true"),
    // 2^60 + 2^36 + 1 rounds once, up to 2^60 + 2^37: through `double`
    // first it would round down to 2^60.
    ("float", "(float) 1152921573326323713L"),
];

/// The bits of an interpreted result, by kind.
fn java_bits(v: &Value) -> u64 {
    match v {
        Value::Int(x) => *x as u32 as u64,
        Value::Long(x) => *x as u64,
        Value::Float(x) => x.to_bits() as u64,
        Value::Double(x) => x.to_bits(),
        Value::Bool(x) => *x as u64,
        other => panic!("not a primitive: {other:?}"),
    }
}

/// The bits of a translated result, by kind.
fn native_bits(v: &Val) -> u64 {
    match v {
        Val::I32(x) => *x as u32 as u64,
        Val::I64(x) => *x as u64,
        Val::F32(x) => x.to_bits() as u64,
        Val::F64(x) => x.to_bits(),
        Val::Bool(x) => *x as u64,
        other => panic!("not a primitive: {other:?}"),
    }
}

#[test]
fn every_constant_initializer_translates_to_the_value_the_jvm_computes() {
    for (ty, init) in CASES {
        let src = format!(
            "@WootinJ final class K {{
               static final {ty} C = {init};
               K() {{ }}
               {ty} run() {{ return C; }}
             }}"
        );
        let table = build_table(&[("k.jl", &src)]).unwrap_or_else(|e| panic!("{init}: {e:?}"));
        let mut env = WootinJ::new(&table).unwrap();
        let k = env.new_instance("K", &[]).unwrap();
        let java = env.run_interpreted(&k, "run", &[]).unwrap().result;
        let code = env
            .jit(&k, "run", &[], JitOptions::wootinj())
            .unwrap_or_else(|e| panic!("{ty} {init}: {e}"));
        let native = code.invoke(&env).unwrap().result.expect("a value");
        assert_eq!(
            native_bits(&native),
            java_bits(&java),
            "{ty} {init}: translated {native:?}, interpreted {java:?}"
        );
    }
}

//! Translator edge cases: zero-leaf objects, static-final constant
//! folding, reference casts, device-context specialization, and the
//! documented unsupported-construct errors.

use exec::{run_to_completion, Machine, Val};
use jlang::compile_str;
use jvm::{Jvm, Value};
use translator::{bind_entry_args, translate, Mode, TransConfig};

fn run_full(src: &str, class: &str, ctor: &[Value], method: &str, args: &[Value]) -> Val {
    let table = compile_str(src).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let recv = jvm.new_instance(class, ctor).unwrap();
    let t = translate(&table, &jvm, &recv, method, args, TransConfig::full()).unwrap();
    let mut m = Machine::with_globals(&t.program);
    let vals = bind_entry_args(&jvm, &recv, args, &t.bindings, &mut m).unwrap();
    run_to_completion(&t.program, t.entry, vals, &mut m)
        .unwrap()
        .unwrap()
}

#[test]
fn zero_leaf_end_to_end() {
    let src = "
        @WootinJ final class Marker { Marker() { } }
        @WootinJ final class Wrap {
          Marker m;
          Wrap(Marker m0) { m = m0; }
          Marker get() { return m; }
          int use(Marker x, int v) { return v + 1; }
          int run(int v) {
            Marker local = get();
            return use(local, v);
          }
        }";
    let table = compile_str(src).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let marker = jvm.new_instance("Marker", &[]).unwrap();
    let wrap = jvm.new_instance("Wrap", &[marker]).unwrap();
    for config in [
        TransConfig::full(),
        TransConfig::devirt(),
        TransConfig::virtual_dispatch(),
    ] {
        let t = translate(&table, &jvm, &wrap, "run", &[Value::Int(41)], config).unwrap();
        let mut m = Machine::with_globals(&t.program);
        let vals = bind_entry_args(&jvm, &wrap, &[Value::Int(41)], &t.bindings, &mut m).unwrap();
        let out = run_to_completion(&t.program, t.entry, vals, &mut m).unwrap();
        assert_eq!(out, Some(Val::I32(42)), "mode {:?}", config.mode);
    }
}

#[test]
fn static_finals_fold_to_constants() {
    let src = "
        @WootinJ final class K {
          static final int N = 6 * 7;
          static final float SCALE = 2.5f * 2f;
          K() { }
          float run() { return N * SCALE; }
        }";
    let table = compile_str(src).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let k = jvm.new_instance("K", &[]).unwrap();
    let t = translate(&table, &jvm, &k, "run", &[], TransConfig::full()).unwrap();
    // The generated code carries no static-field reads — only constants.
    let src_c = t.c_source();
    assert!(src_c.contains("static const"), "{src_c}");
    let mut m = Machine::with_globals(&t.program);
    let vals = bind_entry_args(&jvm, &k, &[], &t.bindings, &mut m).unwrap();
    let out = run_to_completion(&t.program, t.entry, vals, &mut m).unwrap();
    assert_eq!(out, Some(Val::F32(42.0 * 5.0)));
}

#[test]
fn upcast_is_a_noop_and_impossible_downcast_is_rejected() {
    let ok = "
        @WootinJ interface Animal { int legs(); }
        @WootinJ final class Dog implements Animal { Dog() { } int legs() { return 4; } }
        @WootinJ final class Zoo {
          Dog d;
          Zoo(Dog d0) { d = d0; }
          int run() {
            Animal a = (Animal) d;
            return a.legs();
          }
        }";
    // `Animal a = ...` has a non-strict-final local type; rules reject it,
    // so translate unchecked to exercise the cast path itself.
    let table = compile_str(ok).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let dog = jvm.new_instance("Dog", &[]).unwrap();
    let zoo = jvm.new_instance("Zoo", &[dog]).unwrap();
    let mut config = TransConfig::full();
    config.check_rules = false;
    let t = translate(&table, &jvm, &zoo, "run", &[], config).unwrap();
    let mut m = Machine::with_globals(&t.program);
    let vals = bind_entry_args(&jvm, &zoo, &[], &t.bindings, &mut m).unwrap();
    assert_eq!(
        run_to_completion(&t.program, t.entry, vals, &mut m).unwrap(),
        Some(Val::I32(4))
    );
}

#[test]
fn impossible_cast_reported_at_translation_time() {
    let src = "
        @WootinJ interface Animal { int legs(); }
        @WootinJ final class Dog implements Animal { Dog() { } int legs() { return 4; } }
        @WootinJ final class Cat implements Animal { Cat() { } int legs() { return 4; } }
        @WootinJ final class Zoo {
          Animal a;
          Zoo(Animal a0) { a = a0; }
          int run() {
            Cat c = (Cat) a;
            return c.legs();
          }
        }";
    let table = compile_str(src).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let dog = jvm.new_instance("Dog", &[]).unwrap();
    let zoo = jvm.new_instance("Zoo", &[dog]).unwrap();
    // The shape analysis knows `a` is a Dog, so `(Cat) a` can never
    // succeed — a translation-time error, unlike Java's runtime exception.
    let err = translate(&table, &jvm, &zoo, "run", &[], TransConfig::full()).unwrap_err();
    assert!(err.message.contains("never succeed"), "{err}");
}

#[test]
fn object_arrays_rejected_with_clear_message() {
    let src = "
        @WootinJ final class Cell { float v; Cell(float v0) { v = v0; } }
        @WootinJ final class Holder {
          Holder() { }
          int run(Cell[] cells) { return cells.length; }
        }";
    let table = compile_str(src).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let holder = jvm.new_instance("Holder", &[]).unwrap();
    // Build an object array on the jvm side.
    let cell = jvm.new_instance("Cell", &[Value::Float(1.0)]).unwrap();
    let arr = {
        let h = jvm.heap.alloc_arr(jvm::ArrayData::Ref(vec![cell]));
        Value::Arr(h)
    };
    let err = translate(&table, &jvm, &holder, "run", &[arr], TransConfig::full()).unwrap_err();
    assert!(err.message.contains("object arrays"), "{err}");
}

#[test]
fn kernels_in_devirt_mode_are_flattened() {
    let src = "
        @WootinJ interface Op { float f(float x); }
        @WootinJ final class Triple implements Op { Triple() { } float f(float x) { return x * 3f; } }
        @WootinJ final class K {
          Op op;
          K(Op o) { op = o; }
          float run(float[] data) {
            float[] dev = CUDA.copyToGPU(data);
            CudaConfig conf = new CudaConfig(new dim3(1, 1, 1), new dim3(8, 1, 1));
            go(conf, dev);
            CUDA.copyFromGPU(data, dev);
            float s = 0f;
            for (int i = 0; i < data.length; i++) { s += data[i]; }
            return s;
          }
          @Global void go(CudaConfig conf, float[] a) {
            int x = CUDA.threadIdxX();
            if (x < a.length) { a[x] = op.f(a[x]); }
          }
        }";
    // Needs the prelude for CUDA/dim3; compile via wootinj's table builder.
    let table = wootinj::build_table(&[("k.jl", src)]).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let op = jvm.new_instance("Triple", &[]).unwrap();
    let k = jvm.new_instance("K", &[op]).unwrap();
    let data = jvm.new_f32_array(&[1.0; 8]);
    // Devirt (Template) mode still produces flattened kernels: no object
    // instructions inside FuncKind::Kernel functions.
    let t = translate(&table, &jvm, &k, "run", &[data], TransConfig::devirt()).unwrap();
    for f in &t.program.funcs {
        if f.kind == nir::FuncKind::Kernel {
            for ins in &f.code {
                assert!(
                    !matches!(
                        ins,
                        nir::Instr::GetField { .. }
                            | nir::Instr::NewObj { .. }
                            | nir::Instr::CallVirt { .. }
                    ),
                    "kernel must be object-free in Devirt mode: {ins:?}"
                );
            }
        }
    }
    assert!(t.uses_gpu);
}

#[test]
fn virtual_mode_reports_kernels_as_unsupported() {
    let src = "
        @WootinJ final class K {
          K() { }
          void run(float[] data) {
            float[] dev = CUDA.copyToGPU(data);
            CudaConfig conf = new CudaConfig(new dim3(1, 1, 1), new dim3(4, 1, 1));
            go(conf, dev);
          }
          @Global void go(CudaConfig conf, float[] a) {
            int x = CUDA.threadIdxX();
            a[x] = 1f;
          }
        }";
    let table = wootinj::build_table(&[("k.jl", src)]).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let k = jvm.new_instance("K", &[]).unwrap();
    let data = jvm.new_f32_array(&[0.0; 4]);
    let err = translate(
        &table,
        &jvm,
        &k,
        "run",
        &[data],
        TransConfig::virtual_dispatch(),
    )
    .unwrap_err();
    assert!(err.message.contains("virtual dispatch"), "{err}");
}

#[test]
fn shape_mismatch_on_local_reassignment_is_reported() {
    let src = "
        @WootinJ interface Op { int f(); }
        @WootinJ final class A implements Op { A() { } int f() { return 1; } }
        @WootinJ final class B implements Op { B() { } int f() { return 2; } }
        @WootinJ final class M {
          M() { }
          int run(boolean w) {
            A a = new A();
            int r = a.f();
            return r;
          }
        }";
    // This one is fine; now the mismatching variant must fail in any mode
    // with shape analysis.
    let bad = "
        @WootinJ interface Op { int f(); }
        @WootinJ final class A implements Op { A() { } int f() { return 1; } }
        @WootinJ final class B implements Op { B() { } int f() { return 2; } }
        @WootinJ final class M {
          M() { }
          int run(boolean w) {
            Op o = new A();
            if (w) { o = new B(); }
            return o.f();
          }
        }";
    let table = compile_str(src).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let m = jvm.new_instance("M", &[]).unwrap();
    assert!(translate(
        &table,
        &jvm,
        &m,
        "run",
        &[Value::Bool(true)],
        TransConfig::full()
    )
    .is_ok());

    let table = compile_str(bad).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let m = jvm.new_instance("M", &[]).unwrap();
    let mut config = TransConfig::full();
    config.check_rules = false; // rule 2 already rejects the Op local
    let err = translate(&table, &jvm, &m, "run", &[Value::Bool(true)], config).unwrap_err();
    assert!(err.message.contains("shape"), "{err}");
}

#[test]
fn long_arithmetic_and_conversions_roundtrip() {
    let src = "
        @WootinJ final class L {
          L() { }
          long run(int n) {
            long acc = 1L;
            for (int i = 0; i < n; i++) {
              acc = acc * 3L + i;
            }
            return acc;
          }
        }";
    let v = run_full(src, "L", &[], "run", &[Value::Int(20)]);
    // Reference in Rust.
    let mut acc: i64 = 1;
    for i in 0..20i64 {
        acc = acc.wrapping_mul(3).wrapping_add(i);
    }
    assert_eq!(v, Val::I64(acc));
}

#[test]
fn deep_nesting_of_component_objects_flattens_fully() {
    let src = "
        @WootinJ final class Inner { float v; Inner(float v0) { v = v0; } }
        @WootinJ final class Mid { Inner a; Inner b; Mid(Inner x, Inner y) { a = x; b = y; } }
        @WootinJ final class Outer {
          Mid m;
          Outer(Mid m0) { m = m0; }
          float run() { return m.a.v + m.b.v; }
        }";
    let table = compile_str(src).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let i1 = jvm.new_instance("Inner", &[Value::Float(1.5)]).unwrap();
    let i2 = jvm.new_instance("Inner", &[Value::Float(2.5)]).unwrap();
    let mid = jvm.new_instance("Mid", &[i1, i2]).unwrap();
    let outer = jvm.new_instance("Outer", &[mid]).unwrap();
    let t = translate(&table, &jvm, &outer, "run", &[], TransConfig::full()).unwrap();
    // Full mode: no object instructions anywhere.
    for f in &t.program.funcs {
        for ins in &f.code {
            assert!(!matches!(
                ins,
                nir::Instr::GetField { .. } | nir::Instr::NewObj { .. }
            ));
        }
    }
    let mut m = Machine::with_globals(&t.program);
    let vals = bind_entry_args(&jvm, &outer, &[], &t.bindings, &mut m).unwrap();
    assert_eq!(
        run_to_completion(&t.program, t.entry, vals, &mut m).unwrap(),
        Some(Val::F32(4.0))
    );
}

#[test]
fn mode_reports_match_requested_mode() {
    let src = "@WootinJ final class X { X() { } int run() { return 1; } }";
    let table = compile_str(src).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let x = jvm.new_instance("X", &[]).unwrap();
    for (config, mode) in [
        (TransConfig::full(), Mode::Full),
        (TransConfig::devirt(), Mode::Devirt),
        (TransConfig::virtual_dispatch(), Mode::Virtual),
    ] {
        let t = translate(&table, &jvm, &x, "run", &[], config).unwrap();
        assert_eq!(t.mode, mode);
    }
}

#[test]
fn min_value_literals_agree_between_jvm_and_exec() {
    let src = "
        @WootinJ final class M {
          M() { }
          int minInt() { return -2147483648; }
          long minLong() { return -9223372036854775808L; }
        }";
    let table = compile_str(src).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let recv = jvm.new_instance("M", &[]).unwrap();
    for (method, want, jwant) in [
        ("minInt", Val::I32(i32::MIN), Value::Int(i32::MIN)),
        ("minLong", Val::I64(i64::MIN), Value::Long(i64::MIN)),
    ] {
        assert_eq!(jvm.call(&recv, method, &[]).unwrap(), jwant, "jvm {method}");
        assert_eq!(run_full(src, "M", &[], method, &[]), want, "exec {method}");
    }
}

/// An array local assigned on one path only is read unassigned on the
/// other: javac's definite-assignment rule rejects that, and so does
/// translation, through the verifier. Assigned on both paths, it
/// translates and runs.
#[test]
fn an_array_local_must_be_assigned_on_every_path() {
    let src = |other: &str| {
        format!(
            "@WootinJ final class A {{
               A() {{ }}
               int run(int n) {{
                 float[] a;
                 if (n > 0) {{ a = new float[n]; }} {other}
                 return a.length;
               }}
             }}"
        )
    };
    let one_sided = src("");
    let table = compile_str(&one_sided).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let recv = jvm.new_instance("A", &[]).unwrap();
    let one_sided = translate(
        &table,
        &jvm,
        &recv,
        "run",
        &[Value::Int(3)],
        TransConfig::full(),
    );
    let Err(e) = one_sided else {
        panic!("a one-sided assignment is rejected");
    };
    assert!(
        e.to_string().contains("may be read before it is written"),
        "{e}"
    );
    let two_sided = src("else { a = new float[1]; }");
    assert_eq!(
        run_full(&two_sided, "A", &[], "run", &[Value::Int(3)]),
        Val::I32(3)
    );
    assert_eq!(
        run_full(&two_sided, "A", &[], "run", &[Value::Int(0)]),
        Val::I32(1)
    );
}

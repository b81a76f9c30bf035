//! Translator edge cases: zero-leaf objects, static-final constant
//! folding, reference casts, device-context specialization, return shapes
//! and constructed shapes, and the documented unsupported-construct
//! errors.

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

/// Each construct the coding rules forbid, in a body translated with the
/// rule checker off: every mode refuses it with the same message.
#[test]
fn forbidden_constructs_are_refused_alike_in_every_mode() {
    const CASES: &[(&str, &str)] = &[
        (
            "boolean run() { return this == this; }",
            "reference equality cannot be translated (coding rule 7)",
        ),
        (
            "boolean run() { return this instanceof K; }",
            "`instanceof` cannot be translated (coding rule 8)",
        ),
        (
            "int run() { K k = null; return 1; }",
            "`null` cannot be translated (coding rule 8)",
        ),
        (
            "@Native(\"ext.log\") static void log(String s);
             int run() { log(\"x\"); return 1; }",
            "strings cannot be translated",
        ),
        (
            "int run() { int v = 3; return v > 2 ? 1 : 2; }",
            "the conditional operator cannot be translated (coding rule 7)",
        ),
        (
            "static int C = 1; int run() { C = 2; return C; }",
            "assignment to a static field cannot be translated (coding rule 5)",
        ),
    ];
    for (members, want) in CASES {
        let src = format!("@WootinJ final class K {{ K() {{ }} {members} }}");
        let table = compile_str(&src).unwrap_or_else(|e| panic!("{members}: {e:?}"));
        let mut jvm = Jvm::new(&table).unwrap();
        let k = jvm.new_instance("K", &[]).unwrap();
        for base in [
            TransConfig::virtual_dispatch(),
            TransConfig::devirt(),
            TransConfig::full(),
        ] {
            let config = TransConfig {
                check_rules: false,
                ..base
            };
            let err = translate(&table, &jvm, &k, "run", &[], config).unwrap_err();
            assert_eq!(err.message, *want, "{members} in {:?}", config.mode);
        }
    }
}

/// What a constructor may not hold when the shaped modes run it inline
/// at its `new` site, with the rule checker off: Devirt and Full refuse
/// each with one text, whether the `new` is in a void method or a valued
/// one. Virtual mode runs every such constructor as the `jvm` does.
#[test]
fn constructors_the_inline_run_cannot_hold_are_refused_alike() {
    const CASES: &[(&str, &str, &str)] = &[
        (
            "final class X { int v; X(int k) { v = twice(k); } int twice(int k) { return k * 2; } }",
            "new X(3)",
            "constructor of `X` calls a method",
        ),
        (
            "final class X { int v; X(int k) { if (k > 0) { v = k; } else { v = -k; } } }",
            "new X(3)",
            "constructor of `X` contains a conditional or loop",
        ),
        (
            "final class X { int v; X(int k) { X me = this; v = k; } }",
            "new X(3)",
            "constructor of `X` uses `this` as a value",
        ),
        (
            "final class X { int v; X(int k) { v = k; return; } }",
            "new X(3)",
            "constructor of `X` contains a `return`",
        ),
        (
            "final class Y { int w; Y() { w = 1; } } \
             final class X { int v; X(Y y) { v = 3; y.w = 4; } }",
            "new X(new Y())",
            "constructor of `X` writes a field of another object",
        ),
        // `q.pair()` returns a two-leaf object, which Full mode splices
        // into the constructor run: its `this.p` must not read `X`'s
        // field frame.
        (
            "final class Pair { int a; int b; Pair(int a0, int b0) { a = a0; b = b0; } } \
             final class Q { Pair p; Q() { p = new Pair(1, 2); } Pair pair() { return p; } } \
             final class X { Pair mine; int v; \
               X(Q q) { mine = new Pair(5, 6); Pair pp = q.pair(); v = pp.a; } }",
            "new X(new Q())",
            "constructor of `X` calls a method",
        ),
    ];
    for (classes, new, want) in CASES {
        let src = format!(
            "{classes} @WootinJ final class K {{ K() {{ }}
               void fill(int[] a) {{ X x = {new}; a[0] = x.v; }}
               int make() {{ X x = {new}; return x.v; }}
               int void_new(int[] a) {{ fill(a); return a[0]; }}
               int valued_new(int[] a) {{ return make(); }}
             }}"
        );
        let table = compile_str(&src).unwrap_or_else(|e| panic!("{classes}: {e:?}"));
        let mut jvm = Jvm::new(&table).unwrap();
        let k = jvm.new_instance("K", &[]).unwrap();
        for entry in ["void_new", "valued_new"] {
            let args = [jvm.new_i32_array(&[0])];
            let java = jvm.call(&k, entry, &args).unwrap().as_i32().unwrap();
            for base in [
                TransConfig::virtual_dispatch(),
                TransConfig::devirt(),
                TransConfig::full(),
            ] {
                let config = TransConfig {
                    check_rules: false,
                    ..base
                };
                let what = format!("{classes}, {entry} in {:?}", config.mode);
                let t = translate(&table, &jvm, &k, entry, &args, config);
                if config.mode != Mode::Virtual {
                    let err = t.err().unwrap_or_else(|| panic!("{what}: translated"));
                    assert_eq!(err.message, *want, "{what}");
                    continue;
                }
                let t = t.unwrap_or_else(|e| panic!("{what}: {e}"));
                let mut m = Machine::with_globals(&t.program);
                let vals = bind_entry_args(&jvm, &k, &args, &t.bindings, &mut m).unwrap();
                let got = run_to_completion(&t.program, t.entry, vals, &mut m).unwrap();
                assert_eq!(got, Some(Val::I32(java)), "{what}");
            }
        }
    }
}

/// `new class().method(args)` translated in Devirt and in Full mode, with
/// the rule checker as `check_rules` says, and run: each mode's program
/// and result, or its refusal.
fn shaped(
    src: &str,
    class: &str,
    method: &str,
    args: &[Value],
    check_rules: bool,
) -> [Result<(translator::Translated, Val), String>; 2] {
    let table = compile_str(src).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let recv = jvm.new_instance(class, &[]).unwrap();
    [TransConfig::devirt(), TransConfig::full()].map(|base| {
        let config = TransConfig {
            check_rules,
            ..base
        };
        let t = translate(&table, &jvm, &recv, method, args, config).map_err(|e| e.message)?;
        let mut m = Machine::with_globals(&t.program);
        let vals = bind_entry_args(&jvm, &recv, args, &t.bindings, &mut m).unwrap();
        let out = run_to_completion(&t.program, t.entry, vals, &mut m).unwrap();
        Ok((t, out.unwrap()))
    })
}

/// The return type of the function whose name starts with `name`.
fn ret_ty(t: &translator::Translated, name: &str) -> Option<nir::Ty> {
    let f = t.program.funcs.iter().find(|f| f.name.starts_with(name));
    f.unwrap_or_else(|| panic!("no function `{name}`")).ret
}

#[test]
fn return_shape_through_dispatch() {
    let src = "
        @WootinJ interface Solver { float solve(float x); }
        @WootinJ final class Mul implements Solver { float a; Mul(float a0) { a = a0; }
          float solve(float x) { return a * x; } }
        @WootinJ final class App { Solver s = new Mul(3f); App() { }
          float run(float x) { return s.solve(x); } }";
    for run in shaped(src, "App", "run", &[Value::Float(1.0)], true) {
        let (t, out) = run.unwrap();
        assert_eq!(out, Val::F32(3.0), "{:?}", t.mode);
        assert_eq!(ret_ty(&t, "Mul_solve"), Some(nir::Ty::F32), "{:?}", t.mode);
    }
}

#[test]
fn object_return_shapes() {
    let src = "
        @WootinJ final class Cell { float v; Cell(float v0) { v = v0; } }
        @WootinJ final class Maker { Maker() { }
          Cell make(float x) { return new Cell(x + 1f); }
          float run(float x) { Cell c = make(x); return c.v; } }";
    let [devirt, full] = shaped(src, "Maker", "run", &[Value::Float(2.0)], true);
    let (devirt, full) = (devirt.unwrap(), full.unwrap());
    assert_eq!((devirt.1, full.1), (Val::F32(3.0), Val::F32(3.0)));
    // On the heap a `Cell` is a handle; flattened, its one leaf.
    assert_eq!(ret_ty(&devirt.0, "Maker_make"), Some(nir::Ty::Obj));
    assert_eq!(ret_ty(&full.0, "Maker_make"), Some(nir::Ty::F32));
}

#[test]
fn ctor_chain_with_super_and_inits() {
    let src = "
        @WootinJ class Base { int a; Base(int a0) { a = a0; } }
        @WootinJ final class Sub extends Base { float[] buf = new float[4]; int b;
          Sub(int x) { super(x); b = a + 1; } }
        @WootinJ final class App { App() { }
          Sub make(int x) { return new Sub(x); }
          int run(int x) { Sub s = make(x); return s.a * 100 + s.b * 10 + s.buf.length; } }";
    for run in shaped(src, "App", "run", &[Value::Int(5)], true) {
        let (t, out) = run.unwrap();
        assert_eq!(out, Val::I32(564), "{:?}", t.mode);
        // Three leaves: Full splices `make`, Devirt returns the object.
        let make = t
            .program
            .funcs
            .iter()
            .any(|f| f.name.starts_with("App_make"));
        assert_eq!(make, t.mode == Mode::Devirt, "{:?}", t.mode);
    }
}

#[test]
fn divergent_return_shapes_rejected() {
    let src = "
        interface I { } final class A implements I { A() { } } final class B implements I { B() { } }
        @WootinJ final class F { F() { }
          I pick(boolean b) { if (b) { return new A(); } return new B(); }
          int run(boolean b) { I i = pick(b); return 1; } }";
    for entry in ["pick", "run"] {
        for run in shaped(src, "F", entry, &[Value::Bool(true)], false) {
            let err = run.expect_err("translated");
            assert_eq!(
                err, "return statements produce different shapes — exact types must be static",
                "{entry}"
            );
        }
    }
}

#[test]
fn recursion_detected() {
    let src = "
        @WootinJ final class R { R() { }
          int f(int n) { if (n <= 0) { return 0; } return f(n - 1); } }";
    for run in shaped(src, "R", "f", &[Value::Int(3)], false) {
        let err = run.expect_err("translated");
        assert_eq!(err, "recursive call chain reaches `R::f` (coding rule 6)");
    }
}

#[test]
fn unassigned_object_field_rejected() {
    let src = "
        @WootinJ final class Inner { Inner() { } }
        @WootinJ final class Outer { Inner i; Outer() { } }
        @WootinJ final class App { App() { }
          int run() { Outer o = new Outer(); return 1; } }";
    for run in shaped(src, "App", "run", &[], true) {
        let err = run.expect_err("translated");
        assert!(
            err.contains("is not assigned by the constructor chain"),
            "{err}"
        );
    }
}

#[test]
fn unassigned_primitive_field_defaults() {
    let src = "
        @WootinJ final class P { int x; float y; P() { } }
        @WootinJ final class App { App() { }
          float run() { P p = new P(); return (float) p.x + p.y + 1f; } }";
    for run in shaped(src, "App", "run", &[], true) {
        let (t, out) = run.unwrap();
        assert_eq!(out, Val::F32(1.0), "{:?}", t.mode);
    }
}

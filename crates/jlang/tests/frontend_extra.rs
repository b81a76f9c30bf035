//! Additional front-end coverage: precedence, associativity, scoping,
//! generics corner cases, and diagnostic quality.

use jlang::{compile_str, SourceSet};

fn ok(src: &str) {
    if let Err(ds) = compile_str(src) {
        panic!("expected success:\n{}", jlang::render_diags(&ds));
    }
}

fn err_containing(src: &str, needle: &str) {
    match compile_str(src) {
        Ok(_) => panic!("expected error containing {needle:?}"),
        Err(ds) => {
            let all = jlang::render_diags(&ds);
            assert!(all.contains(needle), "missing {needle:?} in:\n{all}");
        }
    }
}

#[test]
fn arithmetic_precedence_is_java() {
    // 2 + 3 * 4 - 10 / 5 == 12; (2+3)*4 == 20; shifts bind looser than +.
    ok("class A { static boolean m() { return 2 + 3 * 4 - 10 / 5 == 12; } }");
    ok("class A { static boolean m() { return (2 + 3) * 4 == 20; } }");
    ok("class A { static boolean m() { return (1 << 2 + 1) == 8; } }");
}

#[test]
fn logical_precedence() {
    // && binds tighter than ||.
    ok("class A { static boolean m(boolean a, boolean b, boolean c) { return a || b && c; } }");
    // comparison binds tighter than &&.
    ok("class A { static boolean m(int x) { return x > 0 && x < 10; } }");
}

#[test]
fn unary_minus_and_not_nest() {
    ok("class A { static int m(int x) { return - - x; } static boolean n(boolean b) { return ! !b; } }");
}

#[test]
fn deeply_nested_expressions_parse_up_to_the_guard() {
    let mut e = "1".to_string();
    for _ in 0..32 {
        e = format!("({e} + 1)");
    }
    ok(&format!("class A {{ static int m() {{ return {e}; }} }}"));
}

#[test]
fn pathological_nesting_errors_instead_of_crashing() {
    let mut e = "1".to_string();
    for _ in 0..500 {
        e = format!("({e} + 1)");
    }
    err_containing(
        &format!("class A {{ static int m() {{ return {e}; }} }}"),
        "nested deeper",
    );
}

/// Run `f` the way `jitd` runs a client's source: on a thread with the
/// default 2 MB stack, where running out is an abort, not a panic.
fn on_a_2mb_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn statement_and_postfix_bombs_get_a_diagnostic_not_a_stack_overflow() {
    on_a_2mb_stack(|| {
        let in_method = |body: &str| format!("class A {{ void f(int[] a) {{ {body} }} }}");
        err_containing(
            &in_method(&format!("{}{}", "{".repeat(10_000), "}".repeat(10_000))),
            "statement nesting deeper",
        );
        err_containing(
            &in_method(&format!("{};", "if (true) ".repeat(10_000))),
            "statement nesting deeper",
        );
        err_containing(
            &in_method(&format!("int x = a{};", "[0]".repeat(200_000))),
            "nested deeper",
        );
        // The other ways to build a deep tree out of a flat token stream.
        err_containing(
            &in_method(&format!("int x = 1{};", " + 1".repeat(200_000))),
            "nested deeper",
        );
        err_containing(
            &in_method(&format!("int x = {}1;", "- ".repeat(200_000))),
            "nested deeper",
        );
        err_containing(
            &format!("class A {{ int{} x; }}", "[]".repeat(200_000)),
            "nested deeper",
        );
    });
}

#[test]
fn nesting_within_the_limits_compiles_on_a_2mb_stack() {
    on_a_2mb_stack(|| {
        // 15 nested branches around a 47-term sum: one short of each limit.
        ok(&format!(
            "class A {{ static int m(int x) {{ int y = 0; {} y = x{}; return y; }} }}",
            "if (x > 0) ".repeat(15),
            " + x".repeat(46),
        ));
    });
}

#[test]
fn nested_blocks_and_shadowing_rules() {
    // Inner blocks may declare new locals; same-scope duplicates are errors.
    ok("class A { static int m() { int x = 1; { int y = 2; x += y; } { int y = 3; x += y; } return x; } }");
    err_containing(
        "class A { static int m() { int x = 1; int x = 2; return x; } }",
        "duplicate local",
    );
}

#[test]
fn for_loop_scoping() {
    // The induction variable is scoped to the loop; reuse afterwards is fine.
    ok("class A { static int m() { int s = 0; for (int i = 0; i < 3; i++) { s += i; } for (int i = 0; i < 3; i++) { s += i; } return s; } }");
}

#[test]
fn else_if_chains() {
    ok("class A { static int m(int x) { if (x > 2) { return 3; } else if (x > 1) { return 2; } else if (x > 0) { return 1; } else { return 0; } } }");
}

#[test]
fn comments_everywhere() {
    ok("class /* c */ A { // trailing\n static int /* mid */ m() { return /* deep */ 1; } }");
}

#[test]
fn interface_extending_interfaces() {
    ok(
        "interface A { int a(); } interface B { int b(); } interface C extends A, B { } \
        class Impl implements C { int a() { return 1; } int b() { return 2; } }",
    );
}

#[test]
fn abstract_classes_partially_implement() {
    ok("interface I { int a(); int b(); } \
        abstract class Half implements I { int a() { return 1; } } \
        class Full extends Half { int b() { return 2; } }");
}

#[test]
fn generic_class_with_two_parameters() {
    ok("interface K { } interface V { } \
        final class MyK implements K { } final class MyV implements V { } \
        class Pair<A extends K, B extends V> { A k; B v; Pair(A a, B b) { k = a; v = b; } \
          A key() { return k; } B val() { return v; } } \
        class Use { static MyK m(Pair<MyK, MyV> p) { return p.key(); } }");
}

#[test]
fn generic_arity_mismatch_reported() {
    err_containing(
        "class Box<T> { T t; Box(T t0) { t = t0; } } class A { Box b; }",
        "expects 1 type argument",
    );
}

#[test]
fn unknown_type_reported_with_name() {
    err_containing("class A { Banana b; }", "unknown type `Banana`");
}

#[test]
fn boolean_arithmetic_rejected() {
    err_containing(
        "class A { static int m(boolean b) { return b + 1; } }",
        "arithmetic",
    );
}

#[test]
fn condition_must_be_boolean() {
    err_containing(
        "class A { static void m(int x) { if (x) { } } }",
        "expected boolean",
    );
    err_containing(
        "class A { static void m(int x) { while (x) { } } }",
        "expected boolean",
    );
}

#[test]
fn string_equality_not_supported() {
    // Strings only exist as native-call arguments; comparing them is a
    // reference comparison at best and should still type as RefEq... but
    // Str is not a reference type in jlang, so it errors.
    err_containing(
        "class A { static boolean m() { return \"a\" == \"b\"; } }",
        "arithmetic on non-numeric",
    );
}

#[test]
fn long_literals_and_suffixes() {
    ok("class A { static long m() { long big = 4000000000L; return big + 1L; } }");
    err_containing(
        "class A { static long m() { return 4000000000; } }",
        "out of 32-bit range",
    );
}

#[test]
fn multiple_files_resolve_cross_references_in_any_order() {
    let set = SourceSet::new()
        .with("b.jl", "class B extends A { int g() { return f() + 1; } }")
        .with("a.jl", "class A { int f() { return 1; } }");
    assert!(jlang::compile(&set).is_ok());
}

#[test]
fn error_lines_point_into_the_right_file() {
    let set = SourceSet::new()
        .with("good.jl", "class Good { }")
        .with("bad.jl", "class Bad {\n  int m() { return nope; }\n}");
    let err = jlang::compile(&set).unwrap_err();
    assert!(
        err.iter().any(|d| d.span.file == 1 && d.span.line == 2),
        "{err:?}"
    );
}

#[test]
fn compound_operators_all_work() {
    ok("class A { static int m() { int x = 100; x += 5; x -= 3; x *= 2; x /= 4; x %= 9; return x; } }");
}

#[test]
fn while_true_with_break_types() {
    ok("class A { static int m() { int i = 0; while (true) { i++; if (i > 3) { break; } } return i; } }");
}

#[test]
fn ctor_cannot_be_called_as_method() {
    err_containing(
        "class A { A() { } static void m(A a) { a.A(); } }",
        "no method",
    );
}

#[test]
fn super_field_access_through_inheritance_chain() {
    ok("class A { int x; A(int v) { x = v; } } \
        class B extends A { B(int v) { super(v); } } \
        class C extends B { C() { super(5); } int get() { return x; } }");
}

//! Pins the parser's output: the `Debug` rendering of `parse_unit` over
//! the prelude, the three `hpclib` libraries and the translator's
//! pipeline fixture, plus a set of ambiguous and malformed snippets. A
//! change to how the parser reaches its trees must build the same trees,
//! with the same spans, and report the same diagnostics at the same
//! tokens.
//!
//! The corpus renders to megabytes, so each of its classes is pinned as
//! the length and FNV-1a digest of its rendering; the snippets are pinned
//! in full. On a mismatch the whole rendering is written next to the
//! test binary (`parse_pin.got.txt` under cargo's target tmpdir) for a
//! diff against `fixtures/parse_pin.txt`.

use jlang::parser::parse_unit;

const PIPELINE8: &str = include_str!("../../translator/tests/fixtures/pipeline8.jl");

/// Statements whose first tokens could begin either a local declaration
/// or an expression, and other shapes the parser must disambiguate.
const AMBIGUOUS: &[(&str, &str)] = &[
    (
        "locals-vs-expressions",
        "class A { void f(int[] a, int n) { \
           int x = 1; int[] b = new int[n]; Foo<Bar> g = new Foo<Bar>(); \
           Grid<Grid<F>> h; Grid<Grid<Grid<F>>> k; final int c = 2; final Foo<Bar>[] d; \
           x = 2; a[0] = 3; a[x] += 4; b.length; g.f = 5; g.f.g -= 6; x++; a[1]--; \
           foo(1); this.bar(x, 2); a < b; void v; } }",
    ),
    (
        "precedence-and-associativity",
        "class A { boolean f(int a, int b, Object o) { \
           int x = a - b - 1 + a * b / 2 % 3 << 1 >> 2; \
           boolean c = a < b == b > a != a <= b & a >= b ^ a == b | true && false || c; \
           boolean d = o instanceof A && a < b instanceof B; \
           int y = -a * !b + -(a + b); \
           return a ? b ? 1 : 2 : c ? 3 : 4; } }",
    ),
    (
        "casts-and-parens",
        "class A { int f(double d, int a, int b, Foo p) { \
           int x = (int) d; int y = (a) - b; Foo q = (Foo) p; Foo[] r = (Foo[]) s; \
           int z = (a + b) * (int) (d * 2.0); return (x); } }",
    ),
    (
        "for-headers",
        "class A { void f(int n) { \
           for (int i = 0; i < n; i++) { } for (i = 0; ; i += 2) x--; for (;;) { break; } \
           for (final Foo<Bar> j = k; j < n; j.m()) continue; } }",
    ),
];

/// Malformed sources; the parser's diagnostics are pinned with spans.
fn malformed() -> Vec<(&'static str, String)> {
    let in_method = |body: &str| format!("class A {{ void f(int[] a) {{ {body} }} }}");
    vec![
        ("final-without-type", in_method("final x;")),
        ("final-then-literal", in_method("final 3;")),
        ("final-final", in_method("final final int x;")),
        ("generic-assigned", in_method("Foo<Bar> = 3;")),
        ("index-then-name", in_method("a[1] b;")),
        ("array-type-then-literal", in_method("int[] 3;")),
        ("unclosed-generic-local", in_method("Foo<Bar x = y;")),
        (
            "unclosed-generic-field",
            "class A { Foo<Bar x; }".to_string(),
        ),
        (
            "shr-closes-two",
            in_method("Foo<Bar<Baz>> x = y; Foo<Bar>> z;"),
        ),
        ("dotted-type-argument", in_method("Foo<Bar.Baz> x;")),
        ("stray-question", in_method("int x = a ?;")),
        ("stray-question-statement", in_method("?")),
        ("instanceof-then-plus", in_method("b = a instanceof T + 1;")),
        ("missing-operand", in_method("int x = ;")),
        ("not-assignable", in_method("a + 1 = 2;")),
        (
            "empty-cast",
            "class A { int f() { return (int) ; } }".to_string(),
        ),
        ("unclosed-paren", in_method("if (a { }")),
        ("new-array-no-length", in_method("int[] b = new int[];")),
        ("unterminated-block", "class A { void f() { ".to_string()),
        ("lexer-error", in_method("a # b;")),
        (
            "recovery-across-classes",
            "class A { int x = ; } class B { void f() { y y y; } } class C { }".to_string(),
        ),
        (
            "statement-bomb",
            in_method(&format!("{}{}", "{".repeat(40), "}".repeat(40))),
        ),
        (
            "if-bomb",
            in_method(&format!("{};", "if (true) ".repeat(40))),
        ),
        (
            "paren-bomb",
            in_method(&format!("int x = {}1{};", "(".repeat(60), ")".repeat(60))),
        ),
        (
            "index-bomb",
            in_method(&format!("int x = a{};", "[0]".repeat(60))),
        ),
        (
            "sum-bomb",
            in_method(&format!("int x = 1{};", " + 1".repeat(60))),
        ),
        (
            "negation-bomb",
            in_method(&format!("int x = {}1;", "- ".repeat(60))),
        ),
        (
            "array-type-bomb",
            format!("class A {{ int{} x; }}", "[]".repeat(60)),
        ),
        (
            "local-array-type-bomb",
            in_method(&format!("int{} x;", "[]".repeat(60))),
        ),
        (
            "type-argument-bomb",
            in_method(&format!("F{} x;", "<F".repeat(50) + &">".repeat(50))),
        ),
        (
            "field-type-argument-bomb",
            format!("class A {{ F{} x; }}", "<F".repeat(50) + &">".repeat(50)),
        ),
        (
            "type-arguments-within-the-scan",
            in_method(&format!(
                "F{} x; F{} y;",
                "<F".repeat(20) + &">>".repeat(10),
                "<F".repeat(3) + ">>>"
            )),
        ),
    ]
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

fn digest(out: &mut String, name: &str, src: &str) {
    out.push_str(&format!("== corpus {name} ({} B) ==\n", src.len()));
    match parse_unit(0, src) {
        Ok(unit) => {
            for c in &unit.classes {
                let d = format!("{c:?}");
                out.push_str(&format!("{} {} {:016x}\n", c.name, d.len(), fnv1a(&d)));
            }
        }
        Err(ds) => out.push_str(&format!("{:?}\n", Err::<(), _>(ds))),
    }
}

fn full(out: &mut String, kind: &str, name: &str, src: &str) {
    out.push_str(&format!("== {kind} {name} ==\n{:?}\n", parse_unit(0, src)));
}

fn rendered() -> String {
    let mut out = String::new();
    digest(&mut out, "prelude", wootinj::prelude::PRELUDE);
    digest(&mut out, "stencil", hpclib::STENCIL_LIB);
    digest(&mut out, "matmul", hpclib::MATMUL_LIB);
    digest(&mut out, "reduce", hpclib::REDUCE_LIB);
    digest(&mut out, "pipeline8", PIPELINE8);
    for (name, src) in AMBIGUOUS {
        full(&mut out, "ambiguous", name, src);
    }
    for (name, src) in malformed() {
        full(&mut out, "malformed", name, &src);
    }
    out
}

#[test]
fn parser_output_is_pinned() {
    let got = rendered();
    let want = include_str!("fixtures/parse_pin.txt");
    if got != want {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("parse_pin.got.txt");
        std::fs::write(&path, &got).unwrap();
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "first difference at line {} (got: {path:?})", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "line counts differ (got: {path:?})"
        );
    }
}

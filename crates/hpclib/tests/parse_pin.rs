//! Pins the parser's output: a rendering of `parse_unit` over the
//! prelude, the three `hpclib` libraries and the translator's pipeline
//! fixture, plus a set of ambiguous and malformed snippets. A change to
//! how the parser reaches its trees must build the same trees, with the
//! same spans, and report the same diagnostics at the same tokens.
//!
//! The rendering is this file's own printer ([`render`]): it writes a
//! tree in the shape `#[derive(Debug)]` gives a tree whose nodes own
//! their children — `Binary { op: Add, lhs: Name("a", Span { .. }), .. }`
//! — whatever the parser's storage, so the pin outlives a change of
//! representation.
//!
//! The corpus renders to megabytes, so each of its classes is pinned as
//! the length and FNV-1a digest of its rendering; the snippets are pinned
//! in full. On a mismatch the whole rendering is written next to the
//! test binary (`parse_pin.got.txt` under cargo's target tmpdir) for a
//! diff against `fixtures/parse_pin.txt`.

use std::fmt::Write;

use jlang::ast::*;
use jlang::parser::parse_unit;
use jlang::Diagnostic;

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
                let mut d = String::new();
                class(&mut d, c);
                out.push_str(&format!("{} {} {:016x}\n", c.name, d.len(), fnv1a(&d)));
            }
        }
        Err(ds) => out.push_str(&format!("{:?}\n", Err::<(), _>(ds))),
    }
}

fn full(out: &mut String, kind: &str, name: &str, src: &str) {
    out.push_str(&format!("== {kind} {name} ==\n"));
    render(out, &parse_unit(0, src));
    out.push('\n');
}

// ---- the printer ---------------------------------------------------------

fn render(out: &mut String, r: &Result<Unit, Vec<Diagnostic>>) {
    match r {
        Ok(u) => {
            out.push_str("Ok(Unit { classes: ");
            list(out, &u.classes, class);
            out.push_str(" })");
        }
        Err(ds) => write!(out, "Err({ds:?})").unwrap(),
    }
}

fn list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        each(out, x);
    }
    out.push(']');
}

fn opt<T>(out: &mut String, o: Option<T>, each: impl FnOnce(&mut String, T)) {
    match o {
        Some(x) => {
            out.push_str("Some(");
            each(out, x);
            out.push(')');
        }
        None => out.push_str("None"),
    }
}

fn class(out: &mut String, c: &ClassDecl) {
    write!(
        out,
        "ClassDecl {{ name: {:?}, is_interface: {:?}, annotations: {:?}, modifiers: {:?}, \
         type_params: {:?}, superclass: {:?}, interfaces: {:?}, fields: ",
        c.name,
        c.is_interface,
        c.annotations,
        c.modifiers,
        c.type_params,
        c.superclass,
        c.interfaces
    )
    .unwrap();
    list(out, &c.fields, field);
    out.push_str(", methods: ");
    list(out, &c.methods, method);
    out.push_str(", ctor: ");
    opt(out, c.ctor.as_ref(), ctor);
    write!(out, ", span: {:?} }}", c.span).unwrap();
}

fn field(out: &mut String, f: &FieldDecl) {
    write!(
        out,
        "FieldDecl {{ name: {:?}, ty: {:?}, annotations: {:?}, modifiers: {:?}, init: ",
        f.name, f.ty, f.annotations, f.modifiers
    )
    .unwrap();
    opt(out, f.init.as_deref(), |out, b| {
        let Root::Init(e) = b.root() else {
            panic!("a field initializer rooted at {:?}", b.root())
        };
        expr(out, b, e)
    });
    write!(out, ", span: {:?} }}", f.span).unwrap();
}

fn method(out: &mut String, m: &MethodDecl) {
    write!(
        out,
        "MethodDecl {{ name: {:?}, annotations: {:?}, modifiers: {:?}, params: {:?}, ret: {:?}, body: ",
        m.name, m.annotations, m.modifiers, m.params, m.ret
    )
    .unwrap();
    opt(out, m.body.as_deref(), |out, b| {
        let Root::Block(body) = b.root() else {
            panic!("a method body rooted at {:?}", b.root())
        };
        block(out, b, body)
    });
    write!(out, ", span: {:?} }}", m.span).unwrap();
}

fn ctor(out: &mut String, c: &CtorDecl) {
    let b = &*c.body;
    let Root::Ctor { super_args, body } = b.root() else {
        panic!("a constructor rooted at {:?}", b.root())
    };
    write!(out, "CtorDecl {{ params: {:?}, super_args: ", c.params).unwrap();
    opt(out, super_args, |out, args| {
        list(out, b.list(args), |out, a| expr(out, b, a))
    });
    out.push_str(", body: ");
    block(out, b, body);
    write!(out, ", span: {:?} }}", c.span).unwrap();
}

fn block(out: &mut String, b: &Body, stmts: Block) {
    out.push_str("Block { stmts: ");
    list(out, b.list(stmts), |out, s| stmt(out, b, s));
    out.push_str(" }");
}

fn ty(out: &mut String, b: &Body, t: TyId) {
    write!(out, "{:?}", b.type_ref(t)).unwrap();
}

fn stmt(out: &mut String, b: &Body, s: StmtId) {
    let span = b.stmt_span(s);
    let e = |out: &mut String, e| expr(out, b, e);
    match b.stmt(s) {
        Stmt::Local {
            name,
            ty: t,
            init,
            is_final,
        } => {
            write!(out, "Local {{ name: {:?}, ty: ", b.name(name)).unwrap();
            ty(out, b, t);
            out.push_str(", init: ");
            opt(out, init, e);
            write!(out, ", is_final: {is_final:?}, span: {span:?} }}").unwrap();
        }
        Stmt::Assign { target, op, value } => {
            out.push_str("Assign { target: ");
            expr(out, b, target);
            write!(out, ", op: {op:?}, value: ").unwrap();
            expr(out, b, value);
            write!(out, ", span: {span:?} }}").unwrap();
        }
        Stmt::IncDec { target, inc } => {
            out.push_str("IncDec { target: ");
            expr(out, b, target);
            write!(out, ", inc: {inc:?}, span: {span:?} }}").unwrap();
        }
        Stmt::Expr(x) => {
            out.push_str("Expr(");
            expr(out, b, x);
            out.push(')');
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            out.push_str("If { cond: ");
            expr(out, b, cond);
            out.push_str(", then_branch: ");
            block(out, b, then_branch);
            out.push_str(", else_branch: ");
            opt(out, else_branch, |out, s| block(out, b, s));
            write!(out, ", span: {span:?} }}").unwrap();
        }
        Stmt::While { cond, body } => {
            out.push_str("While { cond: ");
            expr(out, b, cond);
            out.push_str(", body: ");
            block(out, b, body);
            write!(out, ", span: {span:?} }}").unwrap();
        }
        Stmt::For {
            init,
            cond,
            update,
            body,
        } => {
            out.push_str("For { init: ");
            opt(out, init, |out, s| stmt(out, b, s));
            out.push_str(", cond: ");
            opt(out, cond, e);
            out.push_str(", update: ");
            opt(out, update, |out, s| stmt(out, b, s));
            out.push_str(", body: ");
            block(out, b, body);
            write!(out, ", span: {span:?} }}").unwrap();
        }
        Stmt::Return { value } => {
            out.push_str("Return { value: ");
            opt(out, value, e);
            write!(out, ", span: {span:?} }}").unwrap();
        }
        Stmt::Break => write!(out, "Break({span:?})").unwrap(),
        Stmt::Continue => write!(out, "Continue({span:?})").unwrap(),
        Stmt::Block(stmts) => {
            out.push_str("Block(");
            block(out, b, stmts);
            out.push(')');
        }
    }
}

fn expr(out: &mut String, b: &Body, e: ExprId) {
    let span = b.expr_span(e);
    let args = |out: &mut String, args| list(out, b.list(args), |out, a| expr(out, b, a));
    match b.expr(e) {
        Expr::IntLit(v) => write!(out, "IntLit({v:?}, {span:?})").unwrap(),
        Expr::LongLit(v) => write!(out, "LongLit({v:?}, {span:?})").unwrap(),
        Expr::FloatLit(v) => write!(out, "FloatLit({v:?}, {span:?})").unwrap(),
        Expr::DoubleLit(v) => write!(out, "DoubleLit({v:?}, {span:?})").unwrap(),
        Expr::BoolLit(v) => write!(out, "BoolLit({v:?}, {span:?})").unwrap(),
        Expr::NullLit => write!(out, "NullLit({span:?})").unwrap(),
        Expr::StrLit(v) => write!(out, "StrLit({:?}, {span:?})", b.name(v)).unwrap(),
        Expr::Name(n) => write!(out, "Name({:?}, {span:?})", b.name(n)).unwrap(),
        Expr::This => write!(out, "This({span:?})").unwrap(),
        Expr::Field { obj, name } => {
            out.push_str("Field { obj: ");
            expr(out, b, obj);
            write!(out, ", name: {:?}, span: {span:?} }}", b.name(name)).unwrap();
        }
        Expr::Call {
            recv,
            name,
            args: a,
        } => {
            out.push_str("Call { recv: ");
            expr(out, b, recv);
            write!(out, ", name: {:?}, args: ", b.name(name)).unwrap();
            args(out, a);
            write!(out, ", span: {span:?} }}").unwrap();
        }
        Expr::SuperCall { name, args: a } => {
            write!(out, "SuperCall {{ name: {:?}, args: ", b.name(name)).unwrap();
            args(out, a);
            write!(out, ", span: {span:?} }}").unwrap();
        }
        Expr::New { ty: t, args: a } => {
            out.push_str("New { ty: ");
            ty(out, b, t);
            out.push_str(", args: ");
            args(out, a);
            write!(out, ", span: {span:?} }}").unwrap();
        }
        Expr::NewArray { elem, len } => {
            out.push_str("NewArray { elem: ");
            ty(out, b, elem);
            out.push_str(", len: ");
            expr(out, b, len);
            write!(out, ", span: {span:?} }}").unwrap();
        }
        Expr::Index { arr, idx } => {
            out.push_str("Index { arr: ");
            expr(out, b, arr);
            out.push_str(", idx: ");
            expr(out, b, idx);
            write!(out, ", span: {span:?} }}").unwrap();
        }
        Expr::Unary { op, expr: x } => {
            write!(out, "Unary {{ op: {op:?}, expr: ").unwrap();
            expr(out, b, x);
            write!(out, ", span: {span:?} }}").unwrap();
        }
        Expr::Binary { op, lhs, rhs } => {
            write!(out, "Binary {{ op: {op:?}, lhs: ").unwrap();
            expr(out, b, lhs);
            out.push_str(", rhs: ");
            expr(out, b, rhs);
            write!(out, ", span: {span:?} }}").unwrap();
        }
        Expr::Cast { ty: t, expr: x } => {
            out.push_str("Cast { ty: ");
            ty(out, b, t);
            out.push_str(", expr: ");
            expr(out, b, x);
            write!(out, ", span: {span:?} }}").unwrap();
        }
        Expr::InstanceOf { expr: x, ty: t } => {
            out.push_str("InstanceOf { expr: ");
            expr(out, b, x);
            out.push_str(", ty: ");
            ty(out, b, t);
            write!(out, ", span: {span:?} }}").unwrap();
        }
        Expr::Ternary {
            cond,
            then_val,
            else_val,
        } => {
            out.push_str("Ternary { cond: ");
            expr(out, b, cond);
            out.push_str(", then_val: ");
            expr(out, b, then_val);
            out.push_str(", else_val: ");
            expr(out, b, else_val);
            write!(out, ", span: {span:?} }}").unwrap();
        }
    }
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

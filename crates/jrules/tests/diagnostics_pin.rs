//! Pins the rules checker's output byte for byte: every `hpclib` corpus
//! table, and the stencil corpus plus one mutant file per rule. A change
//! to how the checker reaches its verdicts must render the same
//! diagnostics, in the same order, with the same spans.

use jlang::ClassTable;

/// One mutant per rule, each an extra file compiled beside the stencil
/// library so the check runs over the corpus too.
const MUTANTS: &[(&str, &str)] = &[
    (
        "field-not-semi-immutable",
        "@WootinJ final class Counter { int n; Counter() { n = 0; } \
           void bump() { n = n + 1; } } \
         @WootinJ final class Node { Node next; Node(Node n) { next = n; } } \
         final class Plain { int v; Plain() { } void set(int x) { v = x; } } \
         @WootinJ final class HoldsPlain { Plain p; HoldsPlain(Plain q) { p = q; } }",
    ),
    (
        "local-or-cast-not-strict-final",
        "@WootinJ final class UsesIface { UsesIface() { } \
           float m(Dif3DSolver d) { Solver3D s = d; float r = s.solve(1f, 0f, 0f, 0f, 0f, 0f, 0f); \
             Solver3D t = (Solver3D) d; return r; } \
           Solver3D back(Dif3DSolver d) { return d; } }",
    ),
    (
        "assigned-parameter",
        "@WootinJ final class Params { Params() { } \
           int m(int x, int y) { x = 3; int z = y; z = z + x; y = z; return y; } }",
    ),
    (
        "type-argument-is-its-bound",
        "@WootinJ final class BadClient { BadClient() { } \
           float go(OneDSolver<SolverCtx> s, SolverCtx ctx, GridInit i) { \
             Stencil1DRunner<SolverCtx> r = new Stencil1DRunner<SolverCtx>(s, ctx, i); \
             return r.invoke(8, 1); } }",
    ),
    (
        "non-final-static-and-static-array",
        "@WootinJ final class Statics { static int counter = 0; \
           static final float[] table = new float[4]; static final int ok = 3; Statics() { } }",
    ),
    (
        "recursion",
        "@WootinJ final class Fact { Fact() { } \
           int entry(int n) { return fact(n) + 1; } \
           int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } }",
    ),
    (
        "ternary-and-ref-eq",
        "@WootinJ final class Cond { Cond() { } \
           int m(boolean b) { int r = 0; r = b ? 1 : 0; return r; } \
           boolean same(Dif3DSolver x, Dif3DSolver y) { return x == y || x != y; } }",
    ),
    (
        "instanceof-and-null",
        "@WootinJ final class Nulls { Nulls() { } \
           boolean is(Solver3D x) { return x instanceof Dif3DSolver; } \
           Dif3DSolver none() { return null; } }",
    ),
    (
        "constructor-branch",
        "@WootinJ final class Branchy { int x; \
           Branchy(int v) { if (v > 0) { x = v; } else { x = 0; } while (x > 9) { } } } \
         @WootinJ final class Caller { int y; Caller() { y = helper(); } \
           static int helper() { return 1; } } \
         @WootinJ final class Leaks { Object o; Leaks() { o = this; } } \
         @WootinJ final class InitCall { int z = InitCall.helper(); InitCall() { } \
           static int helper() { return 2; } }",
    ),
];

fn render(table: &ClassTable) -> String {
    let report = jrules::check_program(table);
    let mut out = format!("checked {}:", report.checked.len());
    for id in &report.checked {
        out.push(' ');
        out.push_str(table.name(*id));
    }
    out.push('\n');
    for d in &report.violations {
        let s = d.span;
        out.push_str(&format!("{}:{}..{} {d}\n", s.file, s.start, s.end));
    }
    out
}

fn rendered() -> String {
    let mut out = String::new();
    let corpus = [
        ("stencil", hpclib::stencil_table(&[])),
        ("reduce", hpclib::reduce_table(&[])),
        ("matmul", hpclib::matmul_table(&[])),
    ];
    for (name, table) in corpus {
        let table = table.unwrap_or_else(|ds| panic!("{name}: {}", jlang::render_diags(&ds)));
        out.push_str(&format!("== corpus {name} ==\n{}", render(&table)));
    }
    for (name, src) in MUTANTS {
        let table = hpclib::stencil_table(&[("mutant.jl", src)])
            .unwrap_or_else(|ds| panic!("{name}: {}", jlang::render_diags(&ds)));
        out.push_str(&format!("== mutant {name} ==\n{}", render(&table)));
    }
    out
}

#[test]
fn rules_diagnostics_are_pinned() {
    let got = rendered();
    let want = include_str!("fixtures/diagnostics.txt");
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "first difference at line {}", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "line counts differ"
        );
    }
}

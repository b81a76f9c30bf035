//! A seeded generator of WootinJ programs for `oracle.rs`, the first cut
//! of a differential oracle against the `jvm`.
//!
//! Each program is an interface `Op` with 2–4 `@WootinJ` implementations,
//! composed under the entry class `P` up to three deep (`P` holds a
//! `Chain`, which holds a `Pair` and an `Op`; a `Pair` holds two `Op`s),
//! every field set once by a branch-free constructor. Bodies mix int and
//! float arithmetic, `static final` constants, `if`/`else` on `&&` and
//! `||`, and loops over the entry's `int[]` and `float[]` arguments that
//! write them. Literals come from a pool of six values per kind, so equal
//! literals recur within a block, across blocks and inside loops.
//!
//! Left out of this cut: array fields reassigned outside a constructor,
//! compound assignment with side-effecting subexpressions, int division
//! and remainder (the two engines fail at different times on a zero
//! divisor), and GPU and MPI programs.

/// xorshift64* over a splitmix64-scrambled seed, as `benchmark/src/gen.rs`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())].clone()
    }
}

/// The int literals a program draws from.
const INTS: [i32; 6] = [0, 1, 2, 3, 5, 7];
/// The float literals, as source text and as values.
const FLOATS: [(&str, f32); 6] = [
    ("0.0f", 0.0),
    ("0.5f", 0.5),
    ("1.0f", 1.0),
    ("1.5f", 1.5),
    ("2.0f", 2.0),
    ("0.25f", 0.25),
];

/// A constructor argument of an object the test builds before the run.
pub enum Arg {
    Int(i32),
    Float(f32),
    Obj(Obj),
}

/// An object to build bottom-up: its class and constructor arguments.
pub struct Obj {
    pub class: String,
    pub args: Vec<Arg>,
}

/// One generated program: its source, the receiver to build, and the
/// entry's two array arguments, `run(int[] a, float[] b)`.
pub struct Program {
    pub source: String,
    pub receiver: Obj,
    pub ints: Vec<i32>,
    pub floats: Vec<f32>,
}

/// What an expression may read: int and float values (variables, fields,
/// constants, array elements) and the calls that return them.
#[derive(Clone, Default)]
struct Scope {
    ints: Vec<String>,
    floats: Vec<String>,
    /// Locals a statement may assign (never a parameter: rule 3).
    int_locals: Vec<String>,
    float_locals: Vec<String>,
    /// `Op`-typed fields whose `fi` and `ff` an expression may call and
    /// whose `wr` a statement may.
    ops: Vec<String>,
    /// The field whose `gi` (which writes the arrays) a statement may call.
    pairs: Vec<String>,
    /// The array parameters, when the method has them.
    arrays: bool,
}

struct Gen {
    rng: Rng,
    /// Numbers locals, so that no two in one method share a name.
    next_local: usize,
}

impl Gen {
    fn int_lit(&mut self) -> String {
        self.rng.pick(&INTS).to_string()
    }

    fn float_lit(&mut self) -> String {
        self.rng.pick(&FLOATS).0.to_string()
    }

    fn int_expr(&mut self, s: &Scope, depth: u32) -> String {
        if depth == 0 || self.rng.below(3) == 0 {
            return match self.rng.below(8) {
                0..=3 if !s.ints.is_empty() => self.rng.pick(&s.ints),
                4 if !s.ops.is_empty() => {
                    let op = self.rng.pick(&s.ops);
                    format!("{op}.fi({})", self.int_expr(s, 0))
                }
                _ => self.int_lit(),
            };
        }
        match self.rng.below(7) {
            0 => format!("(int) ({})", self.float_expr(s, depth - 1)),
            1 => format!("({} & {})", self.int_expr(s, depth - 1), self.int_lit()),
            _ => {
                let op = self.rng.pick(&["+", "-", "*"]);
                let l = self.int_expr(s, depth - 1);
                let r = self.int_expr(s, depth - 1);
                format!("({l} {op} {r})")
            }
        }
    }

    fn float_expr(&mut self, s: &Scope, depth: u32) -> String {
        if depth == 0 || self.rng.below(3) == 0 {
            return match self.rng.below(8) {
                0..=3 if !s.floats.is_empty() => self.rng.pick(&s.floats),
                4 if !s.ops.is_empty() => {
                    let op = self.rng.pick(&s.ops);
                    format!("{op}.ff({})", self.float_expr(s, 0))
                }
                _ => self.float_lit(),
            };
        }
        match self.rng.below(6) {
            0 => format!("(float) ({})", self.int_expr(s, depth - 1)),
            _ => {
                let op = self.rng.pick(&["+", "-", "*"]);
                let l = self.float_expr(s, depth - 1);
                let r = self.float_expr(s, depth - 1);
                format!("({l} {op} {r})")
            }
        }
    }

    fn compare(&mut self, s: &Scope) -> String {
        if self.rng.below(3) == 0 {
            let op = self.rng.pick(&["<", ">", "<=", ">="]);
            format!("{} {op} {}", self.float_expr(s, 1), self.float_expr(s, 1))
        } else {
            let op = self.rng.pick(&["<", ">", "<=", ">=", "==", "!="]);
            format!("{} {op} {}", self.int_expr(s, 1), self.int_expr(s, 1))
        }
    }

    fn cond(&mut self, s: &Scope) -> String {
        let (a, b) = (self.compare(s), self.compare(s));
        match self.rng.below(4) {
            0 => format!("{a} && {b}"),
            1 => format!("{a} || {b}"),
            2 => format!("({a} && {b}) || {}", self.compare(s)),
            _ => format!("{a} || ({b} && {})", self.compare(s)),
        }
    }

    fn local(&mut self, prefix: &str) -> String {
        self.next_local += 1;
        format!("{prefix}{}", self.next_local)
    }

    /// `n` statements into `out`; `depth` bounds how deep `if`s and loops
    /// nest. Locals declared here go out of scope with the block.
    fn block(&mut self, s: &Scope, depth: u32, n: usize, out: &mut String) {
        let mut s = s.clone();
        let (ints, floats) = (s.int_locals.len(), s.float_locals.len());
        for _ in 0..n {
            match self.rng.below(10) {
                0 => {
                    let v = self.local("t");
                    out.push_str(&format!("int {v} = {};\n", self.int_expr(&s, 2)));
                    s.ints.push(v.clone());
                    s.int_locals.push(v);
                }
                1 => {
                    let v = self.local("u");
                    out.push_str(&format!("float {v} = {};\n", self.float_expr(&s, 2)));
                    s.floats.push(v.clone());
                    s.float_locals.push(v);
                }
                2 | 3 if !s.int_locals.is_empty() => {
                    let v = self.rng.pick(&s.int_locals);
                    let op = self.rng.pick(&["=", "+=", "-="]);
                    out.push_str(&format!("{v} {op} {};\n", self.int_expr(&s, 2)));
                }
                4 if !s.float_locals.is_empty() => {
                    let v = self.rng.pick(&s.float_locals);
                    let op = self.rng.pick(&["=", "+=", "*="]);
                    out.push_str(&format!("{v} {op} {};\n", self.float_expr(&s, 2)));
                }
                5 | 6 if depth > 0 => {
                    out.push_str(&format!("if ({}) {{\n", self.cond(&s)));
                    let k = 1 + self.rng.below(3);
                    self.block(&s, depth - 1, k, out);
                    if self.rng.below(3) > 0 {
                        out.push_str("} else {\n");
                        let k = 1 + self.rng.below(3);
                        self.block(&s, depth - 1, k, out);
                    }
                    out.push_str("}\n");
                }
                7 if depth > 0 && s.arrays => self.array_loop(&s, depth - 1, out),
                8 if s.arrays && !s.pairs.is_empty() => {
                    let p = self.rng.pick(&s.pairs);
                    out.push_str(&format!("acc += {p}.gi(a, b, {});\n", self.int_expr(&s, 1)));
                }
                8 if s.arrays && !s.ops.is_empty() => {
                    let x = self.rng.pick(&s.ops);
                    out.push_str(&format!("{x}.wr(a, b, {});\n", self.int_expr(&s, 1)));
                }
                _ => {
                    // A literal both kinds of local read twice in a row.
                    let (v, w) = (self.local("t"), self.local("u"));
                    let (k, f) = (self.int_lit(), self.float_lit());
                    let e = self.int_expr(&s, 1);
                    out.push_str(&format!("int {v} = {e} * {k} + {k};\n"));
                    out.push_str(&format!("float {w} = (float) {v} * {f} + {f};\n"));
                    s.ints.push(v.clone());
                    s.int_locals.push(v);
                    s.floats.push(w.clone());
                    s.float_locals.push(w);
                }
            }
        }
        // The result reads every local the block declared.
        for v in &s.int_locals[ints..] {
            out.push_str(&format!("acc += {v};\n"));
        }
        for v in &s.float_locals[floats..] {
            out.push_str(&format!("facc += {v};\n"));
        }
    }

    /// `for (j = 0; j < a.length; j++)` writing `a[j]` and `b[j]` (both
    /// arguments have the same length), with literals inside the loop.
    fn array_loop(&mut self, s: &Scope, depth: u32, out: &mut String) {
        let j = self.local("j");
        out.push_str(&format!("for (int {j} = 0; {j} < a.length; {j}++) {{\n"));
        let mut inner = s.clone();
        inner.ints.push(j.clone());
        inner.ints.push(format!("a[{j}]"));
        inner.floats.push(format!("b[{j}]"));
        let (k, f) = (self.int_lit(), self.float_lit());
        let e = self.int_expr(&inner, 2);
        out.push_str(&format!("a[{j}] = a[{j}] * {k} + {e};\n"));
        let e = self.float_expr(&inner, 2);
        out.push_str(&format!("b[{j}] = b[{j}] * {f} + {e};\n"));
        if self.rng.below(2) == 0 {
            let n = 1 + self.rng.below(2);
            self.block(&inner, depth, n, out);
        }
        out.push_str("}\n");
    }

    /// A method body: `n` statements over `s`, then `return` of `ret`'s
    /// kind. A body with the array parameters starts with a loop over them.
    fn body(&mut self, s: &Scope, n: usize, ret: Option<&str>) -> String {
        self.next_local = 0;
        let mut out = String::new();
        let mut s = s.clone();
        // An accumulator of each kind that the statements may update.
        out.push_str(&format!("int acc = {};\n", self.int_lit()));
        out.push_str(&format!("float facc = {};\n", self.float_lit()));
        for (list, locals, v) in [
            (&mut s.ints, &mut s.int_locals, "acc"),
            (&mut s.floats, &mut s.float_locals, "facc"),
        ] {
            list.push(v.into());
            locals.push(v.into());
        }
        if s.arrays {
            self.array_loop(&s, 1, &mut out);
        }
        self.block(&s, 2, n, &mut out);
        match ret {
            Some("int") => out.push_str(&format!("return acc + {};\n", self.int_expr(&s, 1))),
            Some("float") => out.push_str(&format!(
                "return facc + (float) acc * {};\n",
                self.float_lit()
            )),
            _ => {}
        }
        out
    }
}

/// The program of `seed`.
pub fn program(seed: u64) -> Program {
    let mut g = Gen {
        rng: Rng::new(seed),
        next_local: 0,
    };
    let impls = 2 + g.rng.below(3);
    let depth = 1 + g.rng.below(3);
    let mut src = String::from(
        "@WootinJ interface Op {\n  int fi(int v);\n  float ff(float v);\n  \
         void wr(int[] a, float[] b, int v);\n}\n",
    );

    // The implementations: two fields, a `static final`, three methods.
    for i in 0..impls {
        let (s_int, s_float) = (g.int_lit(), g.float_lit());
        let (k, f) = (g.int_lit(), g.float_lit());
        let leaf = Scope {
            ints: vec!["c".into(), "S".into()],
            floats: vec!["g".into(), "T".into()],
            ..Scope::default()
        };
        let with = |mut s: Scope, ints: &[&str], floats: &[&str], arrays: bool| {
            s.ints.extend(ints.iter().map(|v| v.to_string()));
            s.floats.extend(floats.iter().map(|v| v.to_string()));
            s.arrays = arrays;
            s
        };
        let n = 2 + g.rng.below(3);
        let fi = g.body(&with(leaf.clone(), &["v"], &[], false), n, Some("int"));
        let n = 2 + g.rng.below(3);
        let ff = g.body(&with(leaf.clone(), &[], &["v"], false), n, Some("float"));
        let n = g.rng.below(2);
        let wr = g.body(&with(leaf, &["v"], &[], true), n, None);
        src.push_str(&format!(
            "@WootinJ final class Op{i} implements Op {{\n\
             static final int S = {s_int};\n  static final float T = {s_float};\n\
             int c;\n  float g;\n\
             Op{i}(int c0, float g0) {{ c = c0 * {k} + 1; g = g0 * {f} + 0.5f; }}\n\
             int fi(int v) {{\n{fi}}}\n\
             float ff(float v) {{\n{ff}}}\n\
             void wr(int[] a, float[] b, int v) {{\n{wr}}}\n}}\n"
        ));
    }
    let op = |g: &mut Gen| Obj {
        class: format!("Op{}", g.rng.below(impls)),
        args: vec![
            Arg::Int(g.rng.pick(&INTS) - 2),
            Arg::Float(g.rng.pick(&FLOATS).1),
        ],
    };

    // The compositions: `Pair` over two `Op`s, `Chain` over a `Pair` and
    // an `Op`; each level's `gi` calls the level below.
    let mut levels = Vec::new();
    if depth >= 2 {
        let s = Scope {
            ints: vec!["v".into(), "w".into()],
            floats: vec!["h".into()],
            ops: vec!["x".into(), "y".into()],
            arrays: true,
            ..Scope::default()
        };
        let n = 2 + g.rng.below(3);
        let mut body = g.body(&s, n, None);
        body.push_str("x.wr(a, b, acc);\nreturn acc + (int) facc;\n");
        src.push_str(&format!(
            "@WootinJ final class Pair {{\n  Op x;\n  Op y;\n  int w;\n  float h;\n\
             Pair(Op x0, Op y0, int w0, float h0) {{ x = x0; y = y0; w = w0 + 2; h = h0 * 0.5f; }}\n\
             int gi(int[] a, float[] b, int v) {{\n{body}}}\n}}\n"
        ));
        levels.push("Pair");
    }
    if depth >= 3 {
        let s = Scope {
            ints: vec!["v".into(), "w".into()],
            floats: vec![],
            ops: vec!["q".into()],
            pairs: vec!["p".into()],
            arrays: true,
            ..Scope::default()
        };
        let n = 2 + g.rng.below(3);
        let mut body = g.body(&s, n, None);
        body.push_str("acc += p.gi(a, b, acc);\nreturn acc + (int) facc;\n");
        src.push_str(&format!(
            "@WootinJ final class Chain {{\n  Pair p;\n  Op q;\n  int w;\n\
             Chain(Pair p0, Op q0, int w0) {{ p = p0; q = q0; w = w0 * 3; }}\n\
             int gi(int[] a, float[] b, int v) {{\n{body}}}\n}}\n"
        ));
        levels.push("Chain");
    }

    // The receiver, built from the bottom up.
    let mut root = op(&mut g);
    let mut root_class = "Op";
    for &level in &levels {
        root = match level {
            "Pair" => Obj {
                class: "Pair".into(),
                args: vec![
                    Arg::Obj(root),
                    Arg::Obj(op(&mut g)),
                    Arg::Int(g.rng.pick(&INTS)),
                    Arg::Float(g.rng.pick(&FLOATS).1),
                ],
            },
            _ => Obj {
                class: "Chain".into(),
                args: vec![
                    Arg::Obj(root),
                    Arg::Obj(op(&mut g)),
                    Arg::Int(g.rng.pick(&INTS)),
                ],
            },
        };
        root_class = level;
    }

    // The entry: `run(int[] a, float[] b)` over the root.
    let ret = if g.rng.below(2) == 0 { "int" } else { "float" };
    let s = Scope {
        ints: vec!["K".into(), "k".into()],
        floats: vec!["G".into()],
        ops: if root_class == "Op" {
            vec!["r".into()]
        } else {
            vec![]
        },
        pairs: if root_class == "Op" {
            vec![]
        } else {
            vec!["r".into()]
        },
        arrays: true,
        ..Scope::default()
    };
    let n = 3 + g.rng.below(4);
    let mut body = g.body(&s, n, None);
    if root_class == "Op" {
        body.push_str("r.wr(a, b, acc);\n");
    } else {
        body.push_str("acc += r.gi(a, b, k);\n");
    }
    body.push_str(if ret == "int" {
        "return acc + (int) facc;\n"
    } else {
        "return facc + (float) acc;\n"
    });
    let (kk, gg) = (g.int_lit(), g.float_lit());
    src.push_str(&format!(
        "@WootinJ final class P {{\n  static final int K = {kk};\n  static final float G = {gg};\n\
         {root_class} r;\n  int k;\n\
         P({root_class} r0, int k0) {{ r = r0; k = k0 * 2 - 1; }}\n\
         {ret} run(int[] a, float[] b) {{\n{body}}}\n}}\n"
    ));
    let receiver = Obj {
        class: "P".into(),
        args: vec![Arg::Obj(root), Arg::Int(g.rng.pick(&INTS))],
    };

    let len = 1 + g.rng.below(6);
    let ints = (0..len).map(|_| g.rng.pick(&INTS) - 3).collect();
    let floats = (0..len).map(|_| g.rng.pick(&FLOATS).1 - 0.75).collect();
    Program {
        source: src,
        receiver,
        ints,
        floats,
    }
}

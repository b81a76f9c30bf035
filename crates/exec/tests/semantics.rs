//! Differential semantics: the NIR engine's arithmetic must agree with
//! the jvm interpreter's Java semantics on every operator and operand —
//! the two execution paths of the framework must never diverge.
//!
//! Randomized inputs come from a small deterministic xorshift generator
//! so the suite builds without external crates on offline hosts.

use jlang::ast::BinOp;
use jlang::types::PrimKind;
use nir::{ConstVal, FuncBuilder, FuncKind, Instr, IntrinOp, Program, Ty};

/// Deterministic xorshift64* PRNG — same sequence on every run.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn next_i32(&mut self) -> i32 {
        self.next_u64() as i32
    }

    fn next_f64(&mut self) -> f64 {
        f64::from_bits(self.next_u64())
    }
}

/// Build `fn f(a, b) { a op b }` for int operands.
fn int_binop_program(op: BinOp) -> Program {
    let out_ty = if op.is_comparison() {
        Ty::Bool
    } else {
        Ty::I32
    };
    let mut fb = FuncBuilder::new("f", vec![Ty::I32, Ty::I32], Some(out_ty), FuncKind::Host);
    let dst = fb.reg(out_ty);
    fb.emit(Instr::Bin {
        op,
        kind: PrimKind::Int,
        dst,
        lhs: 0,
        rhs: 1,
    });
    fb.emit(Instr::Ret(Some(dst)));
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    p.entry = Some(id);
    p
}

/// Java reference semantics for the same operator.
fn java_int_binop(op: BinOp, a: i32, b: i32) -> Option<exec::Val> {
    use BinOp::*;
    Some(match op {
        Add => exec::Val::I32(a.wrapping_add(b)),
        Sub => exec::Val::I32(a.wrapping_sub(b)),
        Mul => exec::Val::I32(a.wrapping_mul(b)),
        Div => {
            if b == 0 {
                return None;
            }
            exec::Val::I32(a.wrapping_div(b))
        }
        Rem => {
            if b == 0 {
                return None;
            }
            exec::Val::I32(a.wrapping_rem(b))
        }
        Shl => exec::Val::I32(a.wrapping_shl(b as u32 & 31)),
        Shr => exec::Val::I32(a.wrapping_shr(b as u32 & 31)),
        BitAnd => exec::Val::I32(a & b),
        BitOr => exec::Val::I32(a | b),
        BitXor => exec::Val::I32(a ^ b),
        Lt => exec::Val::Bool(a < b),
        Le => exec::Val::Bool(a <= b),
        Gt => exec::Val::Bool(a > b),
        Ge => exec::Val::Bool(a >= b),
        Eq => exec::Val::Bool(a == b),
        Ne => exec::Val::Bool(a != b),
        And | Or => return None,
    })
}

#[test]
fn int_operators_match_java_semantics() {
    use BinOp::*;
    let mut rng = Rng::new(0x5EED_0001);
    let mut cases: Vec<(i32, i32)> = vec![
        (0, 0),
        (1, -1),
        (i32::MIN, -1),
        (i32::MIN, i32::MAX),
        (7, 0),
        (-7, 3),
        (i32::MAX, 1),
        (1, 33),
    ];
    for _ in 0..120 {
        cases.push((rng.next_i32(), rng.next_i32()));
    }
    for (a, b) in cases {
        for op in [
            Add, Sub, Mul, Div, Rem, Shl, Shr, BitAnd, BitOr, BitXor, Lt, Le, Gt, Ge, Eq, Ne,
        ] {
            let p = int_binop_program(op);
            let mut m = exec::Machine::new();
            let got = exec::run_to_completion(
                &p,
                p.entry.unwrap(),
                vec![exec::Val::I32(a), exec::Val::I32(b)],
                &mut m,
            );
            match java_int_binop(op, a, b) {
                Some(want) => assert_eq!(got.unwrap(), Some(want), "op {op:?} on ({a}, {b})"),
                None => assert!(got.is_err(), "op {op:?} on ({a}, {b}) should error"),
            }
        }
    }
}

#[test]
fn float_to_int_cast_saturates_like_java() {
    // Java (JLS 5.1.3): NaN -> 0, +/-inf -> min/max; Rust `as` matches.
    let mut rng = Rng::new(0x5EED_0002);
    let mut cases: Vec<f64> = vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        1e300,
        -1e300,
        2147483647.9,
        -2147483648.9,
    ];
    for _ in 0..120 {
        cases.push(rng.next_f64());
    }
    for x in cases {
        let mut fb = FuncBuilder::new("f", vec![Ty::F64], Some(Ty::I32), FuncKind::Host);
        let dst = fb.reg(Ty::I32);
        fb.emit(Instr::Cast {
            to: PrimKind::Int,
            from: PrimKind::Double,
            dst,
            src: 0,
        });
        fb.emit(Instr::Ret(Some(dst)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        let mut m = exec::Machine::new();
        let got = exec::run_to_completion(&p, id, vec![exec::Val::F64(x)], &mut m).unwrap();
        assert_eq!(got, Some(exec::Val::I32(x as i32)), "cast of {x}");
    }
}

/// Java's float `Math.min`/`Math.max` on both sides: the `jvm`'s
/// `math.minf`/`math.maxf` natives and the engine's `MinF32`/`MaxF32`,
/// bit for bit, on NaNs (with payloads), signed zeros, infinities and
/// ordinary pairs; and both as Java defines them where `f32::min`/`max`
/// differ (caught: a scratch mutant that reverted either side to them).
#[test]
fn float_min_max_match_java_on_both_sides() {
    let table = wootinj::build_table(&[(
        "minmax.jl",
        "final class MinMax {
           static float lo(float a, float b) { return Math.minf(a, b); }
           static float hi(float a, float b) { return Math.maxf(a, b); }
         }",
    )])
    .unwrap();
    let mut jvm = jvm::Jvm::new(&table).unwrap();
    let mut java = |method: &str, a: f32, b: f32| {
        let args = [jvm::Value::Float(a), jvm::Value::Float(b)];
        match jvm.call_static("MinMax", method, &args) {
            Ok(jvm::Value::Float(v)) => v.to_bits(),
            other => panic!("{method}({a}, {b}): {other:?}"),
        }
    };
    let engine = |op, a: f32, b: f32| {
        let mut fb = FuncBuilder::new("f", vec![Ty::F32, Ty::F32], Some(Ty::F32), FuncKind::Host);
        let dst = fb.reg(Ty::F32);
        fb.emit(Instr::Intrin {
            op,
            args: vec![0, 1],
            dst: Some(dst),
        });
        fb.emit(Instr::Ret(Some(dst)));
        let mut p = Program::default();
        let f = p.add_func(fb.finish().unwrap());
        let mut m = exec::Machine::new();
        let args = vec![exec::Val::F32(a), exec::Val::F32(b)];
        match exec::run_to_completion(&p, f, args, &mut m) {
            Ok(Some(exec::Val::F32(v))) => v.to_bits(),
            other => panic!("{op:?}({a}, {b}): {other:?}"),
        }
    };
    let nan = f32::from_bits(0x7fc0_0001);
    let values = [
        nan,
        -f32::NAN,
        0.0,
        -0.0,
        1.5,
        -2.25,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    for (op, method) in [(IntrinOp::MinF32, "lo"), (IntrinOp::MaxF32, "hi")] {
        for a in values {
            for b in values {
                let (got, want) = (engine(op, a, b), java(method, a, b));
                assert_eq!(
                    got, want,
                    "{op:?}({a:?}, {b:?}): engine {got:#x}, jvm {want:#x}"
                );
            }
        }
    }
    // Where Rust's `f32::min`/`max` and Java's differ.
    for (method, a, b, want) in [
        ("lo", nan, 1.0, nan),
        ("lo", 1.0, nan, nan),
        ("lo", 0.0, -0.0, -0.0),
        ("lo", -0.0, 0.0, -0.0),
        ("hi", nan, -1.0, nan),
        ("hi", -0.0, 0.0, 0.0),
        ("hi", 0.0, -0.0, 0.0),
    ] {
        assert_eq!(java(method, a, b), want.to_bits(), "{method}({a:?}, {b:?})");
    }
}

#[test]
fn cycle_count_is_a_pure_function_of_the_trace() {
    // Same program + same input => identical counters.
    for n in [1i32, 2, 3, 17, 50, 199] {
        let mut fb = FuncBuilder::new("loop", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let s = fb.reg(Ty::I32);
        let i = fb.reg(Ty::I32);
        let one = fb.reg(Ty::I32);
        let c = fb.reg(Ty::Bool);
        fb.emit(Instr::ConstI32(s, 0));
        fb.emit(Instr::ConstI32(i, 0));
        fb.emit(Instr::ConstI32(one, 1));
        let head = fb.label();
        let body = fb.label();
        let done = fb.label();
        fb.bind(head);
        fb.emit(Instr::Bin {
            op: BinOp::Lt,
            kind: PrimKind::Int,
            dst: c,
            lhs: i,
            rhs: 0,
        });
        fb.br(c, body, done);
        fb.bind(body);
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: s,
            lhs: s,
            rhs: i,
        });
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: i,
            lhs: i,
            rhs: one,
        });
        fb.jmp(head);
        fb.bind(done);
        fb.emit(Instr::Ret(Some(s)));
        let mut p = Program::default();
        let id = p.add_func(fb.finish().unwrap());
        let run = |n: i32| {
            let mut m = exec::Machine::new();
            exec::run_to_completion(&p, id, vec![exec::Val::I32(n)], &mut m).unwrap();
            (m.counters.instrs, m.counters.cycles)
        };
        assert_eq!(run(n), run(n));
    }
}

#[test]
fn fuel_boundary_never_changes_results() {
    // Running with tiny fuel slices must produce the same result and the
    // same final counters as one big run.
    let p = int_binop_program(BinOp::Add);
    let big = {
        let mut m = exec::Machine::new();
        let v = exec::run_to_completion(
            &p,
            p.entry.unwrap(),
            vec![exec::Val::I32(7), exec::Val::I32(35)],
            &mut m,
        )
        .unwrap();
        (v, m.counters.instrs)
    };
    let small = {
        let mut m = exec::Machine::new();
        let image = exec::Image::build(&p).unwrap();
        let mut t = exec::Thread::new(
            &p,
            p.entry.unwrap(),
            &[exec::Val::I32(7), exec::Val::I32(35)],
        )
        .unwrap();
        loop {
            match exec::run(&mut t, &image, &mut m, 1).unwrap() {
                exec::Yield::Done(v) => break (v, m.counters.instrs),
                exec::Yield::OutOfFuel => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    };
    assert_eq!(big, small);
}

/// Edge operands of each kind: zero, ±1, the extremes, the shift counts
/// 31, 32, 63 and 64, 2^60 + 2^36 + 1 (a `long` that rounds twice on a
/// way to `float` through `double`) and, for floats, NaN, ±0.0, ±∞ and
/// the smallest subnormal.
fn edge_values(kind: PrimKind) -> Vec<ConstVal> {
    const TWICE: i64 = (1 << 60) + (1 << 36) + 1;
    let counts = [0, 1, -1, 31, 32, 63, 64];
    match kind {
        PrimKind::Int => counts
            .into_iter()
            .chain([i32::MIN, i32::MAX])
            .map(ConstVal::I32)
            .collect(),
        PrimKind::Long => counts
            .into_iter()
            .map(i64::from)
            .chain([i64::MIN, i64::MAX, TWICE])
            .map(ConstVal::I64)
            .collect(),
        PrimKind::Float => counts
            .into_iter()
            .map(|c| c as f32)
            .chain([-0.0, f32::MIN, f32::MAX, f32::NAN, f32::INFINITY])
            .chain([f32::NEG_INFINITY, f32::from_bits(1), TWICE as f32])
            .map(ConstVal::F32)
            .collect(),
        PrimKind::Double => counts
            .into_iter()
            .map(f64::from)
            .chain([-0.0, f64::MIN, f64::MAX, f64::NAN, f64::INFINITY])
            .chain([f64::NEG_INFINITY, f64::from_bits(1), TWICE as f64])
            .map(ConstVal::F64)
            .collect(),
        PrimKind::Boolean => vec![ConstVal::Bool(false), ConstVal::Bool(true)],
    }
}

/// `v`'s register type and the instruction that loads it into `r`.
fn load(v: &ConstVal, r: nir::Reg) -> (Ty, Instr) {
    match *v {
        ConstVal::I32(v) => (Ty::I32, Instr::ConstI32(r, v)),
        ConstVal::I64(v) => (Ty::I64, Instr::ConstI64(r, v)),
        ConstVal::F32(v) => (Ty::F32, Instr::ConstF32(r, v)),
        ConstVal::F64(v) => (Ty::F64, Instr::ConstF64(r, v)),
        ConstVal::Bool(v) => (Ty::Bool, Instr::ConstBool(r, v)),
    }
}

/// The bits of a result, or the message of its error.
type Outcome = Result<Option<u64>, String>;

/// Run `op` over constant `operands`, as built and again after
/// `OptConfig::standard()` has folded what it can; and whether the
/// optimized program still computes `op`.
fn unoptimized_and_optimized(
    operands: &[&ConstVal],
    ret: Ty,
    op: impl Fn(&[nir::Reg], nir::Reg) -> Instr,
) -> (Outcome, Outcome, bool) {
    let mut fb = FuncBuilder::new("f", vec![], Some(ret), FuncKind::Host);
    let mut regs = Vec::new();
    for v in operands {
        let r = fb.reg(load(v, 0).0);
        fb.emit(load(v, r).1);
        regs.push(r);
    }
    let dst = fb.reg(ret);
    fb.emit(op(&regs, dst));
    fb.emit(Instr::Ret(Some(dst)));
    let mut p = Program::default();
    p.entry = Some(p.add_func(fb.finish().unwrap()));
    let run = |p: &Program| -> Outcome {
        let mut m = exec::Machine::new();
        let bits = |v: exec::Val| match v {
            exec::Val::I32(x) => x as u32 as u64,
            exec::Val::I64(x) => x as u64,
            exec::Val::F32(x) => x.to_bits() as u64,
            exec::Val::F64(x) => x.to_bits(),
            exec::Val::Bool(x) => x as u64,
            other => panic!("not a primitive: {other:?}"),
        };
        match exec::run_to_completion(p, p.entry.unwrap(), vec![], &mut m) {
            Ok(v) => Ok(v.map(bits)),
            Err(e) => Err(e.message),
        }
    };
    let plain = run(&p);
    nir::optimize(&mut p, nir::OptConfig::standard());
    let kept = p.funcs[0]
        .code
        .iter()
        .any(|i| matches!(i, Instr::Bin { .. } | Instr::Cast { .. }));
    (plain, run(&p), kept)
}

const KINDS: [PrimKind; 5] = [
    PrimKind::Int,
    PrimKind::Long,
    PrimKind::Float,
    PrimKind::Double,
    PrimKind::Boolean,
];

/// The optimizer's constant folding changes no result: every operator on
/// every kind (the 58 pairs `exec` executes, and the others, which fail
/// alike) and every cast, over edge operands, returns the same bits, or
/// fails with the same message, whether it runs as built or folded under
/// `OptConfig::standard()`. An int or long division by zero stays a
/// run-time error, and everything that returns a value is folded away.
#[test]
fn constant_folding_changes_no_result() {
    use BinOp::*;
    let ops = [
        Add, Sub, Mul, Div, Rem, Lt, Le, Gt, Ge, Eq, Ne, And, Or, BitAnd, BitOr, BitXor, Shl, Shr,
    ];
    let mut values = 0;
    let mut unfolded = Vec::new();
    for kind in KINDS {
        let edges = edge_values(kind);
        for op in ops {
            let ret = if op.is_comparison() {
                Ty::Bool
            } else {
                Ty::of_prim(kind)
            };
            for a in &edges {
                for b in &edges {
                    let (plain, folded, kept) =
                        unoptimized_and_optimized(&[a, b], ret, |r, dst| Instr::Bin {
                            op,
                            kind,
                            dst,
                            lhs: r[0],
                            rhs: r[1],
                        });
                    assert_eq!(plain, folded, "{op:?} on {a:?}, {b:?}");
                    if kept != plain.is_err() {
                        unfolded.push(format!("{op:?} on {a:?}, {b:?}"));
                    }
                    values += usize::from(plain.is_ok());
                }
            }
        }
    }
    // The 58 pairs over 9, 10, 15, 15 and 2 edge values of each kind,
    // less the 38 integer divisions by zero.
    assert_eq!(values, 16 * 81 + 16 * 100 + 2 * 11 * 225 + 4 * 4 - 38);
    for from in KINDS {
        for to in KINDS {
            for v in edge_values(from) {
                let (plain, folded, kept) =
                    unoptimized_and_optimized(&[&v], Ty::of_prim(to), |r, dst| Instr::Cast {
                        to,
                        from,
                        dst,
                        src: r[0],
                    });
                assert_eq!(plain, folded, "({to:?}) {v:?}");
                if kept != plain.is_err() {
                    unfolded.push(format!("({to:?}) {v:?}"));
                }
            }
        }
    }
    assert!(unfolded.is_empty(), "left unfolded: {unfolded:?}");
}

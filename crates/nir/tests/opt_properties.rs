//! Property tests for the NIR optimizer: random straight-line programs
//! (with a conditional diamond) must compute the same result at every
//! optimization level, and the optimized program must never be larger
//! in retired instructions.
//!
//! Programs are generated by a deterministic xorshift PRNG so the suite
//! builds without external crates on offline hosts.

use jlang::ast::BinOp;
use jlang::types::PrimKind;
use nir::{FuncBuilder, FuncKind, Instr, OptConfig, Program, Reg, Ty};

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

    /// Uniform-ish value in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        lo + (self.next_u64() % (hi - lo) as u64) as i32
    }

    /// A literal from a pool of six, so that equal literals recur within
    /// a block, beside the hoisted loop constants and inside rotated loops.
    fn literal(&mut self) -> i32 {
        [-3, 0, 1, 2, 7, 9][self.below(6)]
    }
}

/// A random instruction recipe over int registers.
#[derive(Debug, Clone)]
enum Step {
    Const(i32),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Mov(usize),
}

fn random_step(rng: &mut Rng) -> Step {
    match rng.below(5) {
        0 => Step::Const(rng.literal()),
        1 => Step::Add(rng.below(1 << 16), rng.below(1 << 16)),
        2 => Step::Sub(rng.below(1 << 16), rng.below(1 << 16)),
        3 => Step::Mul(rng.below(1 << 16), rng.below(1 << 16)),
        _ => Step::Mov(rng.below(1 << 16)),
    }
}

fn random_steps(rng: &mut Rng, max_len: usize) -> Vec<Step> {
    let len = 1 + rng.below(max_len);
    (0..len).map(|_| random_step(rng)).collect()
}

/// Build a program from the recipe: a prologue of steps, a branch on
/// (last value > 0), two diamond arms, and a join returning the sum of
/// everything defined.
fn build(steps: &[Step]) -> Program {
    let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
    let mut defined: Vec<Reg> = vec![0]; // the parameter
    for s in steps {
        let pick = |i: &usize| defined[i % defined.len()];
        let r = fb.reg(Ty::I32);
        match s {
            Step::Const(v) => {
                fb.emit(Instr::ConstI32(r, *v));
            }
            Step::Add(a, b) => {
                fb.emit(Instr::Bin {
                    op: BinOp::Add,
                    kind: PrimKind::Int,
                    dst: r,
                    lhs: pick(a),
                    rhs: pick(b),
                });
            }
            Step::Sub(a, b) => {
                fb.emit(Instr::Bin {
                    op: BinOp::Sub,
                    kind: PrimKind::Int,
                    dst: r,
                    lhs: pick(a),
                    rhs: pick(b),
                });
            }
            Step::Mul(a, b) => {
                fb.emit(Instr::Bin {
                    op: BinOp::Mul,
                    kind: PrimKind::Int,
                    dst: r,
                    lhs: pick(a),
                    rhs: pick(b),
                });
            }
            Step::Mov(a) => {
                fb.emit(Instr::Mov(r, pick(a)));
            }
        }
        defined.push(r);
    }
    // Diamond: if last > 0 { acc = last*2 } else { acc = last - 7 }.
    let last = *defined.last().unwrap();
    let zero = fb.reg(Ty::I32);
    let cond = fb.reg(Ty::Bool);
    let acc = fb.reg(Ty::I32);
    let k = fb.reg(Ty::I32);
    fb.emit(Instr::ConstI32(zero, 0));
    fb.emit(Instr::Bin {
        op: BinOp::Gt,
        kind: PrimKind::Int,
        dst: cond,
        lhs: last,
        rhs: zero,
    });
    let t = fb.label();
    let e = fb.label();
    let join = fb.label();
    fb.br(cond, t, e);
    fb.bind(t);
    fb.emit(Instr::ConstI32(k, 2));
    fb.emit(Instr::Bin {
        op: BinOp::Mul,
        kind: PrimKind::Int,
        dst: acc,
        lhs: last,
        rhs: k,
    });
    fb.jmp(join);
    fb.bind(e);
    fb.emit(Instr::ConstI32(k, 7));
    fb.emit(Instr::Bin {
        op: BinOp::Sub,
        kind: PrimKind::Int,
        dst: acc,
        lhs: last,
        rhs: k,
    });
    fb.jmp(join);
    fb.bind(join);
    // Fold every defined register into the result so nothing is trivially
    // dead from the engine's point of view.
    let out = fb.reg(Ty::I32);
    fb.emit(Instr::Mov(out, acc));
    for d in defined.clone() {
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: out,
            lhs: out,
            rhs: d,
        });
    }
    fb.emit(Instr::Ret(Some(out)));
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    p.entry = Some(id);
    p.verify().unwrap();
    p
}

fn eval(p: &Program, arg: i32) -> (i32, u64) {
    let mut m = exec::Machine::new();
    let v =
        exec::run_to_completion(p, p.entry.unwrap(), vec![exec::Val::I32(arg)], &mut m).unwrap();
    match v {
        Some(exec::Val::I32(x)) => (x, m.counters.instrs),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn all_optimization_levels_agree() {
    let mut rng = Rng::new(0x0707_0001);
    for case in 0..64 {
        let steps = random_steps(&mut rng, 24);
        let arg = rng.range_i32(-100, 100);
        let base = build(&steps);
        let (want, base_instrs) = eval(&base, arg);
        for config in [OptConfig::standard(), OptConfig::aggressive()] {
            let mut p = build(&steps);
            nir::optimize(&mut p, config);
            p.verify().unwrap();
            let (got, opt_instrs) = eval(&p, arg);
            assert_eq!(got, want, "case {case}, config {config:?}");
            assert!(
                opt_instrs <= base_instrs,
                "case {case}: optimization must not add work: {base_instrs} -> {opt_instrs}"
            );
        }
    }
}

#[test]
fn optimizer_is_idempotent_on_random_programs() {
    let mut rng = Rng::new(0x0707_0002);
    for case in 0..64 {
        let steps = random_steps(&mut rng, 16);
        let mut p = build(&steps);
        nir::optimize(&mut p, OptConfig::aggressive());
        let once = format!("{p}");
        nir::optimize(&mut p, OptConfig::aggressive());
        assert_eq!(once, format!("{p}"), "case {case}");
    }
}

// ---------------------------------------------------------------------
// Inlining: seeded call DAGs, and the cost of one splice pass
// ---------------------------------------------------------------------

/// The preset's inline limit, and `aggressive()`'s.
const LIMIT: usize = 128;

fn preset() -> OptConfig {
    OptConfig {
        inline_limit: LIMIT,
        ..OptConfig::standard()
    }
}

/// A seeded call DAG of 2–8 int functions whose ids are a post-order
/// (every callee before its callers), as lowering assigns them. Each
/// function has 1–3 parameters, up to `LIMIT` steps that its final sum
/// keeps alive (so optimized sizes straddle the limit), up to two calls
/// to earlier functions, and up to three early returns before its last.
/// The last function is the entry.
fn call_dag(rng: &mut Rng) -> Program {
    let n = 2 + rng.below(7);
    let mut p = Program::default();
    let mut arity = Vec::new();
    for i in 0..n {
        let params = 1 + rng.below(3);
        let name = format!("f{i}");
        let mut fb = FuncBuilder::new(&name, vec![Ty::I32; params], Some(Ty::I32), FuncKind::Host);
        let mut defined: Vec<Reg> = (0..params as Reg).collect();
        let steps = rng.below(LIMIT);
        let calls: Vec<usize> = (0..rng.below(3)).map(|_| rng.below(steps + 1)).collect();
        let exits: Vec<usize> = (0..rng.below(4)).map(|_| rng.below(steps + 1)).collect();
        let zero = fb.reg(Ty::I32);
        fb.emit(Instr::ConstI32(zero, 0));
        for s in 0..=steps {
            let pick = |rng: &mut Rng, defined: &[Reg]| defined[rng.below(defined.len())];
            for _ in calls.iter().filter(|&&c| c == s && i > 0) {
                let callee = rng.below(i);
                let args = (0..arity[callee]).map(|_| pick(rng, &defined)).collect();
                let r = fb.reg(Ty::I32);
                fb.emit(Instr::Call {
                    func: nir::FuncId(callee as u32),
                    args,
                    dst: Some(r),
                });
                defined.push(r);
            }
            for _ in exits.iter().filter(|&&e| e == s) {
                let (cond, ret, rest) = (fb.reg(Ty::Bool), fb.label(), fb.label());
                fb.emit(Instr::Bin {
                    op: BinOp::Gt,
                    kind: PrimKind::Int,
                    dst: cond,
                    lhs: pick(rng, &defined),
                    rhs: zero,
                });
                fb.br(cond, ret, rest);
                fb.bind(ret);
                fb.emit(Instr::Ret(Some(pick(rng, &defined))));
                fb.bind(rest);
            }
            let r = fb.reg(Ty::I32);
            let (lhs, rhs) = (pick(rng, &defined), pick(rng, &defined));
            fb.emit(match rng.below(4) {
                0 => Instr::ConstI32(r, rng.literal()),
                1 => Instr::Mov(r, lhs),
                _ => Instr::Bin {
                    op: [BinOp::Add, BinOp::Sub, BinOp::Mul][rng.below(3)],
                    kind: PrimKind::Int,
                    dst: r,
                    lhs,
                    rhs,
                },
            });
            defined.push(r);
        }
        let out = fb.reg(Ty::I32);
        fb.emit(Instr::ConstI32(out, 0));
        for d in defined {
            fb.emit(Instr::Bin {
                op: BinOp::Add,
                kind: PrimKind::Int,
                dst: out,
                lhs: out,
                rhs: d,
            });
        }
        fb.emit(Instr::Ret(Some(out)));
        arity.push(params);
        p.entry = Some(p.add_func(fb.finish().unwrap()));
    }
    p.verify().unwrap();
    p
}

/// `(result, retired instructions, cycles)` of the entry on `args`.
fn run_entry(p: &Program, args: &[i32]) -> (i32, u64, u64) {
    let entry = p.entry.unwrap();
    let params = p.funcs[entry.0 as usize].params.len();
    let args = args[..params].iter().map(|&a| exec::Val::I32(a)).collect();
    let mut m = exec::Machine::new();
    match exec::run_to_completion(p, entry, args, &mut m).unwrap() {
        Some(exec::Val::I32(x)) => (x, m.counters.instrs, m.counters.cycles),
        other => panic!("unexpected {other:?}"),
    }
}

/// Every level computes the entry's result and retires no more
/// instructions, nor costs more cycles, than the unoptimized program;
/// splicing alone (no local pass) is among the levels. A splice itself
/// never retires more than the `Call` and `Ret` it replaces. The preset
/// is *not* always below `standard()`: a splice adds block boundaries,
/// and a constant that local folding knew before a spliced callee is
/// unknown after it, so a caller can keep a fold's worth of work.
#[test]
fn inlining_agrees_on_seeded_call_dags() {
    let mut rng = Rng::new(0x0707_0031);
    let (mut small, mut large) = (0, 0);
    let splice_only = OptConfig {
        inline_limit: LIMIT,
        ..OptConfig::none()
    };
    for case in 0..96 {
        let base = call_dag(&mut rng);
        let args = [0; 3].map(|_| rng.range_i32(-20, 20));
        let (want, instrs, cycles) = run_entry(&base, &args);
        for config in [
            splice_only,
            OptConfig::standard(),
            preset(),
            OptConfig::aggressive(),
        ] {
            let mut p = base.clone();
            nir::optimize(&mut p, config);
            p.verify().unwrap();
            let (got, i, c) = run_entry(&p, &args);
            assert_eq!(got, want, "case {case}, config {config:?}");
            assert!(
                i <= instrs && c <= cycles,
                "case {case}, config {config:?}: ({instrs}, {cycles}) -> ({i}, {c})"
            );
            if config == preset() {
                let callees = &p.funcs[..p.funcs.len() - 1];
                small += callees.iter().filter(|f| f.code.len() <= LIMIT).count();
                large += callees.iter().filter(|f| f.code.len() > LIMIT).count();
            }
        }
    }
    // The generator reaches both sides of the limit.
    assert!(
        small > 0 && large > 0,
        "{small} callees under the limit, {large} over"
    );
}

/// A call to a later function, or to the caller itself, is never
/// spliced: only earlier functions are final when a function's step runs.
#[test]
fn only_earlier_functions_are_spliced() {
    let tiny = |name: &str| {
        let mut fb = FuncBuilder::new(name, vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let r = fb.reg(Ty::I32);
        fb.emit(Instr::Call {
            func: nir::FuncId(1),
            args: vec![0],
            dst: Some(r),
        });
        fb.emit(Instr::Ret(Some(r)));
        fb.finish().unwrap()
    };
    let mut p = Program::default();
    p.add_func(tiny("calls_later"));
    p.add_func(tiny("calls_itself"));
    let mut standard = p.clone();
    nir::optimize(&mut p, preset());
    nir::optimize(&mut standard, OptConfig::standard());
    for (f, want) in p.funcs.iter().zip(&standard.funcs) {
        assert_eq!(f.code, want.code, "{} spliced a call it cannot", f.name);
    }
}

/// One caller with many call sites of a small callee: the splice pass
/// computes every new pc once and remaps every branch once, so 8× the
/// sites takes ≈8× the time. Splicing one site at a time, rescanning and
/// remapping the whole caller, takes 64×. Same bar as `fold_is_linear`.
#[test]
fn inline_is_linear() {
    let program = |sites: u32| {
        let mut p = Program::default();
        let mut cb = FuncBuilder::new("inc", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let (one, r) = (cb.reg(Ty::I32), cb.reg(Ty::I32));
        cb.emit(Instr::ConstI32(one, 1));
        cb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Int,
            dst: r,
            lhs: 0,
            rhs: one,
        });
        cb.emit(Instr::Ret(Some(r)));
        let inc = p.add_func(cb.finish().unwrap());
        let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let mut prev = 0;
        for _ in 0..sites {
            let r = fb.reg(Ty::I32);
            fb.emit(Instr::Call {
                func: inc,
                args: vec![prev],
                dst: Some(r),
            });
            prev = r;
        }
        fb.emit(Instr::Ret(Some(prev)));
        p.add_func(fb.finish().unwrap());
        p
    };
    let best_of_3 = |p: &Program| {
        (0..3)
            .map(|_| {
                let mut p = p.clone();
                let profile = nir::optimize(
                    &mut p,
                    OptConfig {
                        inline_limit: LIMIT,
                        ..OptConfig::none()
                    },
                );
                assert!(!p.funcs[1]
                    .code
                    .iter()
                    .any(|i| matches!(i, Instr::Call { .. })));
                assert_eq!(profile[0].pass, "inline");
                profile[0].wall
            })
            .min()
            .unwrap()
    };
    let small = best_of_3(&program(4_000));
    let large = best_of_3(&program(32_000));
    assert!(
        large < small * 24,
        "inline took {small:?} on 4k call sites and {large:?} on 32k"
    );
}

// ---------------------------------------------------------------------
// Loop cleanup: seeded loop programs, jump cycles, and the cost of it
// ---------------------------------------------------------------------

/// Builds one seeded loop program's entry function `f(x)`: counted loops
/// nested up to three deep, some of them zero-trip, whose bodies load
/// literals, update through a temporary (`t = op …; x = t`, also with the
/// last move at a join), branch to jumps, leave the body early, print,
/// call the small function `g` and mix float and int zeros. Some read a
/// register before anything wrote it, as a program that fails does;
/// every level must fail alike. For the loop rewrites, bodies also
/// compute invariant arithmetic (on `x`, on an outer loop's induction
/// variable, on a register nothing writes), repeat a subexpression in one
/// block (with an operand or the first result rewritten in between, or
/// not), divide by an invariant zero in zero- and one-trip loops, and
/// store ahead of an invariant instruction; and some headers print.
struct LoopGen<'a> {
    rng: &'a mut Rng,
    fb: FuncBuilder,
    acc: Reg,
    g: nir::FuncId,
    /// An int zero and a four-element int array, both defined before
    /// the first loop.
    zero: Reg,
    arr: Reg,
    /// Registers zeroed before the first loop, which steps read before
    /// they write them: every register is written before it is read, as
    /// the verifier requires, but not where the loop writes it.
    spare: [Reg; 4],
}

impl LoopGen<'_> {
    fn bin(&mut self, op: BinOp, dst: Reg, lhs: Reg, rhs: Reg) {
        self.fb.emit(Instr::Bin {
            op,
            kind: PrimKind::Int,
            dst,
            lhs,
            rhs,
        });
    }

    /// `t = acc op rhs; acc = t` — the update coalescing rewrites.
    fn update(&mut self, op: BinOp, rhs: Reg) -> Reg {
        let t = self.fb.reg(Ty::I32);
        self.bin(op, t, self.acc, rhs);
        self.fb.emit(Instr::Mov(self.acc, t));
        t
    }

    fn literal(&mut self) -> Reg {
        let k = self.fb.reg(Ty::I32);
        let v = self.rng.literal();
        self.fb.emit(Instr::ConstI32(k, v));
        k
    }

    /// A loop counting `i` up to 0–3, inside the loop that counts
    /// `outer` (`x` at the top level).
    fn counted_loop(&mut self, depth: usize, outer: Reg) {
        let (i, n, c) = (
            self.fb.reg(Ty::I32),
            self.fb.reg(Ty::I32),
            self.fb.reg(Ty::Bool),
        );
        self.fb.emit(Instr::ConstI32(i, 0));
        // Zero trips a quarter of the time.
        let trips = self.rng.below(4) as i32;
        self.fb.emit(Instr::ConstI32(n, trips));
        let (head, body, latch, exit) = (
            self.fb.label(),
            self.fb.label(),
            self.fb.label(),
            self.fb.label(),
        );
        self.fb.bind(head);
        if self.rng.below(8) == 0 {
            self.print(i);
        }
        self.bin(BinOp::Lt, c, i, n);
        self.fb.br(c, body, exit);
        self.fb.bind(body);
        // Now and then a literal the loop defines and only the code after
        // it reads: a zero-trip loop leaves the value from before it.
        let carried = (self.rng.below(8) == 0).then(|| {
            let k = self.spare();
            let v = self.rng.range_i32(-9, 10);
            self.fb.emit(Instr::ConstI32(k, v));
            k
        });
        for _ in 0..1 + self.rng.below(4) {
            self.step(depth, i, outer, trips, latch);
        }
        self.fb.bind(latch);
        // The induction update through a temporary, its `1` a literal.
        let one = self.fb.reg(Ty::I32);
        self.fb.emit(Instr::ConstI32(one, 1));
        let t = self.fb.reg(Ty::I32);
        self.bin(BinOp::Add, t, i, one);
        self.fb.emit(Instr::Mov(i, t));
        if self.rng.below(2) == 0 {
            // The back edge through a jump to the next instruction.
            let hop = self.fb.label();
            self.fb.jmp(hop);
            self.fb.bind(hop);
        }
        self.fb.jmp(head);
        self.fb.bind(exit);
        if let Some(k) = carried {
            self.update(BinOp::Add, k);
        }
    }

    fn spare(&mut self) -> Reg {
        self.spare[self.rng.below(self.spare.len())]
    }

    fn print(&mut self, r: Reg) {
        self.fb.emit(Instr::Intrin {
            op: nir::IntrinOp::PrintI32,
            args: vec![r],
            dst: None,
        });
    }

    fn step(&mut self, depth: usize, i: Reg, outer: Reg, trips: i32, latch: nir::Label) {
        match self.rng.below(17) {
            0 | 1 => {
                let k = self.literal();
                let op = [BinOp::Add, BinOp::Mul, BinOp::Sub, BinOp::BitXor][self.rng.below(4)];
                self.update(op, k);
            }
            2 => {
                self.update(BinOp::Add, i);
            }
            3 => {
                // A temporary read twice: its move must stay.
                let k = self.literal();
                let t = self.update(BinOp::Mul, k);
                self.update(BinOp::Add, t);
            }
            4 => self.print(self.acc),
            5 if depth < 2 => self.counted_loop(depth + 1, i),
            5 | 6 => {
                // A diamond whose arms may leave for the latch (a branch to
                // a jump, and a jump past live code).
                let (c, k) = (self.fb.reg(Ty::Bool), self.literal());
                self.bin(BinOp::Lt, c, self.acc, k);
                let (then, other, join) = (self.fb.label(), self.fb.label(), self.fb.label());
                self.fb.br(c, then, other);
                self.fb.bind(then);
                if self.rng.below(2) == 0 {
                    self.fb.jmp(latch);
                } else {
                    let k = self.literal();
                    self.update(BinOp::Add, k);
                    self.fb.jmp(join);
                }
                self.fb.bind(other);
                let k = self.literal();
                self.update(BinOp::Sub, k);
                self.fb.bind(join);
            }
            7 => {
                // One register given two literals in turn.
                let k = self.fb.reg(Ty::I32);
                let (a, b) = (self.rng.range_i32(1, 9), self.rng.range_i32(1, 9));
                self.fb.emit(Instr::ConstI32(k, a));
                self.update(BinOp::Add, k);
                self.fb.emit(Instr::ConstI32(k, b));
                self.update(BinOp::Mul, k);
            }
            8 => {
                let t = self.fb.reg(Ty::I32);
                self.fb.emit(Instr::Call {
                    func: self.g,
                    args: vec![self.acc],
                    dst: Some(t),
                });
                self.fb.emit(Instr::Mov(self.acc, t));
            }
            9 => {
                // An int zero and a float zero: equal bits, other kinds.
                let (zi, zf) = (self.fb.reg(Ty::I32), self.fb.reg(Ty::F32));
                let (fa, fs) = (self.fb.reg(Ty::F32), self.fb.reg(Ty::F32));
                self.fb.emit(Instr::ConstI32(zi, 0));
                self.fb.emit(Instr::ConstF32(zf, 0.0));
                self.update(BinOp::Add, zi);
                self.fb.emit(Instr::Cast {
                    to: PrimKind::Float,
                    from: PrimKind::Int,
                    dst: fa,
                    src: self.acc,
                });
                self.fb.emit(Instr::Bin {
                    op: BinOp::Add,
                    kind: PrimKind::Float,
                    dst: fs,
                    lhs: fa,
                    rhs: zf,
                });
                self.fb.emit(Instr::Cast {
                    to: PrimKind::Int,
                    from: PrimKind::Float,
                    dst: self.acc,
                    src: fs,
                });
            }
            10 if self.rng.below(4) == 0 => {
                // A literal read before the loop defines it: the first
                // iteration reads the value from before the loop.
                let k = self.spare();
                self.update(BinOp::Add, k);
                self.fb.emit(Instr::ConstI32(k, 3));
            }
            11 => {
                // An update whose last move sits at a join: the path that
                // skips the update still runs `acc = u`, `u` as it was.
                let (c, k) = (self.fb.reg(Ty::Bool), self.literal());
                let u = self.spare();
                self.bin(BinOp::Gt, c, self.acc, k);
                let (update, join) = (self.fb.label(), self.fb.label());
                self.fb.br(c, update, join);
                self.fb.bind(update);
                let t = self.fb.reg(Ty::I32);
                self.bin(BinOp::Mul, t, self.acc, k);
                self.fb.emit(Instr::Mov(u, t));
                self.fb.bind(join);
                self.fb.emit(Instr::Mov(self.acc, u));
            }
            13 => {
                // Arithmetic on `x`, on the outer induction variable, on
                // this loop's (not invariant), or now and then on a
                // register only the code before the loop writes.
                let r = match self.rng.below(16) {
                    0 => self.spare(),
                    1..=5 => 0,
                    6..=10 => outer,
                    _ => i,
                };
                let (k, t) = (self.literal(), self.fb.reg(Ty::I32));
                let op = [BinOp::Mul, BinOp::Sub, BinOp::Shl][self.rng.below(3)];
                self.bin(op, t, r, k);
                self.update(BinOp::Add, t);
            }
            14 => {
                // `acc & p` twice in one block; in between, maybe `acc` or
                // the first result is rewritten.
                let p = if self.rng.below(2) == 0 {
                    0
                } else {
                    self.literal()
                };
                let (u, v) = (self.fb.reg(Ty::I32), self.fb.reg(Ty::I32));
                self.bin(BinOp::BitAnd, u, self.acc, p);
                match self.rng.below(3) {
                    0 => {
                        let k = self.literal();
                        self.update(BinOp::Add, k);
                    }
                    1 => {
                        let k = self.literal();
                        self.bin(BinOp::Add, u, u, k);
                    }
                    _ => {}
                }
                self.bin(BinOp::BitAnd, v, self.acc, p);
                let t = self.fb.reg(Ty::I32);
                self.bin(BinOp::Add, t, u, v);
                self.update(BinOp::Add, t);
            }
            15 if trips <= 1 && self.rng.below(2) == 0 => {
                // Division by an invariant zero: a zero-trip loop never
                // divides, a one-trip loop fails where it divides.
                let q = self.fb.reg(Ty::I32);
                self.bin(BinOp::Div, q, 0, self.zero);
                self.update(BinOp::Add, q);
            }
            16 => {
                // A store, then an invariant product.
                self.fb.emit(Instr::StArr {
                    arr: self.arr,
                    idx: self.zero,
                    src: self.acc,
                });
                let (k, t) = (self.literal(), self.fb.reg(Ty::I32));
                self.bin(BinOp::Mul, t, 0, k);
                self.update(BinOp::Add, t);
            }
            _ => {
                let k = self.literal();
                self.update(BinOp::Add, k);
            }
        }
    }
}

/// A seeded loop program: `g(a) = a * k + 1` and the entry `f(x)`, one or
/// two top-level loops over `acc = x`, `return acc`, then an unreachable
/// tail holding a literal, a print and a two-jump cycle.
fn loop_program(rng: &mut Rng) -> Program {
    let mut p = Program::default();
    let mut gb = FuncBuilder::new("g", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
    let (k, t, one, r) = (
        gb.reg(Ty::I32),
        gb.reg(Ty::I32),
        gb.reg(Ty::I32),
        gb.reg(Ty::I32),
    );
    gb.emit(Instr::ConstI32(k, rng.range_i32(2, 5)));
    gb.emit(Instr::Bin {
        op: BinOp::Mul,
        kind: PrimKind::Int,
        dst: t,
        lhs: 0,
        rhs: k,
    });
    gb.emit(Instr::ConstI32(one, 1));
    gb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Int,
        dst: r,
        lhs: t,
        rhs: one,
    });
    gb.emit(Instr::Ret(Some(r)));
    let g = p.add_func(gb.finish().unwrap());

    let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
    let (acc, zero, four) = (fb.reg(Ty::I32), fb.reg(Ty::I32), fb.reg(Ty::I32));
    let arr = fb.reg(Ty::Arr(nir::ElemTy::I32));
    let spare = [(); 4].map(|_| fb.reg(Ty::I32));
    for r in spare {
        fb.emit(Instr::ConstI32(r, 0));
    }
    fb.emit(Instr::Mov(acc, 0));
    fb.emit(Instr::ConstI32(zero, 0));
    fb.emit(Instr::ConstI32(four, 4));
    fb.emit(Instr::NewArr {
        elem: nir::ElemTy::I32,
        len: four,
        dst: arr,
    });
    let mut gen = LoopGen {
        rng,
        fb,
        acc,
        g,
        zero,
        arr,
        spare,
    };
    for _ in 0..1 + gen.rng.below(2) {
        gen.counted_loop(0, 0);
    }
    let mut fb = gen.fb;
    fb.emit(Instr::Ret(Some(acc)));
    let (tail, a, b) = (fb.label(), fb.label(), fb.label());
    fb.bind(tail);
    let junk = fb.reg(Ty::I32);
    fb.emit(Instr::ConstI32(junk, 99));
    fb.emit(Instr::Intrin {
        op: nir::IntrinOp::PrintI32,
        args: vec![junk],
        dst: None,
    });
    fb.bind(a);
    fb.jmp(b);
    fb.bind(b);
    fb.jmp(a);
    p.entry = Some(p.add_func(fb.finish().unwrap()));
    p.verify().unwrap();
    p
}

/// What a run shows: the entry's result, or why it failed (not where:
/// optimization moves pcs), and what it printed; and the instructions it
/// retired. A run that has not finished within a million instructions
/// (the generated programs retire a few hundred) fails as "out of fuel",
/// so a rewrite that spins fails its test instead of hanging it.
type Observed = (Result<Option<exec::Val>, String>, Vec<String>);

fn observe(p: &Program, arg: i32) -> (Observed, u64) {
    let mut m = exec::Machine::new();
    let mut run = || {
        let image = exec::Image::build(p)?;
        let mut thread = exec::Thread::new(p, p.entry.unwrap(), &[exec::Val::I32(arg)])?;
        match exec::run(&mut thread, &image, &mut m, 1 << 20)? {
            exec::Yield::Done(v) => Ok(v),
            other => Err(exec::ExecError::msg(format!("stopped: {other:?}"))),
        }
    };
    let result = run();
    ((result.map_err(|e| e.message), m.output), m.counters.instrs)
}

/// Which loop rewrites `opt` shows, optimized from `base` under
/// `standard()`: common subexpressions (fewer `BitAnd`s, which only the
/// generator's repeated subexpression uses), rotation (a branch back),
/// and hoisting (a preheader: instructions between a guard `Br` that
/// falls into them and the body its loop branches back to, both with
/// the same exit).
fn rewrites(base: &nir::Function, opt: &nir::Function) -> [bool; 3] {
    let ands = |f: &nir::Function| {
        f.code
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::Bin {
                        op: BinOp::BitAnd,
                        ..
                    }
                )
            })
            .count()
    };
    let backs: Vec<(usize, u32, u32)> = (opt.code.iter().enumerate())
        .filter_map(|(pc, ins)| match *ins {
            Instr::Br { t, f, .. } if (t as usize) <= pc => Some((pc, t, f)),
            _ => None,
        })
        .collect();
    let hoisted = backs.iter().any(|&(_, body, exit)| {
        opt.code[..body as usize].iter().enumerate().any(|(pc, ins)| {
            matches!(*ins, Instr::Br { t, f, .. } if t as usize == pc + 1 && t < body && f == exit)
        })
    });
    [ands(opt) < ands(base), !backs.is_empty(), hoisted]
}

/// Every level computes what the unoptimized program computes, prints
/// what it prints, and fails where it fails, on nested, zero-trip and
/// early-leaving loops; and optimizing the result again changes nothing.
#[test]
fn loop_cleanup_agrees_on_seeded_loop_programs() {
    let mut rng = Rng::new(0x0707_0041);
    let (mut base_instrs, mut opt_instrs, mut failing) = (0, 0, 0);
    let mut fired = [0; 3];
    for case in 0..256 {
        let base = loop_program(&mut rng);
        let arg = rng.range_i32(-5, 6);
        let (want, instrs) = observe(&base, arg);
        failing += usize::from(!matches!(want.0, Ok(Some(exec::Val::I32(_)))));
        for config in [OptConfig::standard(), preset(), OptConfig::aggressive()] {
            let mut p = base.clone();
            nir::optimize(&mut p, config);
            p.verify()
                .unwrap_or_else(|e| panic!("case {case}, {config:?}: {e}\n{p}"));
            let (got, i) = observe(&p, arg);
            assert_eq!(got, want, "case {case}, config {config:?}:\n{base}\n{p}");
            // A second run finds nothing left to clean.
            let once = format!("{p}");
            nir::optimize(&mut p, config);
            assert_eq!(
                once,
                format!("{p}"),
                "case {case}, {config:?}: not idempotent"
            );
            if config == OptConfig::standard() {
                base_instrs += instrs;
                opt_instrs += i;
                let entry = |p: &Program| p.funcs[p.entry.unwrap().0 as usize].clone();
                for (n, hit) in fired.iter_mut().zip(rewrites(&entry(&base), &entry(&p))) {
                    *n += usize::from(hit);
                }
            }
        }
    }
    // The generator reaches programs that fail, and most run clean; and
    // it reaches each loop rewrite.
    assert!((1..64).contains(&failing), "{failing} of 256 programs fail");
    let [cse, rotated, hoisted] = fired;
    assert!(
        cse > 0 && rotated > 0 && hoisted > 0,
        "CSE fired in {cse} programs, rotation in {rotated}, hoisting in {hoisted}"
    );
    assert!(
        opt_instrs * 5 < base_instrs * 4,
        "loop cleanup retired {opt_instrs} of {base_instrs} instructions"
    );
}

/// Jump threading follows a bounded number of jumps, so a cycle of
/// jumps (reachable or not) cannot hang the optimizer.
#[test]
fn jump_cycles_terminate() {
    let cycle = |entry_jumps: bool| {
        let mut fb = FuncBuilder::new("spin", vec![Ty::Bool], None, FuncKind::Host);
        let (a, b, out) = (fb.label(), fb.label(), fb.label());
        if entry_jumps {
            fb.br(0, a, out);
        } else {
            fb.emit(Instr::Ret(None));
        }
        fb.bind(a);
        fb.jmp(b);
        fb.bind(b);
        fb.jmp(a);
        fb.bind(out);
        fb.emit(Instr::Ret(None));
        let mut p = Program::default();
        p.add_func(fb.finish().unwrap());
        p
    };
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for entry_jumps in [false, true] {
            let mut p = cycle(entry_jumps);
            nir::optimize(&mut p, OptConfig::aggressive());
            p.verify().unwrap();
        }
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("the optimizer must terminate on a cycle of jumps");
}

/// Many small loops, each a header, a body that loads two literals and
/// updates through temporaries, and an exit: 8x the blocks takes about 8x
/// the fold-and-cleanup time. Same bar as `fold_is_linear`.
#[test]
fn cleanup_is_linear() {
    let function = |blocks: u32| {
        let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let acc = fb.reg(Ty::I32);
        fb.emit(Instr::Mov(acc, 0));
        for _ in 0..blocks / 3 {
            let r: Vec<Reg> = (0..6).map(|_| fb.reg(Ty::I32)).collect();
            let (i, n, k, one, t, u) = (r[0], r[1], r[2], r[3], r[4], r[5]);
            let c = fb.reg(Ty::Bool);
            let (head, body, exit) = (fb.label(), fb.label(), fb.label());
            fb.emit(Instr::ConstI32(i, 0));
            fb.emit(Instr::ConstI32(n, 2));
            fb.bind(head);
            fb.emit(Instr::Bin {
                op: BinOp::Lt,
                kind: PrimKind::Int,
                dst: c,
                lhs: i,
                rhs: n,
            });
            fb.br(c, body, exit);
            fb.bind(body);
            fb.emit(Instr::ConstI32(k, 3));
            fb.emit(Instr::Bin {
                op: BinOp::Add,
                kind: PrimKind::Int,
                dst: t,
                lhs: acc,
                rhs: k,
            });
            fb.emit(Instr::Mov(acc, t));
            fb.emit(Instr::ConstI32(one, 1));
            fb.emit(Instr::Bin {
                op: BinOp::Add,
                kind: PrimKind::Int,
                dst: u,
                lhs: i,
                rhs: one,
            });
            fb.emit(Instr::Mov(i, u));
            fb.jmp(head);
            fb.bind(exit);
        }
        fb.emit(Instr::Ret(Some(acc)));
        fb.finish().unwrap()
    };
    let best_of_3 = |f: &nir::Function| {
        (0..3)
            .map(|_| {
                let mut p = Program::default();
                p.add_func(f.clone());
                let profile = nir::optimize(&mut p, OptConfig::standard());
                // Both literals of every loop went to the prefix, and every
                // update lost its move.
                assert!(matches!(p.funcs[0].code[0], Instr::ConstI32(_, 3)));
                assert!(!p.funcs[0]
                    .code
                    .iter()
                    .any(|i| matches!(i, Instr::Mov(d, _) if *d != 1)));
                profile
                    .iter()
                    .map(|pass| pass.wall)
                    .sum::<std::time::Duration>()
            })
            .min()
            .unwrap()
    };
    let small = best_of_3(&function(4_000));
    let large = best_of_3(&function(32_000));
    assert!(
        large < small * 24,
        "fold and dce took {small:?} on 4k loop blocks and {large:?} on 32k"
    );
}

// ---------------------------------------------------------------------
// Loop rewrites: each safety rule against the program it protects
// ---------------------------------------------------------------------

/// `f(x)`: `acc = 0; zero = 0; for (i = 0; i < trips; i++) { body }`,
/// then `return acc`. `body` gets the builder, `i` and `acc`, and emits
/// the body's entry block (and more, if it branches).
fn counted(trips: i32, body: impl FnOnce(&mut FuncBuilder, Reg, Reg)) -> Program {
    let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
    let r: Vec<Reg> = (0..4).map(|_| fb.reg(Ty::I32)).collect();
    let (acc, i, n, one, c) = (r[0], r[1], r[2], r[3], fb.reg(Ty::Bool));
    fb.emit(Instr::ConstI32(acc, 0));
    fb.emit(Instr::ConstI32(i, 0));
    fb.emit(Instr::ConstI32(n, trips));
    fb.emit(Instr::ConstI32(one, 1));
    let (head, entry, exit) = (fb.label(), fb.label(), fb.label());
    fb.bind(head);
    fb.emit(int(BinOp::Lt, c, i, n));
    fb.br(c, entry, exit);
    fb.bind(entry);
    body(&mut fb, i, acc);
    fb.emit(int(BinOp::Add, i, i, one));
    fb.jmp(head);
    fb.bind(exit);
    fb.emit(Instr::Ret(Some(acc)));
    let mut p = Program::default();
    p.entry = Some(p.add_func(fb.finish().unwrap()));
    p.verify().unwrap();
    p
}

fn int(op: BinOp, dst: Reg, lhs: Reg, rhs: Reg) -> Instr {
    Instr::Bin {
        op,
        kind: PrimKind::Int,
        dst,
        lhs,
        rhs,
    }
}

/// `standard()` leaves what `p` shows on `x` as it was, and rotates its
/// loop when `rotates` says so.
fn assert_rewrites_agree(p: &Program, x: i32, rotates: bool, what: &str) {
    let (want, _) = observe(p, x);
    let mut opt = p.clone();
    nir::optimize(&mut opt, OptConfig::standard());
    opt.verify().unwrap();
    let (got, _) = observe(&opt, x);
    assert_eq!(got, want, "{what}:\n{p}\n{opt}");
    let f = &opt.funcs[0];
    let rotated = (f.code.iter().enumerate())
        .any(|(pc, ins)| matches!(*ins, Instr::Br { t, .. } if t as usize <= pc));
    assert_eq!(rotated, rotates, "{what}: rotated\n{opt}");
}

/// An int remainder by an invariant zero stays in the body. Hoisted, it
/// would fail first, with its own error, ahead of the body's earlier
/// division by the induction variable, which is 0 on the first trip
/// (caught: a scratch mutant that let `Div`/`Rem` hoist).
#[test]
fn a_hoisted_instruction_cannot_fail() {
    let p = counted(1, |fb, i, acc| {
        let (zero, w, q) = (fb.reg(Ty::I32), fb.reg(Ty::I32), fb.reg(Ty::I32));
        fb.emit(Instr::ConstI32(zero, 0));
        fb.emit(int(BinOp::Div, w, acc, i));
        fb.emit(int(BinOp::Add, acc, acc, w));
        fb.emit(int(BinOp::Rem, q, 0, zero));
        fb.emit(int(BinOp::Add, acc, acc, q));
    });
    let (want, _) = observe(&p, 7);
    assert_eq!(want.0, Err("division by zero".to_string()));
    assert_rewrites_agree(&p, 7, true, "failing read, then a division by zero");
}

/// `i * x` is not invariant, however pure (caught: a scratch mutant that
/// dropped the operand check); `x * x` is, and hoists.
#[test]
fn hoisting_needs_operands_the_loop_does_not_write() {
    let p = counted(3, |fb, i, acc| {
        let (s, t) = (fb.reg(Ty::I32), fb.reg(Ty::I32));
        fb.emit(int(BinOp::Mul, s, 0, 0));
        fb.emit(int(BinOp::Mul, t, i, 0));
        fb.emit(int(BinOp::Add, acc, acc, s));
        fb.emit(int(BinOp::Add, acc, acc, t));
    });
    assert_rewrites_agree(&p, 5, true, "an induction-variable product");
    let mut opt = p.clone();
    nir::optimize(&mut opt, OptConfig::standard());
    let muls = |f: &nir::Function| {
        let back = (f.code.iter().enumerate())
            .find_map(|(pc, i)| matches!(*i, Instr::Br { t, .. } if t as usize <= pc).then_some(pc))
            .unwrap();
        let Instr::Br { t: body, .. } = f.code[back] else {
            unreachable!()
        };
        (f.code[body as usize..=back].iter())
            .filter(|i| matches!(i, Instr::Bin { op: BinOp::Mul, .. }))
            .count()
    };
    assert_eq!(muls(&opt.funcs[0]), 1, "only `x * x` hoists:\n{opt}");
}

/// `t` is read before the body writes it, so the first iteration reads
/// the value from before the loop (caught: a scratch mutant that dropped
/// the same-block rule for the destination).
#[test]
fn hoisting_needs_a_block_local_destination() {
    let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
    let r: Vec<Reg> = (0..5).map(|_| fb.reg(Ty::I32)).collect();
    let (acc, i, n, one, t, c) = (r[0], r[1], r[2], r[3], r[4], fb.reg(Ty::Bool));
    fb.emit(Instr::ConstI32(acc, 0));
    fb.emit(Instr::ConstI32(i, 0));
    fb.emit(Instr::ConstI32(n, 2));
    fb.emit(Instr::ConstI32(one, 1));
    fb.emit(Instr::ConstI32(t, 1));
    let (head, body, exit) = (fb.label(), fb.label(), fb.label());
    fb.bind(head);
    fb.emit(int(BinOp::Lt, c, i, n));
    fb.br(c, body, exit);
    fb.bind(body);
    fb.emit(int(BinOp::Add, acc, acc, t));
    fb.emit(int(BinOp::Mul, t, 0, 0));
    fb.emit(int(BinOp::Add, i, i, one));
    fb.jmp(head);
    fb.bind(exit);
    fb.emit(Instr::Ret(Some(acc)));
    let mut p = Program::default();
    p.entry = Some(p.add_func(fb.finish().unwrap()));
    assert_eq!(observe(&p, 3).0 .0, Ok(Some(exec::Val::I32(10))));
    assert_rewrites_agree(&p, 3, true, "a read before the body's write");
}

/// A print ahead of an invariant instruction that stops the run keeps it
/// in the body: the program prints, then stops. The instruction is a
/// CUDA coordinate read, pure and operand-free, which a host machine
/// cannot answer (caught: a scratch mutant that hoisted past side
/// effects).
#[test]
fn nothing_effectful_precedes_a_hoisted_instruction() {
    let p = counted(1, |fb, _, acc| {
        let t = fb.reg(Ty::I32);
        fb.emit(Instr::Intrin {
            op: nir::IntrinOp::PrintI32,
            args: vec![acc],
            dst: None,
        });
        fb.emit(Instr::Intrin {
            op: nir::IntrinOp::ThreadIdx(0),
            args: vec![],
            dst: Some(t),
        });
        fb.emit(int(BinOp::Add, acc, acc, t));
    });
    let (want, _) = observe(&p, 2);
    assert_eq!(want.1.len(), 1, "the original prints before it stops");
    assert!(want.0.is_err(), "{want:?}");
    assert_rewrites_agree(&p, 2, true, "a print, then a failing product");
}

/// A remembered `a * b` is forgotten when `a` is written (caught: a
/// scratch mutant that skipped the operand check) or when the register
/// holding it is (caught: one that skipped the holder check).
#[test]
fn cse_forgets_values_whose_holder_or_operand_is_written() {
    for rewrite_operand in [true, false] {
        let mut fb = FuncBuilder::new("f", vec![Ty::I32, Ty::I32], Some(Ty::I32), FuncKind::Host);
        let (u, v, r) = (fb.reg(Ty::I32), fb.reg(Ty::I32), fb.reg(Ty::I32));
        fb.emit(int(BinOp::Mul, u, 0, 1));
        if rewrite_operand {
            fb.emit(int(BinOp::Add, 0, 0, 1));
        } else {
            fb.emit(int(BinOp::Add, u, u, 1));
        }
        fb.emit(int(BinOp::Mul, v, 0, 1));
        fb.emit(int(BinOp::Add, r, u, v));
        fb.emit(Instr::Ret(Some(r)));
        let mut p = Program::default();
        p.entry = Some(p.add_func(fb.finish().unwrap()));
        let (want, _, _) = run_entry(&p, &[3, 4, 0]);
        let mut opt = p.clone();
        nir::optimize(&mut opt, OptConfig::standard());
        let (got, _, _) = run_entry(&opt, &[3, 4, 0]);
        assert_eq!(got, want, "operand rewritten: {rewrite_operand}\n{opt}");
    }
}

/// A branch from before the loop into its body's second block makes it
/// a loop with two entries: the one past the header would skip a
/// preheader, and the `x * 2` hoisted there (caught: a scratch mutant
/// that dropped the single-entry check).
#[test]
fn rotation_needs_one_entry() {
    let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
    let r: Vec<Reg> = (0..6).map(|_| fb.reg(Ty::I32)).collect();
    let (acc, i, n, one, zero, t) = (r[0], r[1], r[2], r[3], r[4], r[5]);
    let (c0, c) = (fb.reg(Ty::Bool), fb.reg(Ty::Bool));
    fb.emit(Instr::ConstI32(acc, 0));
    fb.emit(Instr::ConstI32(i, 0));
    fb.emit(Instr::ConstI32(n, 3));
    fb.emit(Instr::ConstI32(one, 1));
    fb.emit(Instr::ConstI32(zero, 0));
    let (head, body, mid, exit) = (fb.label(), fb.label(), fb.label(), fb.label());
    fb.emit(int(BinOp::Gt, c0, 0, zero));
    fb.br(c0, mid, head);
    fb.bind(head);
    fb.emit(int(BinOp::Lt, c, i, n));
    fb.br(c, body, exit);
    fb.bind(body);
    fb.emit(int(BinOp::Mul, t, 0, 0));
    fb.emit(int(BinOp::Add, acc, acc, t));
    fb.bind(mid);
    fb.emit(int(BinOp::Add, i, i, one));
    fb.jmp(head);
    fb.bind(exit);
    fb.emit(Instr::Ret(Some(acc)));
    let mut p = Program::default();
    p.entry = Some(p.add_func(fb.finish().unwrap()));
    p.verify().unwrap();
    for x in [-2, 2] {
        assert_rewrites_agree(&p, x, false, "a second entry");
    }
}

/// Rotation saves the back jump on every iteration and hoisting saves the
/// invariant product on every iteration after the first; a zero-trip loop
/// runs its guard and nothing else, as the test at its top did.
#[test]
fn rotation_and_hoisting_cost_nothing_on_a_zero_trip_loop() {
    for trips in 0..4 {
        let p = counted(trips, |fb, _, acc| {
            let t = fb.reg(Ty::I32);
            fb.emit(int(BinOp::Mul, t, 0, 0));
            fb.emit(int(BinOp::Add, acc, acc, t));
        });
        let (want, base) = observe(&p, 6);
        let mut opt = p.clone();
        nir::optimize(&mut opt, OptConfig::standard());
        let (got, retired) = observe(&opt, 6);
        assert_eq!(got, want);
        let saved = (2 * trips - 1).max(0) as u64;
        assert_eq!(base - retired, saved, "{trips} trips:\n{opt}");
    }
}

// ---------------------------------------------------------------------
// Constant merging: each safety rule against the program it protects
// ---------------------------------------------------------------------

/// `standard()` leaves what `p` shows on `x` as it was, and what it
/// makes verifies: every register read is written before, with its type.
fn assert_merge_agrees(p: &Program, x: i32, what: &str) -> Program {
    let (want, _) = observe(p, x);
    let mut opt = p.clone();
    nir::optimize(&mut opt, OptConfig::standard());
    opt.verify()
        .unwrap_or_else(|e| panic!("{what}: {e}\n{p}\n{opt}"));
    let (got, _) = observe(&opt, x);
    assert_eq!(got, want, "{what}:\n{p}\n{opt}");
    opt
}

/// An int, long, float, double and boolean zero in one block: equal bits,
/// five kinds, each read by an instruction of its own kind. Merged on
/// their bits, a float add would read the int zero's register, which
/// the verifier refuses (caught: a scratch mutant that keyed the merge
/// on bits only).
#[test]
fn equal_bits_of_other_kinds_stay_apart() {
    let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
    let (zi, si) = (fb.reg(Ty::I32), fb.reg(Ty::I32));
    let (zl, xl, sl) = (fb.reg(Ty::I64), fb.reg(Ty::I64), fb.reg(Ty::I64));
    let (zf, xf, sf) = (fb.reg(Ty::F32), fb.reg(Ty::F32), fb.reg(Ty::F32));
    let (zd, xd, sd) = (fb.reg(Ty::F64), fb.reg(Ty::F64), fb.reg(Ty::F64));
    let (zb, nb) = (fb.reg(Ty::Bool), fb.reg(Ty::Bool));
    let out = fb.reg(Ty::I32);
    fb.emit(Instr::ConstI32(zi, 0));
    fb.emit(int(BinOp::Add, si, 0, zi));
    let widen = |fb: &mut FuncBuilder, to: PrimKind, dst: Reg, src: Reg, from: PrimKind| {
        fb.emit(Instr::Cast { to, from, dst, src });
    };
    for (kind, z, x, s, zero) in [
        (PrimKind::Long, zl, xl, sl, Instr::ConstI64(zl, 0)),
        (PrimKind::Float, zf, xf, sf, Instr::ConstF32(zf, 0.0)),
        (PrimKind::Double, zd, xd, sd, Instr::ConstF64(zd, 0.0)),
    ] {
        fb.emit(zero);
        widen(&mut fb, kind, x, si, PrimKind::Int);
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind,
            dst: s,
            lhs: x,
            rhs: z,
        });
    }
    fb.emit(Instr::ConstBool(zb, false));
    fb.emit(Instr::Not { dst: nb, src: zb });
    // out = (int) (sl + sf + sd), plus 1 when !false.
    let (fl, dl) = (fb.reg(Ty::I64), fb.reg(Ty::I64));
    widen(&mut fb, PrimKind::Long, fl, sf, PrimKind::Float);
    widen(&mut fb, PrimKind::Long, dl, sd, PrimKind::Double);
    for r in [fl, dl] {
        fb.emit(Instr::Bin {
            op: BinOp::Add,
            kind: PrimKind::Long,
            dst: sl,
            lhs: sl,
            rhs: r,
        });
    }
    widen(&mut fb, PrimKind::Int, out, sl, PrimKind::Long);
    let (yes, done) = (fb.label(), fb.label());
    fb.br(nb, yes, done);
    fb.bind(yes);
    let one = fb.reg(Ty::I32);
    fb.emit(Instr::ConstI32(one, 1));
    fb.emit(int(BinOp::Add, out, out, one));
    fb.bind(done);
    fb.emit(Instr::Ret(Some(out)));
    let mut p = Program::default();
    p.entry = Some(p.add_func(fb.finish().unwrap()));
    p.verify().unwrap();
    assert_eq!(observe(&p, 4).0 .0, Ok(Some(exec::Val::I32(13))));
    let opt = assert_merge_agrees(&p, 4, "five zeros of five kinds");
    let zeros = (opt.funcs[0].code.iter())
        .filter(|i| i.const_val().is_some_and(|v| v.bits() == 0))
        .count();
    assert_eq!(zeros, 5, "one zero per kind:\n{opt}");
}

/// A loop's `i = 0` shares its block with an earlier, block-local `0`,
/// but the loop's header reads it. Merged, the header would read the
/// other zero, which the body never increments, and the loop would not
/// end (caught: a scratch mutant that dropped the `Blocks::local`
/// condition).
#[test]
fn a_constant_another_block_reads_is_kept() {
    let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
    let r: Vec<Reg> = (0..6).map(|_| fb.reg(Ty::I32)).collect();
    let (z, acc, i, n, one, c) = (r[0], r[1], r[2], r[3], r[4], fb.reg(Ty::Bool));
    fb.emit(Instr::ConstI32(z, 0));
    fb.emit(int(BinOp::Add, acc, 0, z));
    fb.emit(Instr::ConstI32(i, 0));
    fb.emit(Instr::ConstI32(n, 3));
    fb.emit(Instr::ConstI32(one, 1));
    let (head, body, exit) = (fb.label(), fb.label(), fb.label());
    fb.bind(head);
    fb.emit(int(BinOp::Lt, c, i, n));
    fb.br(c, body, exit);
    fb.bind(body);
    fb.emit(int(BinOp::Add, acc, acc, i));
    fb.emit(int(BinOp::Add, i, i, one));
    fb.jmp(head);
    fb.bind(exit);
    fb.emit(Instr::Ret(Some(acc)));
    let mut p = Program::default();
    p.entry = Some(p.add_func(fb.finish().unwrap()));
    p.verify().unwrap();
    assert_eq!(observe(&p, 10).0 .0, Ok(Some(exec::Val::I32(13))));
    assert_merge_agrees(&p, 10, "a loop counter's zero beside another zero");
}

/// A rotated loop whose body repeats the prefix's literals and its own,
/// with an early return inside the loop that repeats them once more,
/// followed by straight-line code that repeats them again: every read
/// the merge renames must still come after the definition it now reads,
/// wherever rotation moved the test and hoisting the invariants.
#[test]
fn no_renamed_read_lands_above_its_definition() {
    for trips in 0..4 {
        let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
        let r: Vec<Reg> = (0..14).map(|_| fb.reg(Ty::I32)).collect();
        let (acc, i, n, one) = (r[0], r[1], r[2], r[3]);
        let (k1, k2, t, u, w, k3, k4, v, e1, e2) = (
            r[4], r[5], r[6], r[7], r[8], r[9], r[10], r[11], r[12], r[13],
        );
        let (c, quit) = (fb.reg(Ty::Bool), fb.reg(Ty::Bool));
        fb.emit(Instr::ConstI32(acc, 0));
        fb.emit(Instr::ConstI32(i, 0));
        fb.emit(Instr::ConstI32(n, trips));
        let (head, body, leave, go_on, exit) =
            (fb.label(), fb.label(), fb.label(), fb.label(), fb.label());
        fb.bind(head);
        fb.emit(int(BinOp::Lt, c, i, n));
        fb.br(c, body, exit);
        fb.bind(body);
        // The body's entry block: two 7s and an invariant `x * 7`.
        fb.emit(Instr::ConstI32(k1, 7));
        fb.emit(int(BinOp::Mul, t, 0, k1));
        fb.emit(Instr::ConstI32(k2, 7));
        fb.emit(int(BinOp::Add, u, acc, k2));
        fb.emit(int(BinOp::Add, acc, u, t));
        fb.emit(int(BinOp::Gt, quit, acc, 0));
        fb.br(quit, leave, go_on);
        // Inside the loop, off its cycle: a return that repeats the 7.
        fb.bind(leave);
        fb.emit(Instr::ConstI32(e1, 7));
        fb.emit(Instr::ConstI32(e2, 7));
        fb.emit(int(BinOp::Mul, w, acc, e1));
        fb.emit(int(BinOp::Sub, w, w, e2));
        fb.emit(Instr::Ret(Some(w)));
        fb.bind(go_on);
        fb.emit(Instr::ConstI32(one, 1));
        fb.emit(int(BinOp::Add, i, i, one));
        fb.jmp(head);
        fb.bind(exit);
        // After the loop: the 7 and the 1 again, twice each.
        fb.emit(Instr::ConstI32(k3, 7));
        fb.emit(int(BinOp::Mul, v, acc, k3));
        fb.emit(Instr::ConstI32(k4, 7));
        fb.emit(int(BinOp::Add, v, v, k4));
        let (o1, o2) = (fb.reg(Ty::I32), fb.reg(Ty::I32));
        fb.emit(Instr::ConstI32(o1, 1));
        fb.emit(int(BinOp::Add, v, v, o1));
        fb.emit(Instr::ConstI32(o2, 1));
        fb.emit(int(BinOp::Sub, v, v, o2));
        fb.emit(Instr::Ret(Some(v)));
        let mut p = Program::default();
        p.entry = Some(p.add_func(fb.finish().unwrap()));
        p.verify().unwrap();
        for x in [-40, -3, 2] {
            assert_merge_agrees(&p, x, &format!("{trips} trips, x = {x}"));
        }
    }
}

//! Which instruction pairs the interpreter retires back to back, measured
//! without a second loop: `exec::run` is stepped with fuel 1, and
//! `Thread::frame_location` between steps gives the executed sequence.
//! Consecutive instructions of one frame make a pair.
//!
//! The image fuses five dependent pairs into superinstructions
//! (`crates/exec/src/image.rs`, `fuse`). This test keeps its own list of
//! those shapes, prints each program's top pairs (`--nocapture`; DESIGN
//! §17 holds the table) and asserts that every fused shape covers at
//! least 3 % of the retired instructions of one of the programs: a shape
//! the workloads stop producing should stop being fused.

use exec::{run, Image, Machine, Thread, Val, Yield};
use hpclib::{MatmulApp, MatmulBody, MatmulCalc, MatmulThread, StencilApp, StencilPlatform};
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use jvm::Value;
use nir::{Instr, Program};
use std::collections::HashMap;
use wootinj::{build_table, JitOptions, WootinJ};

mod self_world;
use self_world::SelfWorld;

/// The loop of the `service-mix` request programs, at their iteration
/// count.
const SVC: &str = "@WootinJ final class Svc { Svc() { } int run(int x) { int a = x; \
     for (int i = 0; i < 20000; i++) { a = a * 31 + 7 + i; } return a; } }";

/// A fused shape: the first instruction's destination is the operand of
/// the second that the superinstruction forwards it to.
struct Shape {
    name: &'static str,
    fused: fn(&Instr, &Instr) -> bool,
}

fn bin(ins: &Instr) -> Option<(BinOp, PrimKind, u32)> {
    match *ins {
        Instr::Bin { op, kind, dst, .. } => Some((op, kind, dst)),
        _ => None,
    }
}

/// The pairs `image::fuse` turns into superinstructions.
const SHAPES: [Shape; 5] = [
    Shape {
        name: "Bin{Add,Int} t -> LdArr{idx: t}",
        fused: |a, b| matches!((bin(a), b), (Some((BinOp::Add, PrimKind::Int, t)), Instr::LdArr { idx, .. }) if *idx == t),
    },
    Shape {
        name: "Bin{Sub,Int} t -> LdArr{idx: t}",
        fused: |a, b| matches!((bin(a), b), (Some((BinOp::Sub, PrimKind::Int, t)), Instr::LdArr { idx, .. }) if *idx == t),
    },
    Shape {
        name: "Bin{Lt,Int} c -> Br{cond: c}",
        fused: |a, b| matches!((bin(a), b), (Some((BinOp::Lt, PrimKind::Int, t)), Instr::Br { cond, .. }) if *cond == t),
    },
    Shape {
        name: "Bin{Add,Float} t -> Bin{Add,Float}{lhs: t}",
        fused: |a, b| matches!((bin(a), b), (Some((BinOp::Add, PrimKind::Float, t)), Instr::Bin { op: BinOp::Add, kind: PrimKind::Float, lhs, .. }) if *lhs == t),
    },
    Shape {
        name: "Bin{Mul,Float} t -> Bin{Add,Float}{rhs: t}",
        fused: |a, b| matches!((bin(a), b), (Some((BinOp::Mul, PrimKind::Float, t)), Instr::Bin { op: BinOp::Add, kind: PrimKind::Float, rhs, .. }) if *rhs == t),
    },
];

/// An instruction's opcode as the image specialises it: `Bin` and
/// `Intrin` by operator and kind, the rest by variant.
fn opcode(ins: &Instr) -> String {
    match ins {
        Instr::Bin { op, kind, .. } => format!("{op:?}{kind:?}"),
        Instr::Intrin { op, .. } => format!("{op:?}"),
        other => {
            let text = format!("{other:?}");
            let end = text
                .find(|c: char| !c.is_alphanumeric())
                .unwrap_or(text.len());
            text[..end].to_string()
        }
    }
}

/// What one program's run retired, pair by pair.
struct Trace {
    retired: u64,
    /// Opcode pairs (by name) and how often each was retired.
    pairs: HashMap<String, u64>,
    /// Per shape of `SHAPES`: how many of its pairs were retired, the
    /// second at the pc after the first.
    fused: [u64; SHAPES.len()],
}

/// Run `entry(args)` one instruction per slice and count the pairs.
fn trace(program: &Program, entry: nir::FuncId, machine: &mut Machine, args: &[Val]) -> Trace {
    let image = Image::build(program).unwrap();
    let mut thread = Thread::new(program, entry, args).unwrap();
    let mut world = SelfWorld::default();
    let mut out = Trace {
        retired: 0,
        pairs: HashMap::new(),
        fused: [0; SHAPES.len()],
    };
    let at = |t: &Thread| t.frame_location().map(|loc| (loc, t.depth()));
    let mut before = at(&thread);
    loop {
        let y = run(&mut thread, &image, machine, 1).unwrap();
        out.retired += 1;
        let after = at(&thread);
        if let (Some(((f, pc), depth)), Some(((g, next), depth2))) = (before, after) {
            if f == g && depth == depth2 {
                let code = &program.func(f).code;
                let (a, b) = (&code[pc as usize], &code[next as usize]);
                *out.pairs
                    .entry(format!("{} -> {}", opcode(a), opcode(b)))
                    .or_default() += 1;
                if next == pc + 1 {
                    for (n, shape) in SHAPES.iter().enumerate() {
                        out.fused[n] += (shape.fused)(a, b) as u64;
                    }
                }
            }
        }
        before = after;
        match y {
            Yield::Done(_) => return out,
            Yield::OutOfFuel => {}
            Yield::Mpi { op, args } => {
                let v = world.service(machine, op, &args);
                thread.resume_with(v);
            }
            other => panic!("unserviceable yield {other:?}"),
        }
    }
}

/// Jit `method` of `recv` with the preset and trace its run.
fn jit_and_trace(env: &WootinJ<'_>, recv: &Value, method: &str, args: &[Value]) -> Trace {
    let code = env.jit(recv, method, args, JitOptions::wootinj()).unwrap();
    let t = &code.translated;
    let mut m = Machine::with_globals(&t.program);
    let bound = translator::bind_entry_args(&env.jvm, recv, args, &t.bindings, &mut m).unwrap();
    trace(&t.program, t.entry, &mut m, &bound)
}

fn stencil() -> Trace {
    let table = hpclib::stencil_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let recv =
        StencilApp::compose(&mut env, StencilPlatform::Cpu, StencilApp::default_model()).unwrap();
    jit_and_trace(&env, &recv, "invoke", &[16, 16, 16, 2].map(Value::Int))
}

fn fox() -> Trace {
    let table = hpclib::matmul_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let recv = MatmulApp::compose(
        &mut env,
        MatmulThread::Mpi,
        MatmulBody::Fox,
        MatmulCalc::Simple,
    )
    .unwrap();
    jit_and_trace(&env, &recv, "start", &[Value::Int(24)])
}

fn service_loop() -> Trace {
    let table = build_table(&[("svc.jl", SVC)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let recv = env.new_instance("Svc", &[]).unwrap();
    jit_and_trace(&env, &recv, "run", &[Value::Int(5)])
}

fn share(n: u64, of: u64) -> f64 {
    100.0 * n as f64 / of as f64
}

#[test]
fn every_fused_shape_is_a_hot_pair() {
    let traces = [
        ("fig3 stencil 16^3 x2", stencil()),
        ("Fox matmul n=24", fox()),
        ("service-mix loop", service_loop()),
    ];
    let mut best = [0.0f64; SHAPES.len()];
    for (name, t) in &traces {
        let mut top: Vec<_> = t.pairs.iter().collect();
        top.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        println!("{name}: {} retired; top pairs", t.retired);
        for (pair, n) in top.iter().take(6) {
            println!("  {pair:<24} {:5.1} %", share(**n, t.retired));
        }
        println!("  fused shapes:");
        for (n, shape) in SHAPES.iter().enumerate() {
            let s = share(t.fused[n], t.retired);
            println!("  {:<44} {s:5.1} %", shape.name);
            best[n] = best[n].max(s);
        }
    }
    for (shape, s) in SHAPES.iter().zip(best) {
        assert!(
            s >= 3.0,
            "`{}` covers {s:.1} % of retired instructions at most: not worth fusing",
            shape.name
        );
    }
}

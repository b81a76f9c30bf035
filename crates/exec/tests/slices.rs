//! Slice invariance and identity of the execution core.
//!
//! How a run is cut into fuel slices must not be observable: the same
//! program stopped every instruction, at random fuel boundaries, or never
//! must pass through identical states. The per-instruction run (fuel = 1
//! throughout) is the reference trace; every stop of any other slicing is
//! looked up in it by retired-instruction count and must agree on the
//! yield, the counters, the innermost frame location and the thread's
//! checkpoint bytes. The `(instrs, cycles, result)` constants were
//! captured from the interpreter that dispatched on `nir::Instr`, before
//! the pre-decoded image replaced it.

use exec::ckpt;
use exec::{run, Image, Machine, Thread, Val, Yield};
use hpclib::{MatmulApp, MatmulBody, MatmulCalc, MatmulThread, StencilApp, StencilPlatform};
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use jvm::Value;
use nir::codec::Writer;
use nir::{ElemTy, FuncBuilder, FuncId, FuncKind, Instr, IntrinOp, Program, Ty};
use wootinj::{build_table, JitOptions, WootinJ};

/// Deterministic xorshift64* PRNG (as in `tests/property_tests.rs`).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

const RING: &str = r#"
    @WootinJ final class RingStepReduce {
      RingStepReduce() { }
      float run(int n, int steps) {
        int rank = MPI.rank();
        int size = MPI.size();
        float[] sbuf = new float[n];
        float[] rbuf = new float[n];
        for (int i = 0; i < n; i++) { sbuf[i] = rank * n + i; }
        int dest = (rank + 1) % size;
        int src = (rank + size - 1) % size;
        float acc = 0f;
        for (int s = 0; s < steps; s++) {
          MPI.sendrecvF(sbuf, 0, n, dest, rbuf, 0, src, 7);
          for (int i = 0; i < n; i++) { sbuf[i] = rbuf[i] * 0.5f; }
          acc += MPI.allreduceSumF(sbuf[0]);
        }
        return acc;
      }
    }
"#;

/// Where a run stopped: what `run` returned and the state it left.
#[derive(Debug, Clone, PartialEq)]
struct Stop {
    /// `Debug` of the yield (`OutOfFuel`, `Mpi { .. }`, `Done(..)`, ...).
    what: String,
    instrs: u64,
    cycles: u64,
    loc: Option<(FuncId, u32)>,
    /// The thread's WCKPT payload (frames: func, pc, regs, ret_to).
    thread_bytes: Vec<u8>,
}

/// A one-rank MPI world: rank 0 of 1, so every message goes to oneself.
#[derive(Default)]
struct SelfWorld {
    /// Sent and not yet received: `(tag, payload)`.
    mailbox: Vec<(i32, Vec<f32>)>,
}

fn int(v: Val) -> i32 {
    v.as_i32().unwrap()
}

impl SelfWorld {
    /// `send(buf, off, count, .., tag)`: copy the range into the mailbox.
    fn send(&mut self, m: &Machine, buf: Val, off: Val, count: Val, tag: Val) {
        let store = m.mem.arr(buf.as_arr().unwrap()).unwrap();
        let payload = (0..int(count) as usize)
            .map(|i| match store.get(int(off) as usize + i).unwrap() {
                Val::F32(v) => v,
                other => panic!("non-float message element {other:?}"),
            })
            .collect();
        self.mailbox.push((int(tag), payload));
    }

    /// `recv(buf, off, .., tag)`: copy the oldest matching message out.
    fn recv(&mut self, m: &mut Machine, buf: Val, off: Val, tag: Val) {
        let at = self
            .mailbox
            .iter()
            .position(|(t, _)| *t == int(tag))
            .expect("receive with no matching message");
        let (_, payload) = self.mailbox.remove(at);
        let store = m.mem.arr_mut(buf.as_arr().unwrap()).unwrap();
        for (i, v) in payload.into_iter().enumerate() {
            store.set(int(off) as usize + i, Val::F32(v)).unwrap();
        }
    }

    /// Service one MPI yield (operand layouts as in `mpi_sim::runtime`).
    fn service(&mut self, m: &mut Machine, op: IntrinOp, a: &[Val]) -> Val {
        match op {
            IntrinOp::MpiRank => return Val::I32(0),
            IntrinOp::MpiSize => return Val::I32(1),
            IntrinOp::MpiAllreduceSumF64
            | IntrinOp::MpiAllreduceSumF32
            | IntrinOp::MpiAllreduceMaxF64 => return a[0],
            IntrinOp::MpiBarrier | IntrinOp::MpiBcastF32 => {}
            IntrinOp::MpiSendF32 => self.send(m, a[0], a[1], a[2], a[4]),
            IntrinOp::MpiRecvF32 => self.recv(m, a[0], a[1], a[4]),
            IntrinOp::MpiSendRecvF32 => {
                self.send(m, a[0], a[1], a[2], a[7]);
                self.recv(m, a[4], a[5], a[7]);
            }
            other => panic!("unexpected MPI op {other:?}"),
        }
        Val::Unit
    }
}

/// Run `entry(args)` to completion, asking `fuel` for the size of each
/// slice; returns every stop in order.
fn drive(
    program: &Program,
    entry: FuncId,
    machine: &mut Machine,
    args: &[Val],
    mut fuel: impl FnMut() -> u64,
) -> Vec<Stop> {
    let image = Image::build(program).unwrap();
    let mut thread = Thread::new(program, entry, args).unwrap();
    let mut world = SelfWorld::default();
    let mut stops = Vec::new();
    loop {
        let granted = fuel();
        let before = machine.counters.instrs;
        let y = run(&mut thread, &image, machine, granted).unwrap();
        let mut w = Writer::new();
        ckpt::write_thread(&mut w, &thread);
        stops.push(Stop {
            what: format!("{y:?}"),
            instrs: machine.counters.instrs,
            cycles: machine.counters.cycles,
            loc: thread.frame_location(),
            thread_bytes: w.into_bytes(),
        });
        match y {
            Yield::Done(_) => return stops,
            // A fuel boundary falls exactly where the grant ran out.
            Yield::OutOfFuel => assert_eq!(machine.counters.instrs - before, granted),
            Yield::Mpi { op, args } => {
                let v = world.service(machine, op, &args);
                thread.resume_with(v);
            }
            other => panic!("unserviceable yield {other:?}"),
        }
    }
}

/// A jitted program plus what is needed to bind its entry arguments.
struct Case {
    name: &'static str,
    table: fn() -> jlang::table::ClassTable,
    compose: fn(&mut WootinJ<'_>) -> Value,
    method: &'static str,
    args: Vec<Value>,
    options: fn() -> JitOptions,
    /// `(instrs, cycles, Debug of the result)` of the whole run.
    pinned: (u64, u64, &'static str),
}

fn cases() -> Vec<Case> {
    let stencil = |env: &mut WootinJ<'_>| {
        StencilApp::compose(env, StencilPlatform::Cpu, StencilApp::default_model()).unwrap()
    };
    vec![
        Case {
            name: "fig3-stencil",
            table: || hpclib::stencil_table(&[]).unwrap(),
            compose: stencil,
            method: "invoke",
            args: [8, 8, 8, 2].map(Value::Int).to_vec(),
            options: JitOptions::wootinj,
            pinned: (45796, 58208, "Done(Some(F32(240.84772)))"),
        },
        Case {
            name: "fox-matmul",
            table: || hpclib::matmul_table(&[]).unwrap(),
            compose: |env| {
                MatmulApp::compose(env, MatmulThread::Mpi, MatmulBody::Fox, MatmulCalc::Simple)
                    .unwrap()
            },
            method: "start",
            args: vec![Value::Int(12)],
            options: JitOptions::wootinj,
            pinned: (54123, 93818, "Done(Some(F32(2.984375)))"),
        },
        Case {
            name: "ring",
            table: || build_table(&[("ring_step_reduce.jl", RING)]).unwrap(),
            compose: |env| env.new_instance("RingStepReduce", &[]).unwrap(),
            method: "run",
            args: [64, 6].map(Value::Int).to_vec(),
            options: JitOptions::wootinj,
            pinned: (5084, 6087, "Done(Some(F32(0.0)))"),
        },
        Case {
            name: "stencil-virtual",
            table: || hpclib::stencil_table(&[]).unwrap(),
            compose: stencil,
            method: "invoke",
            args: [6, 6, 6, 2].map(Value::Int).to_vec(),
            options: JitOptions::cpp,
            pinned: (18577, 28196, "Done(Some(F32(101.71479)))"),
        },
    ]
}

#[test]
fn slicing_is_unobservable_and_counters_are_pinned() {
    for case in cases() {
        let table = (case.table)();
        let mut env = WootinJ::new(&table).unwrap();
        let recv = (case.compose)(&mut env);
        let code = env
            .jit(&recv, case.method, &case.args, (case.options)())
            .unwrap();
        let t = &code.translated;
        let fresh = |fuel: &mut dyn FnMut() -> u64| {
            let mut m = Machine::with_globals(&t.program);
            let args =
                translator::bind_entry_args(&env.jvm, &recv, &case.args, &t.bindings, &mut m)
                    .unwrap();
            drive(&t.program, t.entry, &mut m, &args, fuel)
        };

        // Reference: stop after every retired instruction.
        let trace = fresh(&mut || 1);
        for (i, s) in trace.iter().enumerate() {
            assert_eq!(
                s.instrs,
                i as u64 + 1,
                "{}: one instruction per unit of fuel",
                case.name
            );
        }
        let last = trace.last().unwrap();
        assert_eq!(
            (last.instrs, last.cycles, last.what.as_str()),
            case.pinned,
            "{}: counters and result of the whole run",
            case.name
        );
        let check = |stops: &[Stop], how: &str| {
            for s in stops {
                assert_eq!(
                    s,
                    &trace[s.instrs as usize - 1],
                    "{} ({how}) at {}",
                    case.name,
                    s.instrs
                );
            }
            assert_eq!(
                stops.last(),
                trace.last(),
                "{} ({how}): final state",
                case.name
            );
        };

        // One unbounded slice per yield.
        let whole = fresh(&mut || u64::MAX);
        check(&whole, "u64::MAX");
        let yields = |stops: &[Stop]| -> Vec<String> {
            stops
                .iter()
                .filter(|s| s.what != "OutOfFuel")
                .map(|s| s.what.clone())
                .collect()
        };
        assert_eq!(
            yields(&whole),
            yields(&trace),
            "{}: yield sequence",
            case.name
        );

        // Random slices, small and large.
        for (seed, span) in [
            (0x5EED_0001u64, 10_000u64),
            (0x5EED_0002, 97),
            (0x5EED_0003, 3),
        ] {
            let mut rng = Rng(seed);
            let sliced = fresh(&mut || 1 + rng.next_u64() % span);
            check(&sliced, "random");
            assert_eq!(
                yields(&sliced),
                yields(&trace),
                "{}: yield sequence",
                case.name
            );
        }
    }
}

/// `fn f(x: i32) -> i32` whose body is `emit`ted by the caller; the body
/// leaves its result in the returned register.
fn one_function(emit: impl FnOnce(&mut FuncBuilder) -> u32) -> Program {
    let mut fb = FuncBuilder::new("f", vec![Ty::I32], Some(Ty::I32), FuncKind::Host);
    let out = emit(&mut fb);
    fb.emit(Instr::Ret(Some(out)));
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    p.entry = Some(id);
    p
}

/// `arr = new float[x]; <idx>; out = arr[idx]`, optionally freeing first.
fn load_at(index: i32, free_first: bool) -> Program {
    one_function(|fb| {
        let arr = fb.reg(Ty::Arr(ElemTy::F32));
        let idx = fb.reg(Ty::I32);
        let out = fb.reg(Ty::F32);
        fb.emit(Instr::NewArr {
            elem: ElemTy::F32,
            len: 0,
            dst: arr,
        });
        fb.emit(Instr::ConstI32(idx, index));
        if free_first {
            fb.emit(Instr::FreeArr { arr });
        }
        fb.emit(Instr::LdArr { arr, idx, dst: out });
        out
    })
}

#[test]
fn typed_errors_keep_message_function_and_pc() {
    let int_bin = |op, lhs, rhs, dst| Instr::Bin {
        op,
        kind: PrimKind::Int,
        dst,
        lhs,
        rhs,
    };
    let table: Vec<(&str, Program, &str, u32)> = vec![
        (
            "divide by zero",
            one_function(|fb| {
                let z = fb.reg(Ty::I32);
                let r = fb.reg(Ty::I32);
                fb.emit(Instr::ConstI32(z, 0));
                fb.emit(int_bin(BinOp::Div, 0, z, r));
                r
            }),
            "division by zero",
            1,
        ),
        (
            "out of bounds",
            load_at(100, false),
            "array index 100 out of bounds (len 4)",
            2,
        ),
        ("negative index", load_at(-1, false), "negative index -1", 2),
        ("use after free", load_at(0, true), "use of freed array", 3),
        (
            "call depth",
            one_function(|fb| {
                let r = fb.reg(Ty::I32);
                fb.emit(Instr::Call {
                    func: FuncId(0),
                    args: vec![0],
                    dst: Some(r),
                });
                r
            }),
            "call depth limit exceeded",
            0,
        ),
        (
            "ill-typed bin",
            one_function(|fb| {
                let a = fb.reg(Ty::F32);
                let r = fb.reg(Ty::I32);
                fb.emit(Instr::ConstF32(a, 1.5));
                fb.emit(int_bin(BinOp::Add, 0, a, r));
                r
            }),
            "expected i32, found F32(1.5)",
            1,
        ),
    ];
    for (name, program, message, pc) in table {
        let mut m = Machine::new();
        let e = exec::run_to_completion(&program, FuncId(0), vec![Val::I32(4)], &mut m)
            .expect_err(name);
        assert_eq!(
            (e.message.as_str(), e.func.as_str(), e.pc),
            (message, "f", pc),
            "{name}"
        );
    }
}

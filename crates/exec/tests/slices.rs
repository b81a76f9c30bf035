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
use nir::codec::{Wire, Writer};
use nir::{ElemTy, FuncBuilder, FuncId, FuncKind, Instr, Program, Ty};
use wootinj::{build_table, JitOptions, WootinJ};

mod self_world;
use self_world::SelfWorld;

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
        ckpt::write_thread(&mut w, &thread, program);
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
                thread.resume_with(program, v).unwrap();
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
            pinned: (26758, 32618, "Done(Some(F32(240.84772)))"),
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
            pinned: (22784, 28765, "Done(Some(F32(2.984375)))"),
        },
        Case {
            name: "ring",
            table: || build_table(&[("ring_step_reduce.jl", RING)]).unwrap(),
            compose: |env| env.new_instance("RingStepReduce", &[]).unwrap(),
            method: "run",
            args: [64, 6].map(Value::Int).to_vec(),
            options: JitOptions::wootinj,
            pinned: (2780, 3783, "Done(Some(F32(0.0)))"),
        },
        Case {
            name: "stencil-virtual",
            table: || hpclib::stencil_table(&[]).unwrap(),
            compose: stencil,
            method: "invoke",
            args: [6, 6, 6, 2].map(Value::Int).to_vec(),
            options: JitOptions::cpp,
            pinned: (13221, 22840, "Done(Some(F32(101.71479)))"),
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

/// `fn f(x: i32)` whose body is `emit`ted by the caller; the body leaves
/// its result in the returned register, whose type the function returns.
fn one_function(emit: impl FnOnce(&mut FuncBuilder) -> u32) -> Program {
    one_function_of(Ty::I32, emit)
}

/// [`one_function`] with a parameter of type `param`.
fn one_function_of(param: Ty, emit: impl FnOnce(&mut FuncBuilder) -> u32) -> Program {
    let mut fb = FuncBuilder::new("f", vec![param], None, FuncKind::Host);
    let out = emit(&mut fb);
    fb.ret = Some(fb.reg_ty(out));
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

fn int_bin(op: BinOp, lhs: u32, rhs: u32, dst: u32) -> Instr {
    Instr::Bin {
        op,
        kind: PrimKind::Int,
        dst,
        lhs,
        rhs,
    }
}

/// `arr = new <elem>[x]; k = <index>; z = 0; [free arr;] t = k <op> z;
/// out = arr[t]`: the last two are a pair the image fuses (`Bin` → `LdArr`
/// on its destination), at pcs 3 and 4, or 4 and 5 after a free.
fn fused_load(elem: ElemTy, op: BinOp, index: i32, free_first: bool) -> Program {
    one_function(|fb| {
        let arr = fb.reg(Ty::Arr(elem));
        let (k, z, t) = (fb.reg(Ty::I32), fb.reg(Ty::I32), fb.reg(Ty::I32));
        let out = fb.reg(elem.ty());
        fb.emit(Instr::NewArr {
            elem,
            len: 0,
            dst: arr,
        });
        fb.emit(Instr::ConstI32(k, index));
        fb.emit(Instr::ConstI32(z, 0));
        if free_first {
            fb.emit(Instr::FreeArr { arr });
        }
        fb.emit(int_bin(op, k, z, t));
        fb.emit(Instr::LdArr {
            arr,
            idx: t,
            dst: out,
        });
        out
    })
}

/// A `float[]` register holding what the caller passed (`f(Val::Arr(99))`
/// is a bad handle), loaded through the fused `Add` → `LdArr` at pcs 2-3.
fn load_from_argument(index: i32) -> Program {
    one_function_of(Ty::Arr(ElemTy::F32), |fb| {
        let arr = fb.reg(Ty::Arr(ElemTy::F32));
        let (k, t, out) = (fb.reg(Ty::I32), fb.reg(Ty::I32), fb.reg(Ty::F32));
        fb.emit(Instr::Mov(arr, 0));
        fb.emit(Instr::ConstI32(k, index));
        fb.emit(int_bin(BinOp::Add, k, k, t));
        fb.emit(Instr::LdArr {
            arr,
            idx: t,
            dst: out,
        });
        out
    })
}

#[test]
fn typed_errors_keep_message_function_and_pc() {
    let four = Val::I32(4);
    let bad_handle = Val::Arr(99);
    let table: Vec<(&str, Program, Val, &str, u32)> = vec![
        (
            "divide by zero",
            one_function(|fb| {
                let z = fb.reg(Ty::I32);
                let r = fb.reg(Ty::I32);
                fb.emit(Instr::ConstI32(z, 0));
                fb.emit(int_bin(BinOp::Div, 0, z, r));
                r
            }),
            four,
            "division by zero",
            1,
        ),
        (
            "out of bounds",
            load_at(100, false),
            four,
            "array index 100 out of bounds (len 4)",
            2,
        ),
        (
            "negative index",
            load_at(-1, false),
            four,
            "negative index -1",
            2,
        ),
        (
            "use after free",
            load_at(0, true),
            four,
            "use of freed array",
            3,
        ),
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
            four,
            "call depth limit exceeded",
            0,
        ),
        // Through the superinstructions: the second half's errors carry
        // its own pc, with today's messages in today's check order.
        (
            "out of bounds in a fused float load",
            fused_load(ElemTy::F32, BinOp::Add, 100, false),
            four,
            "array index 100 out of bounds (len 4)",
            4,
        ),
        (
            "out of bounds in a fused int load",
            fused_load(ElemTy::I32, BinOp::Add, 100, false),
            four,
            "array index 100 out of bounds (len 4)",
            4,
        ),
        (
            "negative index through a fused Sub",
            fused_load(ElemTy::F32, BinOp::Sub, -1, false),
            four,
            "negative index -1",
            4,
        ),
        (
            "freed float array through a fused load",
            fused_load(ElemTy::F32, BinOp::Add, 0, true),
            four,
            "use of freed array",
            5,
        ),
        (
            "negative index before use after free",
            fused_load(ElemTy::F32, BinOp::Sub, -1, true),
            four,
            "negative index -1",
            5,
        ),
        (
            "bad handle in a float register",
            load_from_argument(1),
            bad_handle,
            "bad array handle 99",
            3,
        ),
        (
            "negative index before bad handle",
            load_from_argument(-1),
            bad_handle,
            "negative index -2",
            3,
        ),
        (
            // An `int[]` register handed a float array (handle 0, the
            // `float[4]` every row's machine starts with): a handle from
            // outside carries no element type, so the store finds out.
            "int stored into a float array",
            one_function_of(Ty::Arr(ElemTy::I32), |fb| {
                let (i, v) = (fb.reg(Ty::I32), fb.reg(Ty::I32));
                fb.emit(Instr::ConstI32(i, 1));
                fb.emit(Instr::ConstI32(v, 4));
                fb.emit(Instr::StArr {
                    arr: 0,
                    idx: i,
                    src: v,
                });
                v
            }),
            Val::Arr(0),
            "type mismatch storing I32(4) into f32 array of length 4",
            2,
        ),
        (
            // Not a fusable pair: the `Br` must test its own register
            // (true: on to the division), not the `Lt`'s (4 < 1 is false:
            // straight to the return).
            "Lt then Br on another register",
            one_function(|fb| {
                let (d, one, c) = (fb.reg(Ty::Bool), fb.reg(Ty::I32), fb.reg(Ty::Bool));
                let (z, r) = (fb.reg(Ty::I32), fb.reg(Ty::I32));
                fb.emit(Instr::ConstBool(d, true));
                fb.emit(Instr::ConstI32(one, 1));
                fb.emit(int_bin(BinOp::Lt, 0, one, c));
                fb.emit(Instr::Br {
                    cond: d,
                    t: 4,
                    f: 6,
                });
                fb.emit(Instr::ConstI32(z, 0));
                fb.emit(int_bin(BinOp::Div, 0, z, r));
                0
            }),
            four,
            "division by zero",
            5,
        ),
        (
            // The jump lands on the `LdArr` of a fused pair: it loads at
            // the index it finds (9), not at the `Add`'s (18).
            "jump into the second half of a pair",
            one_function(|fb| {
                let arr = fb.reg(Ty::Arr(ElemTy::F32));
                let (t, out) = (fb.reg(Ty::I32), fb.reg(Ty::F32));
                fb.emit(Instr::NewArr {
                    elem: ElemTy::F32,
                    len: 0,
                    dst: arr,
                });
                fb.emit(Instr::ConstI32(t, 9));
                fb.emit(Instr::Jmp(4));
                fb.emit(int_bin(BinOp::Add, t, t, t));
                fb.emit(Instr::LdArr {
                    arr,
                    idx: t,
                    dst: out,
                });
                out
            }),
            four,
            "array index 9 out of bounds (len 4)",
            4,
        ),
    ];
    for (name, program, arg, message, pc) in table {
        let mut m = Machine::new();
        m.mem.alloc(exec::ArrStore::F32(vec![0.0; 4]));
        let e = exec::run_to_completion(&program, FuncId(0), vec![arg], &mut m).expect_err(name);
        assert_eq!(
            (e.message.as_str(), e.func.as_str(), e.pc),
            (message, "f", pc),
            "{name}"
        );
    }
}

/// What the loop no longer checks: an ill-typed program is the
/// verifier's rejection, at the instruction the loop used to fail at.
#[test]
fn ill_typed_programs_are_verifier_rejections() {
    let table: Vec<(&str, Program, &str, u32)> = vec![
        (
            "ill-typed bin",
            one_function(|fb| {
                let a = fb.reg(Ty::F32);
                let r = fb.reg(Ty::I32);
                fb.emit(Instr::ConstF32(a, 1.5));
                fb.emit(int_bin(BinOp::Add, 0, a, r));
                r
            }),
            "right operand r1 is F32, expected I32",
            1,
        ),
        (
            "int stored into a float array",
            one_function(|fb| {
                let (arr, i) = (fb.reg(Ty::Arr(ElemTy::F32)), fb.reg(Ty::I32));
                fb.emit(Instr::NewArr {
                    elem: ElemTy::F32,
                    len: 0,
                    dst: arr,
                });
                fb.emit(Instr::ConstI32(i, 1));
                fb.emit(Instr::StArr {
                    arr,
                    idx: i,
                    src: 0,
                });
                0
            }),
            "stored value r0 is I32, expected F32",
            2,
        ),
        (
            "Br on an int",
            one_function(|fb| {
                let (one, c) = (fb.reg(Ty::I32), fb.reg(Ty::Bool));
                fb.emit(Instr::ConstI32(one, 1));
                fb.emit(int_bin(BinOp::Lt, 0, one, c));
                fb.emit(Instr::Br {
                    cond: 0,
                    t: 3,
                    f: 3,
                });
                0
            }),
            "condition r0 is I32, expected Bool",
            2,
        ),
    ];
    for (name, program, message, pc) in table {
        let e = program.verify().expect_err(name);
        assert_eq!(
            (e.message.as_str(), e.func.as_str(), e.pc),
            (message, "f", pc),
            "{name}"
        );
    }
}

/// Where a value does cross into a register, it is checked against the
/// register's declared type: entry arguments, a serviced yield's result,
/// and a restored checkpoint frame.
#[test]
fn values_enter_registers_only_as_their_declared_type() {
    // `fn f(x: i32) -> f32 { return host0(); }` with host0 declared
    // `() -> float`.
    let mut p = one_function(|fb| {
        let r = fb.reg(Ty::F32);
        fb.emit(Instr::CallHost {
            host: 0,
            args: vec![],
            dst: Some(r),
        });
        r
    });
    p.host_fns.push(nir::HostFnSig {
        name: "ext.f".into(),
        params: vec![],
        ret: Some(Ty::F32),
    });
    p.verify().unwrap();
    let image = Image::build(&p).unwrap();

    // An entry argument of another type is refused up front.
    let e = Thread::new(&p, FuncId(0), &[Val::F32(4.0)]).unwrap_err();
    assert_eq!(
        (e.message.as_str(), e.func.as_str()),
        ("argument 0 of `f` is F32(4.0), expected I32", "f")
    );

    // A host function that answers an int for a float signature: the
    // resume fails at the call, and stores nothing.
    let mut m = Machine::new();
    let mut t = Thread::new(&p, FuncId(0), &[Val::I32(4)]).unwrap();
    let y = run(&mut t, &image, &mut m, u64::MAX).unwrap();
    assert!(matches!(y, Yield::Host { host: 0, .. }), "{y:?}");
    let e = t.resume_with(&p, Val::I32(3)).unwrap_err();
    assert_eq!(
        (e.message.as_str(), e.func.as_str(), e.pc),
        ("I32(3) does not fit a F32 register", "f", 0)
    );
    // The right type resumes the thread to its result.
    let mut t = Thread::new(&p, FuncId(0), &[Val::I32(4)]).unwrap();
    run(&mut t, &image, &mut m, u64::MAX).unwrap();
    t.resume_with(&p, Val::F32(2.5)).unwrap();
    let y = run(&mut t, &image, &mut m, u64::MAX).unwrap();
    assert!(matches!(y, Yield::Done(Some(Val::F32(2.5)))), "{y:?}");

    // A checkpointed frame whose register disagrees with the program
    // restoring it: the same frame written for `x: f32` does not restore
    // as `x: i32`, while a never-written register's `Unit` reads as 0.
    let mut as_float = p.clone();
    as_float.func_mut(FuncId(0)).params[0] = Ty::F32;
    as_float.func_mut(FuncId(0)).regs[0] = Ty::F32;
    let t = Thread::new(&as_float, FuncId(0), &[Val::F32(4.0)]).unwrap();
    let mut w = Writer::new();
    ckpt::write_thread(&mut w, &t, &as_float);
    let bytes = w.into_bytes();
    let e = ckpt::read_thread(&mut nir::codec::Reader::new(&bytes), &p).unwrap_err();
    assert!(
        matches!(&e, ckpt::CkptError::Corrupt { message, .. }
            if message == "register r0 of `f` holds F32(4.0), declared I32"),
        "{e}"
    );
    let back = ckpt::read_thread(&mut nir::codec::Reader::new(&bytes), &as_float).unwrap();
    let mut again = Writer::new();
    ckpt::write_thread(&mut again, &back, &as_float);
    assert_eq!(again.into_bytes(), bytes);
    let mut unit = Writer::new();
    unit.len(1);
    unit.u32(0);
    unit.u32(0);
    vec![Val::I32(4), Val::Unit].put(&mut unit);
    None::<u32>.put(&mut unit);
    None::<u32>.put(&mut unit);
    unit.bool(false);
    let bytes = unit.into_bytes();
    let back = ckpt::read_thread(&mut nir::codec::Reader::new(&bytes), &p).unwrap();
    let mut w = Writer::new();
    ckpt::write_thread(&mut w, &back, &p);
    let mut typed_zero = Writer::new();
    typed_zero.len(1);
    typed_zero.u32(0);
    typed_zero.u32(0);
    vec![Val::I32(4), Val::F32(0.0)].put(&mut typed_zero);
    None::<u32>.put(&mut typed_zero);
    None::<u32>.put(&mut typed_zero);
    typed_zero.bool(false);
    assert_eq!(w.into_bytes(), typed_zero.into_bytes());
}

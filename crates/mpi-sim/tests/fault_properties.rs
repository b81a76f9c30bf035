//! Seeded, dependency-free property tests for the fault-injection layer:
//! for *any* fault plan and small world, `World::run` either completes or
//! returns a typed [`SimError`] — it never panics and never hangs — and the
//! same seed reproduces the exact same outcome bit-for-bit.
//!
//! No proptest/quickcheck: cases are driven by the same xorshift64* idiom
//! the fault plans themselves use, so the whole suite is deterministic.

use exec::{FaultConfig, Val};
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use mpi_sim::{SimError, World};
use nir::{ElemTy, FuncBuilder, FuncId, FuncKind, Instr, IntrinOp, Program, Ty};

/// xorshift64* (the in-tree PRNG idiom) for deriving per-case parameters.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn unit(state: &mut u64) -> f64 {
    (next(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Each rank runs `steps` rounds of a ring exchange (send to rank+1, recv
/// from rank-1), then contributes buf[0] to an allreduce-sum. Exercises
/// point-to-point sends/recvs (drop/corrupt/delay targets), a collective,
/// and enough yield points for crash/fuel draws to land.
fn ring_program(steps: i32) -> (Program, FuncId) {
    let mut fb = FuncBuilder::new("ring", vec![], Some(Ty::F32), FuncKind::Host);
    let rank = fb.reg(Ty::I32);
    let size = fb.reg(Ty::I32);
    let zero = fb.reg(Ty::I32);
    let one = fb.reg(Ty::I32);
    let n = fb.reg(Ty::I32);
    let limit = fb.reg(Ty::I32);
    let i = fb.reg(Ty::I32);
    let dest = fb.reg(Ty::I32);
    let src = fb.reg(Ty::I32);
    let tag = fb.reg(Ty::I32);
    let buf = fb.reg(Ty::Arr(ElemTy::F32));
    let v = fb.reg(Ty::F32);
    let cond = fb.reg(Ty::Bool);
    let out = fb.reg(Ty::F32);
    let head = fb.label();
    let body = fb.label();
    let done = fb.label();

    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiRank,
        args: vec![],
        dst: Some(rank),
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiSize,
        args: vec![],
        dst: Some(size),
    });
    fb.emit(Instr::ConstI32(zero, 0));
    fb.emit(Instr::ConstI32(one, 1));
    fb.emit(Instr::ConstI32(n, 2));
    fb.emit(Instr::ConstI32(tag, 3));
    fb.emit(Instr::ConstI32(limit, steps));
    fb.emit(Instr::ConstI32(i, 0));
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: n,
        dst: buf,
    });
    // buf[0] = rank (as float via int->float add with 0.0f is not available;
    // store a constant then add the int rank through a Cast-free path:
    // simply seed with 1.0 so corruption/averaging still shows up in sums).
    fb.emit(Instr::ConstF32(v, 1.0));
    fb.emit(Instr::StArr {
        arr: buf,
        idx: zero,
        src: v,
    });
    // dest = (rank + 1) % size; src = (rank + size - 1) % size
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Int,
        dst: dest,
        lhs: rank,
        rhs: one,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Rem,
        kind: PrimKind::Int,
        dst: dest,
        lhs: dest,
        rhs: size,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Int,
        dst: src,
        lhs: rank,
        rhs: size,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Sub,
        kind: PrimKind::Int,
        dst: src,
        lhs: src,
        rhs: one,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Rem,
        kind: PrimKind::Int,
        dst: src,
        lhs: src,
        rhs: size,
    });
    fb.jmp(head);
    fb.bind(head);
    fb.emit(Instr::Bin {
        op: BinOp::Lt,
        kind: PrimKind::Int,
        dst: cond,
        lhs: i,
        rhs: limit,
    });
    fb.br(cond, body, done);
    fb.bind(body);
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiSendF32,
        args: vec![buf, zero, n, dest, tag],
        dst: None,
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiRecvF32,
        args: vec![buf, zero, n, src, tag],
        dst: None,
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
    fb.emit(Instr::LdArr {
        arr: buf,
        idx: zero,
        dst: v,
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiAllreduceSumF32,
        args: vec![v],
        dst: Some(out),
    });
    fb.emit(Instr::Ret(Some(out)));
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    p.verify().unwrap();
    (p, id)
}

/// One case: run the ring world under a seed-derived fault plan and return
/// either the (stats, vtime) pair or the typed error's display string.
fn run_case(
    program: &Program,
    entry: FuncId,
    size: u32,
    cfg: FaultConfig,
) -> Result<String, String> {
    let world = World::new(program, size)
        .with_faults(cfg)
        .with_timeout(5_000);
    match world.run(entry, |_, _| Ok(vec![])) {
        Ok(run) => Ok(format!("{:?} vtime={}", run.resilience, run.vtime)),
        Err(
            e @ (SimError::Rank { .. }
            | SimError::Crash { .. }
            | SimError::Timeout { .. }
            | SimError::Deadlock { .. }
            | SimError::CheckpointScope { .. }
            | SimError::World { .. }),
        ) => Err(e.to_string()),
    }
}

/// The headline property: 64+ seeds, arbitrary small rates and world
/// sizes — every run returns (Ok or typed error), and re-running with the
/// same seed reproduces the outcome exactly.
#[test]
fn any_fault_plan_completes_or_fails_typed_and_reproducibly() {
    let (program, entry) = ring_program(6);
    let mut completed = 0usize;
    let mut failed = 0usize;
    for seed in 0..72u64 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let size = 2 + (next(&mut s) % 4) as u32; // 2..=5
        let mut cfg = FaultConfig::seeded(0xF_A17 + seed);
        cfg.crash = unit(&mut s) * 0.05;
        cfg.fuel_exhaust = unit(&mut s) * 0.05;
        cfg.msg_drop = unit(&mut s) * 0.05;
        cfg.msg_corrupt = unit(&mut s) * 0.10;
        cfg.msg_delay = unit(&mut s) * 0.10;
        let first = run_case(&program, entry, size, cfg);
        let second = run_case(&program, entry, size, cfg);
        assert_eq!(
            first, second,
            "seed {seed}: same plan must reproduce the same outcome"
        );
        match first {
            Ok(_) => completed += 1,
            Err(_) => failed += 1,
        }
    }
    // The rates are low enough that both outcomes must occur across the
    // sweep — otherwise the property is vacuous.
    assert!(completed > 0, "no case completed");
    assert!(failed > 0, "no case hit a typed failure");
}

/// With crash probability 1.0 every rank dies at its first yield point and
/// the world must fail with a crash post-mortem naming a rank, not hang.
#[test]
fn certain_crash_yields_post_mortem_not_hang() {
    let (program, entry) = ring_program(4);
    let mut cfg = FaultConfig::seeded(11);
    cfg.crash = 1.0;
    let world = World::new(&program, 3).with_faults(cfg);
    let err = world.run(entry, |_, _| Ok(vec![])).unwrap_err();
    match err {
        SimError::Crash {
            rank, post_mortem, ..
        } => {
            assert!(rank < 3);
            assert!(
                post_mortem.contains("crashed at step"),
                "post-mortem must show the crash: {post_mortem}"
            );
        }
        other => panic!("expected Crash, got {other}"),
    }
}

/// With every message dropped, receivers starve. The run must end in a
/// typed Deadlock/Timeout whose report shows the blocked Recv with its
/// waited-on source, tag, and pending-queue depth (the debuggability
/// contract of the blocked-state report).
#[test]
fn certain_drop_fails_typed_with_queue_depth_report() {
    let (program, entry) = ring_program(2);
    let mut cfg = FaultConfig::seeded(7);
    cfg.msg_drop = 1.0;
    let world = World::new(&program, 2).with_faults(cfg);
    let err = world.run(entry, |_, _| Ok(vec![])).unwrap_err();
    let report = match err {
        SimError::Deadlock { ref report } => report.clone(),
        SimError::Timeout { ref report, .. } => report.clone(),
        ref other => panic!("expected Deadlock or Timeout, got {other}"),
    };
    assert!(report.contains("blocked on Recv"), "report: {report}");
    assert!(report.contains("tag 3"), "report: {report}");
    assert!(report.contains("matching queued"), "report: {report}");
}

/// A genuine hang — one rank spinning forever in pure compute while its
/// peer waits in a Recv — must be converted into a typed Timeout by the
/// per-collective round bound rather than looping forever.
#[test]
fn genuine_hang_becomes_typed_timeout() {
    // rank 0: infinite loop; rank != 0: recv that can never be satisfied.
    let mut fb = FuncBuilder::new("hang", vec![], Some(Ty::F32), FuncKind::Host);
    let rank = fb.reg(Ty::I32);
    let zero = fb.reg(Ty::I32);
    let n = fb.reg(Ty::I32);
    let buf = fb.reg(Ty::Arr(ElemTy::F32));
    let cond = fb.reg(Ty::Bool);
    let out = fb.reg(Ty::F32);
    let spin = fb.label();
    let wait = fb.label();
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiRank,
        args: vec![],
        dst: Some(rank),
    });
    fb.emit(Instr::ConstI32(zero, 0));
    fb.emit(Instr::ConstI32(n, 1));
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: n,
        dst: buf,
    });
    fb.emit(Instr::ConstF32(out, 0.0));
    fb.emit(Instr::Bin {
        op: BinOp::Eq,
        kind: PrimKind::Int,
        dst: cond,
        lhs: rank,
        rhs: zero,
    });
    fb.br(cond, spin, wait);
    fb.bind(spin);
    fb.jmp(spin);
    fb.bind(wait);
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiRecvF32,
        args: vec![buf, zero, n, zero, zero],
        dst: None,
    });
    fb.emit(Instr::Ret(Some(out)));
    let mut p = Program::default();
    let entry = p.add_func(fb.finish().unwrap());
    p.verify().unwrap();

    let mut world = World::new(&p, 2);
    world.slice = 10_000; // keep each spin round cheap
    let world = world.with_timeout(50);
    match world.run(entry, |_, _| Ok(vec![])) {
        Err(SimError::Timeout {
            rank,
            waited_rounds,
            report,
        }) => {
            assert_eq!(rank, 1, "the blocked rank is reported");
            assert!(waited_rounds > 50);
            assert!(report.contains("blocked on Recv"), "report: {report}");
            assert!(report.contains("runnable"), "report: {report}");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
}

/// Fault-free worlds are unaffected by the resilience layer: no stats, and
/// the ring completes with the expected allreduce value.
#[test]
fn fault_free_ring_is_clean_and_stats_are_zero() {
    let (program, entry) = ring_program(5);
    let world = World::new(&program, 4);
    let run = world.run(entry, |_, _| Ok(vec![])).unwrap();
    assert_eq!(run.resilience.injected(), 0);
    assert_eq!(run.resilience, exec::ResilienceStats::default());
    for out in &run.ranks {
        // every buf[0] stays 1.0 through the ring, so the sum is 4.0
        assert_eq!(out.result, Some(Val::F32(4.0)));
    }
}

/// Injected-but-survivable plans produce *identical* ResilienceStats and
/// virtual time across repeated runs (bit-for-bit determinism), and the
/// stats actually record injections.
#[test]
fn surviving_runs_report_identical_nonzero_stats() {
    let (program, entry) = ring_program(8);
    let mut cfg = FaultConfig::seeded(0xD00D);
    cfg.msg_delay = 0.3;
    cfg.msg_corrupt = 0.3;
    cfg.fuel_exhaust = 0.2;
    let world = World::new(&program, 4).with_faults(cfg);
    let a = world.run(entry, |_, _| Ok(vec![])).unwrap();
    let b = world.run(entry, |_, _| Ok(vec![])).unwrap();
    assert!(a.resilience.injected() > 0, "stats: {:?}", a.resilience);
    assert_eq!(a.resilience, b.resilience);
    assert_eq!(a.vtime, b.vtime);
    for (x, y) in a.ranks.iter().zip(&b.ranks) {
        assert_eq!(x.result, y.result);
        assert_eq!(x.vclock, y.vclock);
    }
}

/// Host program with a device kernel in its step loop: fill an array,
/// copy it to the GPU, run `steps` rounds of (scale-by-2 kernel launch,
/// allreduce barrier), copy back, return `arr[0]` (= 2^steps). The
/// allreduce per step gives the checkpointing layer collective
/// boundaries; the kernel gives the per-SM device fault streams yield
/// points to crash at.
fn gpu_step_program(steps: i32) -> (Program, FuncId) {
    let mut p = Program::default();
    // Kernel: a[gid] *= 2 for gid < len.
    let mut kb = FuncBuilder::new("scale", vec![Ty::Arr(ElemTy::F32)], None, FuncKind::Kernel);
    let tid = kb.reg(Ty::I32);
    let bid = kb.reg(Ty::I32);
    let bdim = kb.reg(Ty::I32);
    let gid = kb.reg(Ty::I32);
    let len = kb.reg(Ty::I32);
    let inb = kb.reg(Ty::Bool);
    let v = kb.reg(Ty::F32);
    let two = kb.reg(Ty::F32);
    let kbody = kb.label();
    let kdone = kb.label();
    kb.emit(Instr::Intrin {
        op: IntrinOp::ThreadIdx(0),
        args: vec![],
        dst: Some(tid),
    });
    kb.emit(Instr::Intrin {
        op: IntrinOp::BlockIdx(0),
        args: vec![],
        dst: Some(bid),
    });
    kb.emit(Instr::Intrin {
        op: IntrinOp::BlockDim(0),
        args: vec![],
        dst: Some(bdim),
    });
    kb.emit(Instr::Bin {
        op: BinOp::Mul,
        kind: PrimKind::Int,
        dst: gid,
        lhs: bid,
        rhs: bdim,
    });
    kb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Int,
        dst: gid,
        lhs: gid,
        rhs: tid,
    });
    kb.emit(Instr::ArrLen { arr: 0, dst: len });
    kb.emit(Instr::Bin {
        op: BinOp::Lt,
        kind: PrimKind::Int,
        dst: inb,
        lhs: gid,
        rhs: len,
    });
    kb.br(inb, kbody, kdone);
    kb.bind(kbody);
    kb.emit(Instr::LdArr {
        arr: 0,
        idx: gid,
        dst: v,
    });
    kb.emit(Instr::ConstF32(two, 2.0));
    kb.emit(Instr::Bin {
        op: BinOp::Mul,
        kind: PrimKind::Float,
        dst: v,
        lhs: v,
        rhs: two,
    });
    kb.emit(Instr::StArr {
        arr: 0,
        idx: gid,
        src: v,
    });
    kb.jmp(kdone);
    kb.bind(kdone);
    kb.emit(Instr::Ret(None));
    let kid = p.add_func(kb.finish().unwrap());

    // Host driver.
    let mut fb = FuncBuilder::new("run", vec![], Some(Ty::F32), FuncKind::Host);
    let zero = fb.reg(Ty::I32);
    let one = fb.reg(Ty::I32);
    let two_i = fb.reg(Ty::I32);
    let four = fb.reg(Ty::I32);
    let n = fb.reg(Ty::I32);
    let limit = fb.reg(Ty::I32);
    let i = fb.reg(Ty::I32);
    let cond = fb.reg(Ty::Bool);
    let arr = fb.reg(Ty::Arr(ElemTy::F32));
    let dev = fb.reg(Ty::Arr(ElemTy::F32));
    let fone = fb.reg(Ty::F32);
    let s = fb.reg(Ty::F32);
    let out = fb.reg(Ty::F32);
    fb.emit(Instr::ConstI32(zero, 0));
    fb.emit(Instr::ConstI32(one, 1));
    fb.emit(Instr::ConstI32(two_i, 2));
    fb.emit(Instr::ConstI32(four, 4));
    fb.emit(Instr::ConstI32(n, 8));
    fb.emit(Instr::ConstI32(limit, steps));
    fb.emit(Instr::ConstF32(fone, 1.0));
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: n,
        dst: arr,
    });
    // arr[j] = 1.0 for all j
    fb.emit(Instr::ConstI32(i, 0));
    let fhead = fb.label();
    let fbody = fb.label();
    let fdone = fb.label();
    fb.bind(fhead);
    fb.emit(Instr::Bin {
        op: BinOp::Lt,
        kind: PrimKind::Int,
        dst: cond,
        lhs: i,
        rhs: n,
    });
    fb.br(cond, fbody, fdone);
    fb.bind(fbody);
    fb.emit(Instr::StArr {
        arr,
        idx: i,
        src: fone,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Int,
        dst: i,
        lhs: i,
        rhs: one,
    });
    fb.jmp(fhead);
    fb.bind(fdone);
    fb.emit(Instr::Intrin {
        op: IntrinOp::CopyToGpu,
        args: vec![arr],
        dst: Some(dev),
    });
    fb.emit(Instr::ConstI32(i, 0));
    let head = fb.label();
    let body = fb.label();
    let done = fb.label();
    fb.bind(head);
    fb.emit(Instr::Bin {
        op: BinOp::Lt,
        kind: PrimKind::Int,
        dst: cond,
        lhs: i,
        rhs: limit,
    });
    fb.br(cond, body, done);
    fb.bind(body);
    fb.emit(Instr::Launch {
        kernel: kid,
        grid: [two_i, one, one],
        block: [four, one, one],
        args: vec![dev],
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiAllreduceSumF32,
        args: vec![fone],
        dst: Some(s),
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
    fb.emit(Instr::Intrin {
        op: IntrinOp::CopyFromGpu,
        args: vec![arr, dev],
        dst: None,
    });
    fb.emit(Instr::LdArr {
        arr,
        idx: zero,
        dst: out,
    });
    fb.emit(Instr::Ret(Some(out)));
    let id = p.add_func(fb.finish().unwrap());
    p.verify().unwrap();
    (p, id)
}

/// Device-side fault plans: worlds with GPUs under injected crashes fail
/// *typed* (never a panic, never an untyped rank error), reproducibly —
/// and the kernel-heavy program gives the per-SM streams plenty of draws.
#[test]
fn device_faults_fail_typed_and_reproducibly() {
    let (program, entry) = gpu_step_program(6);
    let mut crashed = 0usize;
    for seed in 0..24u64 {
        let mut cfg = FaultConfig::seeded(0x6B0 + seed);
        cfg.crash = 0.002;
        let world = || {
            World::new(&program, 2)
                .with_gpu(gpu_sim::GpuConfig::default())
                .with_faults(cfg)
                .with_timeout(5_000)
        };
        let outcome = |w: World| match w.run(entry, |_, _| Ok(vec![])) {
            Ok(run) => Ok(format!("{:?} vtime={}", run.resilience, run.vtime)),
            Err(e) => Err(e.to_string()),
        };
        let first = outcome(world());
        let second = outcome(world());
        assert_eq!(first, second, "seed {seed} must reproduce");
        if let Err(msg) = first {
            assert!(
                msg.contains("crashed") || msg.contains("timed out"),
                "seed {seed}: unexpected failure {msg}"
            );
            crashed += 1;
        }
    }
    assert!(
        crashed > 0,
        "no seed crashed — the device plans never fired"
    );
}

/// The restart path recovers injected *device* crashes too: the world
/// rolls back (device memory included), reseeds every per-SM stream, and
/// completes with the fault-free answer (2^steps in every rank's buffer).
#[test]
fn restart_recovers_device_crashes_bit_identically() {
    let (program, entry) = gpu_step_program(6);
    let clean: Vec<_> = World::new(&program, 2)
        .with_gpu(gpu_sim::GpuConfig::default())
        .run(entry, |_, _| Ok(vec![]))
        .unwrap()
        .ranks
        .into_iter()
        .map(|r| r.result)
        .collect();
    assert_eq!(clean, vec![Some(Val::F32(64.0)); 2]); // 2^6
    let mut recovered = 0usize;
    for seed in 0..24u64 {
        let mut cfg = FaultConfig::seeded(0x6B0 + seed);
        cfg.crash = 0.002;
        let world = World::new(&program, 2)
            .with_gpu(gpu_sim::GpuConfig::default())
            .with_faults(cfg)
            .with_timeout(5_000);
        let Err(mpi_sim::SimError::Crash { .. }) = world.run(entry, |_, _| Ok(vec![])) else {
            continue;
        };
        let run = world
            .run_with_restart(
                entry,
                |_, _| Ok(vec![]),
                &mpi_sim::CheckpointPolicy::every(1),
                128,
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let got: Vec<_> = run.ranks.into_iter().map(|r| r.result).collect();
        assert_eq!(got, clean, "seed {seed}");
        recovered += 1;
    }
    assert!(recovered > 0, "no crashing seed to recover");
}

/// Each rank runs `steps` rounds of (post a message to rank+1 that no
/// rank receives, allreduce): every round makes one send draw and one
/// collective draw per rank, and a lost message stalls nobody.
fn post_program(steps: i32) -> (Program, FuncId) {
    let mut fb = FuncBuilder::new("post", vec![], Some(Ty::F32), FuncKind::Host);
    let [rank, size, zero, one, limit, i, dest] = [(); 7].map(|_| fb.reg(Ty::I32));
    let buf = fb.reg(Ty::Arr(ElemTy::F32));
    let v = fb.reg(Ty::F32);
    let cond = fb.reg(Ty::Bool);
    let (head, body, done) = (fb.label(), fb.label(), fb.label());
    let intrin = |op, args, dst| Instr::Intrin { op, args, dst };
    let int = |op, dst, lhs, rhs| Instr::Bin {
        op,
        kind: PrimKind::Int,
        dst,
        lhs,
        rhs,
    };
    fb.emit(intrin(IntrinOp::MpiRank, vec![], Some(rank)));
    fb.emit(intrin(IntrinOp::MpiSize, vec![], Some(size)));
    fb.emit(Instr::ConstI32(zero, 0));
    fb.emit(Instr::ConstI32(one, 1));
    fb.emit(Instr::ConstI32(limit, steps));
    fb.emit(Instr::ConstI32(i, 0));
    fb.emit(Instr::ConstF32(v, 1.0));
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: one,
        dst: buf,
    });
    fb.emit(int(BinOp::Add, dest, rank, one));
    fb.emit(int(BinOp::Rem, dest, dest, size));
    fb.bind(head);
    fb.emit(int(BinOp::Lt, cond, i, limit));
    fb.br(cond, body, done);
    fb.bind(body);
    fb.emit(intrin(
        IntrinOp::MpiSendF32,
        vec![buf, zero, one, dest, i],
        None,
    ));
    fb.emit(intrin(IntrinOp::MpiAllreduceSumF32, vec![v], Some(v)));
    fb.emit(int(BinOp::Add, i, i, one));
    fb.jmp(head);
    fb.bind(done);
    fb.emit(Instr::Ret(Some(v)));
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    p.verify().unwrap();
    (p, id)
}

/// The order of the fault draws, pinned at world level: a dropped
/// message draws no frame fate after it, and a payload draws corruption
/// before delay, collectives included. Either order changed moves these
/// counters.
#[test]
fn fault_draw_order_is_pinned() {
    use exec::ResilienceStats;
    let (program, entry) = post_program(12);
    let run = |cfg: FaultConfig| {
        let run = World::new(&program, 4)
            .with_faults(cfg)
            .run(entry, |_, _| Ok(vec![]))
            .unwrap();
        (run.resilience, run.vtime)
    };
    let lost = FaultConfig {
        msg_drop: 0.2,
        frame_truncate: 0.2,
        ..FaultConfig::seeded(0)
    };
    let lost_stats = ResilienceStats {
        dropped_messages: 10,
        truncated_frames: 9,
        ..Default::default()
    };
    assert_eq!(run(lost), (lost_stats, 288_309));
    let damaged = FaultConfig {
        msg_corrupt: 0.2,
        msg_delay: 0.2,
        ..FaultConfig::seeded(0)
    };
    let damaged_stats = ResilienceStats {
        corrupted_messages: 23,
        delayed_messages: 17,
        ..Default::default()
    };
    assert_eq!(run(damaged), (damaged_stats, 638_309));
}

//! The executor-seam replay property: for *any* seeded fault plan,
//! world size, and worker count, a world whose slices run on OS threads
//! ([`ExecutorCfg::Threads`]) is observationally identical to the
//! historical serial loop — same results, same per-rank virtual clocks,
//! same resilience counters, same typed error on failure — because
//! `exec::pool::run_batch` hands slices back in the seeded batch order
//! the scheduler chose.
//!
//! No proptest/quickcheck: cases are driven by the same xorshift64*
//! idiom the fault plans themselves use, so the suite is deterministic.

use exec::{FaultConfig, Machine};
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use mpi_sim::{
    CheckpointPolicy, ExecMode, ExecutorCfg, LocalPool, RankPool, SimError, World, WorldRun,
};
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

/// Each rank runs `steps` rounds of a ring exchange (send to rank+1,
/// recv from rank-1), then contributes buf[0] to an allreduce-sum:
/// point-to-point traffic for the fault plan to chew on, a collective,
/// and plenty of yield points for crash/fuel draws to land.
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
    p.validate().unwrap();
    (p, id)
}

/// Everything an executor could plausibly perturb, flattened to one
/// comparable string: per-rank results + virtual clocks + cycle splits,
/// world figure-of-merit, and the resilience/restart counters.
fn fingerprint(run: &WorldRun) -> String {
    let ranks: Vec<String> = run
        .ranks
        .iter()
        .map(|r| {
            format!(
                "{:?}/v{}/c{}/m{}",
                r.result, r.vclock, r.compute_cycles, r.comm_cycles
            )
        })
        .collect();
    format!(
        "[{}] vtime={} total={} res={:?} restarts={}",
        ranks.join(" "),
        run.vtime,
        run.total_cycles,
        run.resilience,
        run.restart.restarts
    )
}

/// One case: Ok(fingerprint) on completion, Err(typed display) on a
/// typed failure — both sides of the property must match exactly.
fn run_case(
    program: &Program,
    entry: FuncId,
    size: u32,
    cfg: FaultConfig,
    executor: ExecutorCfg,
) -> Result<String, String> {
    let world = World::new(program, size)
        .with_faults(cfg)
        .with_timeout(5_000)
        .with_executor(executor);
    world
        .run(entry, |_, _| Ok(vec![]))
        .map(|run| fingerprint(&run))
        .map_err(|e| e.to_string())
}

/// The headline property: 64 seeds × worker counts {1,2,4,8}. Every
/// seed derives a world size and a fault mix (drops, corruption,
/// delays, crashes, fuel exhaustion); the serial reference outcome —
/// completion fingerprint or typed error — must be reproduced
/// bit-for-bit by replay-mode OS threads at every worker count.
#[test]
fn thread_replay_matches_sim_for_any_fault_plan_and_worker_count() {
    let (program, entry) = ring_program(5);
    let mut completed = 0usize;
    let mut failed = 0usize;
    for seed in 0..64u64 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let size = 2 + (next(&mut s) % 4) as u32; // 2..=5
        let mut cfg = FaultConfig::seeded(0xE8EC + seed);
        cfg.crash = unit(&mut s) * 0.04;
        cfg.fuel_exhaust = unit(&mut s) * 0.04;
        cfg.msg_drop = unit(&mut s) * 0.04;
        cfg.msg_corrupt = unit(&mut s) * 0.08;
        cfg.msg_delay = unit(&mut s) * 0.10;
        let reference = run_case(&program, entry, size, cfg, ExecutorCfg::Sim);
        for workers in [1u32, 2, 4, 8] {
            let threaded = run_case(
                &program,
                entry,
                size,
                cfg,
                ExecutorCfg::Threads {
                    workers,
                    mode: ExecMode::Replay,
                },
            );
            assert_eq!(
                reference, threaded,
                "seed {seed} size {size} workers {workers}: replay must be bit-identical to sim"
            );
        }
        match reference {
            Ok(_) => completed += 1,
            Err(_) => failed += 1,
        }
    }
    // Both outcomes must occur across the sweep, or the property is
    // vacuous (all-clean would never exercise the fault paths under
    // threads; all-failed would never exercise full completion).
    assert!(completed > 0, "no case completed");
    assert!(failed > 0, "no case hit a typed failure");
}

/// Checkpoint/rollback under threads: crash-heavy plans that *recover*
/// via `run_with_restart` must also be bit-identical — rollback
/// bookkeeping (restart counts, vtime lost, reseeded fault cursors) is
/// scheduler state the executor seam must not perturb.
#[test]
fn thread_replay_matches_sim_through_restarts() {
    let (program, entry) = ring_program(4);
    let policy = CheckpointPolicy::every(1);
    let mut recovered = 0usize;
    for seed in 0..12u64 {
        let mut cfg = FaultConfig::seeded(0xC4A5_0000 + seed);
        cfg.crash = 0.05;
        let run = |executor: ExecutorCfg| {
            World::new(&program, 4)
                .with_faults(cfg)
                .with_timeout(20_000)
                .with_executor(executor)
                .run_with_restart(entry, |_, _| Ok(vec![]), &policy, 16)
                .map(|r| fingerprint(&r))
                .map_err(|e| e.to_string())
        };
        let reference = run(ExecutorCfg::Sim);
        for workers in [2u32, 8] {
            let threaded = run(ExecutorCfg::Threads {
                workers,
                mode: ExecMode::Replay,
            });
            assert_eq!(
                reference, threaded,
                "seed {seed} workers {workers}: restart path must replay identically"
            );
        }
        if matches!(&reference, Ok(fp) if fp.contains("restarts=") && !fp.contains("restarts=0")) {
            recovered += 1;
        }
    }
    assert!(
        recovered > 0,
        "no seed actually crashed and recovered — the restart property is vacuous"
    );
}

/// A batch that names a rank not live in the pool, or one rank twice, is
/// refused before any rank leaves the pool: the ranks listed ahead of the
/// bad one are still there to run.
#[test]
fn a_refused_batch_strands_no_rank() {
    let (p, entry) = ring_program(2);
    let world = World::new(&p, 2).with_executor(ExecutorCfg::Threads {
        workers: 2,
        mode: ExecMode::Replay,
    });
    let mut no_args = |_: u32, _: &mut Machine| Ok(vec![]);
    let mut pool = LocalPool::new(&world, entry, &mut no_args);
    pool.reinit().unwrap();
    let rows = [
        (&[0, 5][..], "rank 5 is not live in the local pool"),
        (&[1, 1][..], "rank 1 is listed twice in one batch"),
    ];
    for (batch, want) in rows {
        match pool.run_slices(batch, 100) {
            Err(SimError::World { message }) => assert_eq!(message, want),
            other => panic!("{batch:?}: expected a typed world error, got {other:?}"),
        }
    }
    let ran = pool.run_slices(&[0, 1], 100).expect("both ranks are live");
    assert_eq!(ran.len(), 2);
}

//! Process-mode conformance for the `dist` backend: real OS rank
//! processes (the `wj-dist-worker` binary) over loopback TCP must be
//! bit-identical to the in-process `mpi-sim` backend at 2, 4, and 8
//! ranks, and a killed rank process must recover through the
//! collective-boundary checkpoint chain with a typed outcome — no
//! panic, no hang (every wire wait is deadline-bounded).

use dist::{Launch, RemotePool};
use exec::{CkptError, Draw, Fate, FaultConfig, Machine, ResilienceStats, Val};
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use mpi_sim::{
    CheckpointPolicy, CostModel, DeviceOutcome, LocalPool, RankCtl, RankOutcome, RankPool,
    RankSnapshot, RankYield, Schedule, SimError, World, WorldRun,
};
use nir::{ElemTy, FuncBuilder, FuncId, FuncKind, Instr, IntrinOp, Program, Ty};
use std::path::PathBuf;

fn worker_launch() -> Launch {
    Launch::Processes {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_wj-dist-worker")),
        args: vec![],
    }
}

/// Every rank enters with no arguments.
fn no_args(_: u32, _: &mut Machine) -> Result<Vec<Val>, String> {
    Ok(vec![])
}

/// `world` on rank workers started by `launch`, without checkpoints.
fn run_remote(world: &World<'_>, entry: FuncId, launch: Launch) -> Result<WorldRun, SimError> {
    let mut args = no_args;
    let mut pool = RemotePool::new(world, entry, &mut args, launch)?;
    world.run_on(&mut pool, None)
}

/// The reference workload: each step, every rank passes its buffer
/// around the ring, halves what it received, and contributes the first
/// element to a global allreduce — one collective boundary per step
/// (checkpoint cut points), plus enough point-to-point traffic to
/// exercise the message path.
fn ring_step_reduce(n: i32, steps: i32) -> (Program, FuncId) {
    let mut fb = FuncBuilder::new("ring_step_reduce", vec![], Some(Ty::F32), FuncKind::Host);
    let rank = fb.reg(Ty::I32);
    let size = fb.reg(Ty::I32);
    let one = fb.reg(Ty::I32);
    let zero = fb.reg(Ty::I32);
    let nn = fb.reg(Ty::I32);
    let nsteps = fb.reg(Ty::I32);
    let tag = fb.reg(Ty::I32);
    let sbuf = fb.reg(Ty::Arr(ElemTy::F32));
    let rbuf = fb.reg(Ty::Arr(ElemTy::F32));
    let dest = fb.reg(Ty::I32);
    let src = fb.reg(Ty::I32);
    let i = fb.reg(Ty::I32);
    let s = fb.reg(Ty::I32);
    let cond = fb.reg(Ty::Bool);
    let base = fb.reg(Ty::I32);
    let iv = fb.reg(Ty::I32);
    let fv = fb.reg(Ty::F32);
    let half = fb.reg(Ty::F32);
    let first = fb.reg(Ty::F32);
    let global = fb.reg(Ty::F32);
    let acc = fb.reg(Ty::F32);

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
    fb.emit(Instr::ConstI32(one, 1));
    fb.emit(Instr::ConstI32(zero, 0));
    fb.emit(Instr::ConstI32(nn, n));
    fb.emit(Instr::ConstI32(nsteps, steps));
    fb.emit(Instr::ConstI32(tag, 7));
    fb.emit(Instr::ConstF32(half, 0.5));
    fb.emit(Instr::ConstF32(acc, 0.0));
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: nn,
        dst: sbuf,
    });
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: nn,
        dst: rbuf,
    });

    // sbuf[i] = rank * n + i
    fb.emit(Instr::Bin {
        op: BinOp::Mul,
        kind: PrimKind::Int,
        dst: base,
        lhs: rank,
        rhs: nn,
    });
    fb.emit(Instr::ConstI32(i, 0));
    let fill_head = fb.label();
    let fill_body = fb.label();
    let fill_done = fb.label();
    fb.bind(fill_head);
    fb.emit(Instr::Bin {
        op: BinOp::Lt,
        kind: PrimKind::Int,
        dst: cond,
        lhs: i,
        rhs: nn,
    });
    fb.br(cond, fill_body, fill_done);
    fb.bind(fill_body);
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Int,
        dst: iv,
        lhs: base,
        rhs: i,
    });
    fb.emit(Instr::Cast {
        to: PrimKind::Float,
        from: PrimKind::Int,
        dst: fv,
        src: iv,
    });
    fb.emit(Instr::StArr {
        arr: sbuf,
        idx: i,
        src: fv,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Int,
        dst: i,
        lhs: i,
        rhs: one,
    });
    fb.jmp(fill_head);
    fb.bind(fill_done);

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

    // step loop
    fb.emit(Instr::ConstI32(s, 0));
    let step_head = fb.label();
    let step_body = fb.label();
    let step_done = fb.label();
    fb.bind(step_head);
    fb.emit(Instr::Bin {
        op: BinOp::Lt,
        kind: PrimKind::Int,
        dst: cond,
        lhs: s,
        rhs: nsteps,
    });
    fb.br(cond, step_body, step_done);
    fb.bind(step_body);
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiSendRecvF32,
        args: vec![sbuf, zero, nn, dest, rbuf, zero, src, tag],
        dst: None,
    });
    // sbuf[i] = rbuf[i] * 0.5
    fb.emit(Instr::ConstI32(i, 0));
    let scale_head = fb.label();
    let scale_body = fb.label();
    let scale_done = fb.label();
    fb.bind(scale_head);
    fb.emit(Instr::Bin {
        op: BinOp::Lt,
        kind: PrimKind::Int,
        dst: cond,
        lhs: i,
        rhs: nn,
    });
    fb.br(cond, scale_body, scale_done);
    fb.bind(scale_body);
    fb.emit(Instr::LdArr {
        arr: rbuf,
        idx: i,
        dst: fv,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Mul,
        kind: PrimKind::Float,
        dst: fv,
        lhs: fv,
        rhs: half,
    });
    fb.emit(Instr::StArr {
        arr: sbuf,
        idx: i,
        src: fv,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Int,
        dst: i,
        lhs: i,
        rhs: one,
    });
    fb.jmp(scale_head);
    fb.bind(scale_done);
    // acc += allreduceSum(sbuf[0])
    fb.emit(Instr::LdArr {
        arr: sbuf,
        idx: zero,
        dst: first,
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiAllreduceSumF32,
        args: vec![first],
        dst: Some(global),
    });
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Float,
        dst: acc,
        lhs: acc,
        rhs: global,
    });
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Int,
        dst: s,
        lhs: s,
        rhs: one,
    });
    fb.jmp(step_head);
    fb.bind(step_done);
    fb.emit(Instr::Ret(Some(acc)));

    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    p.validate().unwrap();
    (p, id)
}

/// Full-run equality: results, clocks, cycle accounting, and output —
/// everything the scheduler and the pool produce.
fn assert_runs_identical(a: &mpi_sim::WorldRun, b: &mpi_sim::WorldRun, what: &str) {
    assert_eq!(a.vtime, b.vtime, "{what}: vtime diverged");
    assert_eq!(
        a.total_cycles, b.total_cycles,
        "{what}: total cycles diverged"
    );
    assert_eq!(a.ranks.len(), b.ranks.len(), "{what}: world size diverged");
    for (r, (x, y)) in a.ranks.iter().zip(&b.ranks).enumerate() {
        assert_eq!(
            format!("{:?}", x.result),
            format!("{:?}", y.result),
            "{what}: rank {r} result diverged"
        );
        assert_eq!(x.vclock, y.vclock, "{what}: rank {r} vclock diverged");
        assert_eq!(
            x.compute_cycles, y.compute_cycles,
            "{what}: rank {r} compute cycles diverged"
        );
        assert_eq!(
            x.comm_cycles, y.comm_cycles,
            "{what}: rank {r} comm cycles diverged"
        );
        assert_eq!(x.output, y.output, "{what}: rank {r} output diverged");
    }
}

#[test]
fn process_ranks_are_bit_identical_to_mpi_sim_at_2_4_and_8() {
    let (p, entry) = ring_step_reduce(8, 6);
    for size in [2u32, 4, 8] {
        let local = World::new(&p, size).run(entry, no_args).unwrap();
        let remote = run_remote(&World::new(&p, size), entry, worker_launch()).unwrap();
        assert_runs_identical(&local, &remote, &format!("size {size}"));
    }
}

#[test]
fn thread_workers_speak_the_same_wire_protocol() {
    // Launch::Threads runs the identical framed protocol over real
    // loopback sockets — same INIT program bytes, same restores.
    let (p, entry) = ring_step_reduce(4, 3);
    let local = World::new(&p, 4).run(entry, no_args).unwrap();
    let remote = run_remote(&World::new(&p, 4), entry, Launch::Threads).unwrap();
    assert_runs_identical(&local, &remote, "threads");
}

#[test]
fn connect_retry_is_bounded_seeded_and_survives_a_late_listener() {
    use dist::worker::{connect_with_retry, retry_backoff_ms, MAX_CONNECT_ATTEMPTS};
    use std::net::TcpListener;

    // The schedule is a pure function of (seed, attempt): deterministic,
    // exponential with a cap, jitter strictly below one extra base.
    for attempt in 1..=MAX_CONNECT_ATTEMPTS {
        let base = 2u64 << (attempt - 1).min(6);
        let a = retry_backoff_ms(0xFEED, attempt);
        let b = retry_backoff_ms(0xFEED, attempt);
        assert_eq!(a, b, "backoff must be deterministic");
        assert!((base..2 * base).contains(&a), "attempt {attempt}: {a}ms");
    }
    assert_ne!(
        retry_backoff_ms(1, 3),
        retry_backoff_ms(2, 3),
        "different seeds must decorrelate the jitter"
    );

    // A dead port fails typed after a bounded number of re-dials.
    let dead = {
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        l.local_addr().unwrap().port()
        // listener dropped: the port refuses connections
    };
    let (dial, retries) = connect_with_retry(dead, 7);
    assert!(dial.is_err(), "a dead port must surface the connect error");
    assert_eq!(retries, u64::from(MAX_CONNECT_ATTEMPTS) - 1);

    // A listener that appears while redialing is eventually reached.
    let port = {
        let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        l.local_addr().unwrap().port()
    };
    let binder = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(30));
        let l = TcpListener::bind(("127.0.0.1", port)).unwrap();
        l.accept().ok();
    });
    let (dial, retries) = connect_with_retry(port, 7);
    binder.join().unwrap();
    assert!(dial.is_ok(), "late listener must be reachable via retries");
    assert!(
        retries > 0,
        "the late bind must have cost at least one re-dial"
    );
}

#[test]
fn a_killed_rank_process_fails_typed_without_checkpoints() {
    let (p, entry) = ring_step_reduce(8, 6);
    let world = World::new(&p, 4);
    let mut args = no_args;
    let mut pool = RemotePool::new(&world, entry, &mut args, worker_launch())
        .unwrap()
        .kill_rank_after(2, 5);
    let err = world.run_on(&mut pool, None).unwrap_err();
    match err {
        SimError::Crash { rank, .. } => assert_eq!(rank, 2, "the killed rank is attributed"),
        other => panic!("expected a typed Crash for the killed worker, got: {other}"),
    }
}

#[test]
fn a_killed_rank_process_recovers_through_the_checkpoint_chain() {
    let (p, entry) = ring_step_reduce(8, 6);
    let world = World::new(&p, 4);
    let clean = world.run(entry, no_args).unwrap();

    let policy = CheckpointPolicy::every(1);
    let mut args = no_args;
    let mut pool = RemotePool::new(&world, entry, &mut args, worker_launch())
        .unwrap()
        .kill_rank_after(1, 6);
    let run = world.run_on(&mut pool, Some((&policy, 4))).unwrap();
    assert!(
        run.restart.restarts >= 1,
        "the kill must actually force a restart (restarts = {})",
        run.restart.restarts
    );
    assert!(run.restart.checkpoints_taken >= 1, "no checkpoints taken");
    // Recovery lands on the fault-free answer, bit for bit.
    for (r, (x, y)) in clean.ranks.iter().zip(&run.ranks).enumerate() {
        assert_eq!(
            format!("{:?}", x.result),
            format!("{:?}", y.result),
            "rank {r} result diverged after recovery"
        );
    }
}

/// The counters of a run that the simulation decides, without the two a
/// remote pool adds on its own: wall-clock re-dials and RPC fan-outs.
fn simulated(mut s: ResilienceStats) -> ResilienceStats {
    s.connect_retries = 0;
    s.overlapped_rounds = 0;
    s
}

/// A pool that records, round by round, the order its slices' yields
/// come back in: the order the scheduler services them in. Results do
/// not depend on it (by construction), so only this record shows a pool
/// that drops the world's schedule.
struct Traced<P> {
    inner: P,
    rounds: Vec<Vec<u32>>,
}

impl<P: RankPool> RankPool for Traced<P> {
    fn reinit(&mut self) -> Result<(), SimError> {
        self.inner.reinit()
    }
    fn prepare_resume(&mut self) -> Result<(), SimError> {
        self.inner.prepare_resume()
    }
    fn run_slices(
        &mut self,
        ranks: &[u32],
        slice: u64,
    ) -> Result<Vec<(u32, RankYield, u64)>, SimError> {
        let out = self.inner.run_slices(ranks, slice)?;
        self.rounds.push(out.iter().map(|(r, _, _)| *r).collect());
        Ok(out)
    }
    fn resume(&mut self, r: u32, v: Val) -> Result<(), SimError> {
        self.inner.resume(r, v)
    }
    fn service_device(&mut self, r: u32) -> Result<DeviceOutcome, SimError> {
        self.inner.service_device(r)
    }
    fn service_host(&mut self, r: u32) -> Result<u64, SimError> {
        self.inner.service_host(r)
    }
    fn read_floats(
        &mut self,
        r: u32,
        buf: u32,
        off: usize,
        count: usize,
    ) -> Result<Vec<f32>, SimError> {
        self.inner.read_floats(r, buf, off, count)
    }
    fn write_floats(
        &mut self,
        r: u32,
        buf: u32,
        off: usize,
        payload: &[f32],
    ) -> Result<(), SimError> {
        self.inner.write_floats(r, buf, off, payload)
    }
    fn location(&mut self, r: u32) -> Option<(String, u32)> {
        self.inner.location(r)
    }
    fn draw(&mut self, r: u32, kind: Draw) -> Result<Fate, SimError> {
        self.inner.draw(r, kind)
    }
    fn capture_rank(&mut self, r: u32) -> Result<RankSnapshot, SimError> {
        self.inner.capture_rank(r)
    }
    fn restore_rank(&mut self, r: u32, snap: RankSnapshot) -> Result<(), CkptError> {
        self.inner.restore_rank(r, snap)
    }
    fn reseed(&mut self, r: u32, attempt: u64) -> Result<(), SimError> {
        self.inner.reseed(r, attempt)
    }
    fn stats(&mut self, r: u32) -> Result<ResilienceStats, SimError> {
        self.inner.stats(r)
    }
    fn finish(&mut self, ctls: &[RankCtl]) -> Result<Vec<RankOutcome>, SimError> {
        self.inner.finish(ctls)
    }
}

#[test]
fn one_world_runs_alike_on_the_local_and_the_remote_pool() {
    // Every setting away from its default: the scheduler reads them from
    // this one value, and both pools are built from it.
    let (p, entry) = ring_step_reduce(2048, 6);
    let mut world = World::new(&p, 4)
        .with_cost(CostModel {
            alpha: 900,
            beta: 1.5,
            collective_alpha: 3_000,
        })
        .with_schedule(Schedule::Seeded(0xD15C))
        .with_faults(FaultConfig {
            crash: 0.02,
            fuel_exhaust: 0.05,
            msg_delay: 0.2,
            ..FaultConfig::seeded(0)
        })
        .with_timeout(2_000);
    world.slice = 10_000;
    let policy = CheckpointPolicy::every(1);

    let mut args = no_args;
    let mut local_pool = Traced {
        inner: LocalPool::new(&world, entry, &mut args),
        rounds: Vec::new(),
    };
    let local = world.run_on(&mut local_pool, Some((&policy, 16))).unwrap();
    let mut args = no_args;
    let mut remote_pool = Traced {
        inner: RemotePool::new(&world, entry, &mut args, Launch::Threads).unwrap(),
        rounds: Vec::new(),
    };
    let remote = world.run_on(&mut remote_pool, Some((&policy, 16))).unwrap();

    assert_runs_identical(&local, &remote, "one world, two pools");
    assert_eq!(local.restart, remote.restart, "restart accounting diverged");
    assert_eq!(
        simulated(local.resilience),
        simulated(remote.resilience),
        "fault counters diverged"
    );
    // Both pools serviced the ranks in the same seeded order, and in at
    // least one round that order is not rank order.
    assert_eq!(local_pool.rounds, remote_pool.rounds, "service order");
    assert!(
        local_pool.rounds.iter().any(|round| !round.is_sorted()),
        "the seeded schedule never left rank order"
    );
    // The faults fired and the run rolled back, so the equality covers
    // the restart path too.
    assert!(local.resilience.injected() > 0, "{:?}", local.resilience);
    assert!(local.restart.restarts >= 1, "{:?}", local.restart);
}

#[test]
fn every_fault_draw_crosses_the_seam_alike() {
    // Every rate the scheduler draws through the pool seam: payload drop,
    // corrupt and delay, frame truncation and ack delay, connect refusal
    // and checkpoint-write failure (crash rides along for restarts). Each
    // seed must end identically on both pools, or in the same typed error.
    let (p, entry) = ring_step_reduce(2048, 6);
    let policy = CheckpointPolicy::every(1);
    let mut completed = ResilienceStats::default();
    let mut lost_a_message = false;
    for seed in 0..6 {
        let world = World::new(&p, 4).with_faults(FaultConfig {
            crash: 0.02,
            msg_drop: 0.03,
            msg_corrupt: 0.1,
            msg_delay: 0.2,
            frame_truncate: 0.03,
            ack_delay: 0.2,
            connect_refuse: 0.2,
            ckpt_write_fail: 0.3,
            ..FaultConfig::seeded(seed)
        });
        let mut args = no_args;
        let mut local_pool = LocalPool::new(&world, entry, &mut args);
        let local = world.run_on(&mut local_pool, Some((&policy, 16)));
        let mut args = no_args;
        let mut remote_pool = RemotePool::new(&world, entry, &mut args, Launch::Threads).unwrap();
        let remote = world.run_on(&mut remote_pool, Some((&policy, 16)));
        match (local, remote) {
            (Ok(local), Ok(remote)) => {
                let what = format!("seed {seed}");
                assert_runs_identical(&local, &remote, &what);
                assert_eq!(local.restart, remote.restart, "{what}: restarts");
                assert_eq!(
                    simulated(local.resilience),
                    simulated(remote.resilience),
                    "{what}: fault counters diverged"
                );
                completed.merge(&local.resilience);
            }
            (Err(local), Err(remote)) => {
                assert_eq!(local.to_string(), remote.to_string(), "seed {seed}");
                // A lost message leaves its receiver waiting on a recv
                // with nothing queued for it.
                lost_a_message |= matches!(&local, SimError::Deadlock { report }
                    if report.contains("blocked on Recv") && report.contains("(0 matching queued"));
            }
            (local, remote) => panic!("seed {seed}: local {local:?} but remote {remote:?}"),
        }
    }
    for (name, count) in [
        ("corrupted_messages", completed.corrupted_messages),
        ("delayed_messages", completed.delayed_messages),
        ("ckpt_write_failures", completed.ckpt_write_failures),
        ("connect_refusals", completed.connect_refusals),
        ("delayed_acks", completed.delayed_acks),
    ] {
        assert!(count > 0, "no completed run counted {name}: {completed:?}");
    }
    assert!(lost_a_message, "no run failed by a drop or a truncation");
}

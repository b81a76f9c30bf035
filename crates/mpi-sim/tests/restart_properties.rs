//! Seeded property tests for collective-boundary checkpoint/restart: at
//! crash rates where plain `World::run` fails typed, a checkpointed world
//! completes with **bit-identical** final buffers to a fault-free run —
//! for every seed in the sweep. Corrupt or truncated persisted
//! checkpoints degrade to a cold restart (never a panic, never an error),
//! and an exhausted restart budget surfaces the typed error with its last
//! post-mortem intact.
//!
//! No proptest/quickcheck: cases are driven by the same xorshift64* idiom
//! the fault plans themselves use, so the whole suite is deterministic.

use std::path::PathBuf;

use exec::{FaultConfig, Val};
use jlang::ast::BinOp;
use jlang::types::PrimKind;
use mpi_sim::{probe_chain, CheckpointPolicy, CkptError, SimError, World, WorldRun};
use nir::{ElemTy, FuncBuilder, FuncId, FuncKind, Instr, IntrinOp, Program, Ty};

/// Each rank seeds `buf[0] = rank`, then runs `steps` iterations of: ring
/// sendrecv (shift buf one rank to the right), allreduce-sum of `buf[0]`,
/// `buf[0] = sum + rank`. One collective boundary per iteration gives
/// checkpoints places to land; the p2p traffic keeps message queues in
/// play; the value depends on every iteration completing in order.
fn ring_step_allreduce(steps: i32) -> (Program, FuncId) {
    ring_step_allreduce_mesh(steps, 2)
}

/// Like [`ring_step_allreduce`] but with `mesh`-element rank arrays of
/// which only element 0 ever changes — the mostly-constant heap shape
/// delta checkpoints exist for.
fn ring_step_allreduce_mesh(steps: i32, mesh: i32) -> (Program, FuncId) {
    let mut fb = FuncBuilder::new("rsa", vec![], Some(Ty::F32), FuncKind::Host);
    let rank = fb.reg(Ty::I32);
    let size = fb.reg(Ty::I32);
    let zero = fb.reg(Ty::I32);
    let one = fb.reg(Ty::I32);
    let n = fb.reg(Ty::I32);
    let tag = fb.reg(Ty::I32);
    let limit = fb.reg(Ty::I32);
    let i = fb.reg(Ty::I32);
    let dest = fb.reg(Ty::I32);
    let src = fb.reg(Ty::I32);
    let mlen = fb.reg(Ty::I32);
    let buf = fb.reg(Ty::Arr(ElemTy::F32));
    let rbuf = fb.reg(Ty::Arr(ElemTy::F32));
    let cond = fb.reg(Ty::Bool);
    let frank = fb.reg(Ty::F32);
    let v = fb.reg(Ty::F32);
    let s = fb.reg(Ty::F32);
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
    fb.emit(Instr::ConstI32(tag, 5));
    fb.emit(Instr::ConstI32(limit, steps));
    fb.emit(Instr::ConstI32(i, 0));
    fb.emit(Instr::ConstI32(mlen, mesh.max(2)));
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: mlen,
        dst: buf,
    });
    fb.emit(Instr::NewArr {
        elem: ElemTy::F32,
        len: mlen,
        dst: rbuf,
    });
    fb.emit(Instr::Cast {
        to: PrimKind::Float,
        from: PrimKind::Int,
        dst: frank,
        src: rank,
    });
    fb.emit(Instr::StArr {
        arr: buf,
        idx: zero,
        src: frank,
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
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiSendRecvF32,
        args: vec![buf, zero, n, dest, rbuf, zero, src, tag],
        dst: None,
    });
    fb.emit(Instr::LdArr {
        arr: rbuf,
        idx: zero,
        dst: v,
    });
    fb.emit(Instr::Intrin {
        op: IntrinOp::MpiAllreduceSumF32,
        args: vec![v],
        dst: Some(s),
    });
    fb.emit(Instr::Bin {
        op: BinOp::Add,
        kind: PrimKind::Float,
        dst: s,
        lhs: s,
        rhs: frank,
    });
    fb.emit(Instr::StArr {
        arr: buf,
        idx: zero,
        src: s,
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
    fb.emit(Instr::Ret(Some(v)));
    let mut p = Program::default();
    let id = p.add_func(fb.finish().unwrap());
    p.validate().unwrap();
    (p, id)
}

/// Final per-rank buffers, bit-comparable across runs (F32 results are
/// compared by identity, not tolerance: restart must be exact).
fn results(run: WorldRun) -> Vec<Option<Val>> {
    run.ranks.into_iter().map(|r| r.result).collect()
}

/// The acceptance property: sweep seeds, keep the ones whose crash-only
/// plan kills the plain run with a typed `Crash`, and require the
/// checkpointed world to complete every one of them with the fault-free
/// answer — restarts observed, checkpoints taken, nothing lost silently.
#[test]
fn crashed_worlds_resume_to_the_fault_free_answer_for_every_seed() {
    const SIZE: u32 = 4;
    let (program, entry) = ring_step_allreduce(8);
    let clean = results(
        World::new(&program, SIZE)
            .run(entry, |_, _| Ok(vec![]))
            .unwrap(),
    );
    let mut crashed_seeds = 0u32;
    for seed in 0..48u64 {
        let mut cfg = FaultConfig::seeded(0x8E57_A127 ^ seed);
        cfg.crash = 0.003;
        let world = World::new(&program, SIZE)
            .with_faults(cfg)
            .with_timeout(5_000);
        match world.run(entry, |_, _| Ok(vec![])) {
            Err(SimError::Crash { .. }) => {}
            _ => continue, // survived (or timed out) — not this property
        }
        crashed_seeds += 1;
        let run = world
            .run_with_restart(entry, |_, _| Ok(vec![]), &CheckpointPolicy::every(1), 128)
            .unwrap_or_else(|e| panic!("seed {seed}: checkpointed world failed: {e}"));
        assert!(
            run.restart.restarts >= 1,
            "seed {seed}: no restart recorded"
        );
        assert!(run.resilience.crashes >= 1, "seed {seed}");
        assert_eq!(
            results(run),
            clean,
            "seed {seed}: resumed world must reproduce the fault-free buffers exactly"
        );
    }
    assert!(
        crashed_seeds >= 3,
        "sweep produced only {crashed_seeds} crashing seeds — property is vacuous"
    );
}

/// Checkpoint cadence must not change the answer: N ∈ {1, 4, 16} all land
/// on the fault-free result for a crashing seed, and coarser cadence
/// never takes more checkpoints than finer.
#[test]
fn checkpoint_cadence_changes_cost_not_the_answer() {
    const SIZE: u32 = 3;
    let (program, entry) = ring_step_allreduce(9);
    let clean = results(
        World::new(&program, SIZE)
            .run(entry, |_, _| Ok(vec![]))
            .unwrap(),
    );
    // A seed that demonstrably crashes the plain run.
    let seed = (0..64u64)
        .find(|&s| {
            let mut cfg = FaultConfig::seeded(0xCAD + s);
            cfg.crash = 0.003;
            matches!(
                World::new(&program, SIZE)
                    .with_faults(cfg)
                    .with_timeout(5_000)
                    .run(entry, |_, _| Ok(vec![])),
                Err(SimError::Crash { .. })
            )
        })
        .expect("no crashing seed in the sweep");
    let mut cfg = FaultConfig::seeded(0xCAD + seed);
    cfg.crash = 0.003;
    let mut taken = Vec::new();
    for every in [1u32, 4, 16] {
        let run = World::new(&program, SIZE)
            .with_faults(cfg)
            .with_timeout(5_000)
            .run_with_restart(
                entry,
                |_, _| Ok(vec![]),
                &CheckpointPolicy::every(every),
                128,
            )
            .unwrap_or_else(|e| panic!("cadence {every}: {e}"));
        taken.push(run.restart.checkpoints_taken);
        assert_eq!(results(run), clean, "cadence {every}");
    }
    assert!(
        taken[0] >= taken[1] && taken[1] >= taken[2],
        "coarser cadence must not checkpoint more: {taken:?}"
    );
}

/// Corrupt and truncated persisted checkpoints degrade to a cold restart:
/// the run still completes with the right answer and never panics.
#[test]
fn corrupt_persisted_checkpoints_degrade_to_cold_restart() {
    let dir = std::env::temp_dir().join(format!("wj-restart-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("world.wckpt");
    let (program, entry) = ring_step_allreduce(5);
    let world = World::new(&program, 3);
    let policy = CheckpointPolicy::every(1).with_persist(&path);
    let clean = results(world.run(entry, |_, _| Ok(vec![])).unwrap());

    // Seed the file, then serve it back damaged in every way we model.
    let run = world
        .run_with_restart(entry, |_, _| Ok(vec![]), &policy, 8)
        .unwrap();
    assert_eq!(results(run), clean);
    let good = std::fs::read(&path).unwrap();
    let damaged: Vec<Vec<u8>> = vec![
        Vec::new(),                      // empty file
        good[..good.len() / 2].to_vec(), // truncated
        {
            let mut b = good.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x40; // flipped payload bit (checksum mismatch)
            b
        },
        b"not a checkpoint at all".to_vec(),
        // Not damage at all: the same payload in a valid version-1
        // container, i.e. a `.wckpt` from before checkpoints moved to
        // container version 2. Version skew, so a cold start too.
        nir::codec::seal(nir::codec::unseal_ckpt(&good).unwrap().0),
    ];
    for (i, bytes) in damaged.iter().enumerate() {
        std::fs::write(&path, bytes).unwrap();
        let probe = probe_chain(&path);
        assert_eq!(probe.links_valid, 0, "damage case {i}");
        if i + 1 == damaged.len() {
            assert_eq!(
                probe.error,
                Some(CkptError::VersionSkew {
                    found: 1,
                    expected: 2
                })
            );
        }
        let run = world
            .run_with_restart(entry, |_, _| Ok(vec![]), &policy, 8)
            .unwrap_or_else(|e| panic!("damage case {i}: cold restart failed: {e}"));
        assert_eq!(results(run), clean, "damage case {i}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Delta chains answer exactly like full snapshots on a crashing seed —
/// the fault stream is policy-independent, so even the restart pattern
/// matches — while writing far fewer checkpoint bytes when rank heaps
/// are mostly constant (the common mesh-plus-halo shape).
#[test]
fn delta_chains_match_full_snapshots_and_write_fewer_bytes() {
    const SIZE: u32 = 3;
    let (program, entry) = ring_step_allreduce_mesh(8, 2048);
    let clean = results(
        World::new(&program, SIZE)
            .run(entry, |_, _| Ok(vec![]))
            .unwrap(),
    );
    let seed = (0..64u64)
        .find(|&s| {
            let mut cfg = FaultConfig::seeded(0xDE17A ^ s);
            cfg.crash = 0.003;
            matches!(
                World::new(&program, SIZE)
                    .with_faults(cfg)
                    .with_timeout(5_000)
                    .run(entry, |_, _| Ok(vec![])),
                Err(SimError::Crash { .. })
            )
        })
        .expect("no crashing seed in the sweep");
    let mut cfg = FaultConfig::seeded(0xDE17A ^ seed);
    cfg.crash = 0.003;
    let mut stats = Vec::new();
    for rebase_every in [0u32, 4] {
        let run = World::new(&program, SIZE)
            .with_faults(cfg)
            .with_timeout(5_000)
            .run_with_restart(
                entry,
                |_, _| Ok(vec![]),
                &CheckpointPolicy::every(1).with_rebase_every(rebase_every),
                128,
            )
            .unwrap_or_else(|e| panic!("rebase_every {rebase_every}: {e}"));
        stats.push(run.restart);
        assert_eq!(results(run), clean, "rebase_every {rebase_every}");
    }
    let (full, delta) = (&stats[0], &stats[1]);
    assert_eq!(
        full.delta_checkpoints, 0,
        "rebase_every 0 is full snapshots"
    );
    assert!(delta.delta_checkpoints > 0, "delta mode must take deltas");
    assert_eq!(
        full.restarts, delta.restarts,
        "the fault stream must not depend on the checkpoint encoding"
    );
    assert!(
        delta.ckpt_bytes_written < full.ckpt_bytes_written,
        "deltas over a mostly-constant mesh must write fewer bytes: \
         delta {} vs full {}",
        delta.ckpt_bytes_written,
        full.ckpt_bytes_written
    );
}

/// The chain-corruption sweep: damage each persisted link in turn
/// (truncation and a flipped bit), and require the probe to stop at
/// exactly that link with a typed error, and a warm restart to roll back
/// to the deepest valid ancestor — counting precisely the dropped tail,
/// finishing bit-identically, never panicking. Deleting a middle link
/// cuts the chain at the gap; deleting the base degrades to cold.
#[test]
fn chain_corruption_sweep_degrades_to_the_deepest_valid_ancestor() {
    let dir = std::env::temp_dir().join(format!("wj-chain-sweep-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("world.wckpt");
    let (program, entry) = ring_step_allreduce(6);
    let world = World::new(&program, 3);
    let policy = CheckpointPolicy::every(1)
        .with_persist(&base)
        .with_rebase_every(64);
    let clean = results(world.run(entry, |_, _| Ok(vec![])).unwrap());

    // Lay down a pristine chain, then snapshot every link file.
    let run = world
        .run_with_restart(entry, |_, _| Ok(vec![]), &policy, 8)
        .unwrap();
    assert_eq!(results(run), clean);
    let n = {
        let p = probe_chain(&base);
        assert_eq!(p.links_valid, p.links_found, "pristine chain must validate");
        assert!(p.error.is_none(), "pristine chain: {:?}", p.error);
        p.links_found
    };
    assert!(n >= 3, "need a base plus deltas to sweep, got {n} links");
    let link_file = |k: usize| -> PathBuf {
        if k == 0 {
            base.clone()
        } else {
            dir.join(format!("world.d{k}.wckpt"))
        }
    };
    let pristine: Vec<Vec<u8>> = (0..n)
        .map(|k| std::fs::read(link_file(k)).unwrap())
        .collect();
    let restore_all = || {
        for (k, bytes) in pristine.iter().enumerate() {
            std::fs::write(link_file(k), bytes).unwrap();
        }
    };

    for (k, good) in pristine.iter().enumerate() {
        for mode in ["truncate", "bitflip"] {
            restore_all();
            let damaged = if mode == "truncate" {
                good[..good.len() / 2].to_vec()
            } else {
                let mut b = good.clone();
                let mid = b.len() / 2;
                b[mid] ^= 0x10;
                b
            };
            std::fs::write(link_file(k), &damaged).unwrap();
            let p = probe_chain(&base);
            assert_eq!(p.links_found, n, "{mode} at link {k}");
            assert_eq!(
                p.links_valid, k,
                "{mode} at link {k}: probe must stop at the damaged link"
            );
            match p.error {
                None => panic!("{mode} at link {k}: expected a typed error"),
                Some(CkptError::Corrupt { .. })
                | Some(CkptError::Truncated { .. })
                | Some(CkptError::ChainBroken { .. }) => {}
                Some(other) => panic!("{mode} at link {k}: unexpected error {other}"),
            }
            // Warm restart over the damaged chain: rolls back to link k-1,
            // counts exactly the dropped tail, finishes with the clean
            // answer.
            let run = world
                .run_with_restart(entry, |_, _| Ok(vec![]), &policy, 8)
                .unwrap_or_else(|e| panic!("{mode} at link {k}: {e}"));
            assert_eq!(
                run.restart.chain_links_dropped,
                (n - k) as u64,
                "{mode} at link {k}: dropped-link accounting"
            );
            assert_eq!(results(run), clean, "{mode} at link {k}");
        }
    }

    // A deleted middle link cuts the chain at the gap (deltas are dense,
    // so everything past the gap is orphaned, not an error).
    restore_all();
    std::fs::remove_file(link_file(1)).unwrap();
    let p = probe_chain(&base);
    assert_eq!(p.links_found, 1, "gap must end the dense run");
    assert_eq!(p.links_valid, 1);
    assert!(p.error.is_none(), "a gap is not damage: {:?}", p.error);
    let run = world
        .run_with_restart(entry, |_, _| Ok(vec![]), &policy, 8)
        .unwrap();
    assert_eq!(results(run), clean, "gapped chain");

    // A missing base is a cold start — still the right answer, and
    // nothing counted as dropped (there was no chain to drop from).
    restore_all();
    std::fs::remove_file(&base).unwrap();
    let p = probe_chain(&base);
    assert_eq!(p.links_found, 0, "missing base means no chain");
    let run = world
        .run_with_restart(entry, |_, _| Ok(vec![]), &policy, 8)
        .unwrap();
    assert_eq!(
        run.restart.chain_links_dropped, 0,
        "cold start drops nothing"
    );
    assert_eq!(results(run), clean, "cold start");

    std::fs::remove_dir_all(&dir).ok();
}

/// When the budget runs out the typed error propagates, carrying the last
/// attempt's post-mortem (the diagnosing contract survives the retrying).
#[test]
fn exhausted_restart_budget_carries_the_last_post_mortem() {
    let (program, entry) = ring_step_allreduce(6);
    let mut cfg = FaultConfig::seeded(99);
    cfg.crash = 1.0;
    let err = World::new(&program, 3)
        .with_faults(cfg)
        .run_with_restart(entry, |_, _| Ok(vec![]), &CheckpointPolicy::every(1), 3)
        .unwrap_err();
    let SimError::Crash {
        rank, post_mortem, ..
    } = err
    else {
        panic!("expected Crash, got {err}");
    };
    assert!(rank < 3);
    assert!(
        post_mortem.contains("crashed at step"),
        "post-mortem must survive budget exhaustion: {post_mortem}"
    );
}

/// Non-recoverable failures (deadlock from dropped messages, with no
/// timeout bound nothing to roll back to helps) must not burn restarts
/// forever: a Deadlock propagates immediately.
#[test]
fn non_crash_failures_propagate_without_restarting() {
    let (program, entry) = ring_step_allreduce(4);
    let mut cfg = FaultConfig::seeded(13);
    cfg.msg_drop = 1.0; // every p2p message lost -> receivers starve
    let err = World::new(&program, 2)
        .with_faults(cfg)
        .run_with_restart(entry, |_, _| Ok(vec![]), &CheckpointPolicy::every(1), 64)
        .unwrap_err();
    assert!(
        matches!(err, SimError::Deadlock { .. }),
        "expected immediate Deadlock, got {err}"
    );
}

//! The gates `scripts/check.sh` runs through `repro all --quick`: fault
//! injection, checkpoint cadence, chaos storms, cross-backend agreement,
//! the executor seam and the socket backend. Each panics on a broken
//! claim, which is what makes it a gate.

use std::sync::Arc;
use std::time::Instant;

use hpclib::{MatmulApp, MatmulBody, MatmulCalc, MatmulThread, StencilApp, StencilPlatform};
use jlang::ClassTable;
use jvm::Value;
use platform::Platform;
use wootinj::{
    CheckpointPolicy, FaultConfig, JitOptions, MpiCostModel, RunReport, Val, WjResult, WootinJ,
};

use super::{diffusion_args, jit, TempDir};
use crate::series::{Figure, Series};

/// The `fault-matrix` workload: ring sendrecv over `n` floats per rank,
/// with one allreduce at the end.
const RING_REDUCE: &str = r#"
    @WootinJ final class RingReduce {
      RingReduce() { }
      float run(int n, int steps) {
        int rank = MPI.rank();
        int size = MPI.size();
        float[] sbuf = new float[n];
        float[] rbuf = new float[n];
        for (int i = 0; i < n; i++) { sbuf[i] = rank * n + i; }
        int dest = (rank + 1) % size;
        int src = (rank + size - 1) % size;
        for (int s = 0; s < steps; s++) {
          MPI.sendrecvF(sbuf, 0, n, dest, rbuf, 0, src, 7);
          for (int i = 0; i < n; i++) { sbuf[i] = rbuf[i] * 0.5f; }
        }
        float local = 0f;
        for (int i = 0; i < n; i++) { local += sbuf[i]; }
        return MPI.allreduceSumF(local);
      }
    }
"#;

/// The restart/chaos workload. Unlike `RING_REDUCE`, every step ends in
/// an allreduce: collectives are the checkpoint cut points, so cadence
/// sweeps need one per step to have anything to vary. The `mesh` array
/// (16n floats, written once) models the mostly-constant rank heap of a
/// real mesh code — the shape delta checkpoints exist for: full
/// snapshots re-serialize it at every cut point, deltas never do.
pub(super) const RING_STEP_REDUCE: &str = r#"
    @WootinJ final class RingStepReduce {
      RingStepReduce() { }
      float run(int n, int steps) {
        int rank = MPI.rank();
        int size = MPI.size();
        float[] sbuf = new float[n];
        float[] rbuf = new float[n];
        float[] mesh = new float[n * 16];
        for (int i = 0; i < n; i++) { sbuf[i] = rank * n + i; }
        for (int i = 0; i < n * 16; i++) { mesh[i] = i * 0.25f; }
        int dest = (rank + 1) % size;
        int src = (rank + size - 1) % size;
        float acc = 0f;
        for (int s = 0; s < steps; s++) {
          MPI.sendrecvF(sbuf, 0, n, dest, rbuf, 0, src, 7);
          for (int i = 0; i < n; i++) { sbuf[i] = rbuf[i] * 0.5f; }
          acc += mesh[s] + MPI.allreduceSumF(sbuf[0]);
        }
        return acc;
      }
    }
"#;

/// The `backend-matrix` workload: integer-valued f64 arithmetic,
/// block-partitioned by rank and reduced with `allreduceSumD`. Integer
/// sums below 2^53 are exact in f64, so associativity — and therefore
/// the platform's world size and scheduling — cannot perturb the bits:
/// every platform must produce the *same* f64, bit for bit.
const BLOCK_SUM: &str = r#"
    @WootinJ final class BlockSum {
      BlockSum() { }
      double run(int total, int steps) {
        int rank = MPI.rank();
        int size = MPI.size();
        int per = total / size;
        int lo = rank * per;
        double acc = 0.0;
        for (int s = 0; s < steps; s++) {
          double local = 0.0;
          for (int i = lo; i < lo + per; i++) {
            local = local + (i % 97) * 3.0 + s;
          }
          acc = acc + MPI.allreduceSumD(local);
        }
        return acc;
      }
    }
"#;

/// A gate's workload: `class`, built with no arguments, and the two
/// `int`s its `run` method takes.
struct Workload {
    table: ClassTable,
    class: &'static str,
    args: [Value; 2],
}

impl Workload {
    fn new(file: &str, source: &str, class: &'static str, (a, b): (i32, i32)) -> Workload {
        Workload {
            table: wootinj::build_table(&[(file, source)]).unwrap(),
            class,
            args: [Value::Int(a), Value::Int(b)],
        }
    }

    /// `RING_STEP_REDUCE` over `n` floats per rank for `steps` steps.
    fn ring_step_reduce(n: i32, steps: i32) -> Workload {
        let file = "ring_step_reduce.jl";
        Workload::new(file, RING_STEP_REDUCE, "RingStepReduce", (n, steps))
    }

    /// One run in a fresh env: `run(args)` jitted under `opts` into
    /// `world`, invoked with `faults` and a `timeout` in scheduler rounds.
    fn run(
        &self,
        world: World,
        opts: JitOptions,
        faults: Option<FaultConfig>,
        timeout: u64,
    ) -> WjResult<RunReport> {
        let mut env = WootinJ::new(&self.table).unwrap();
        let app = env.new_instance(self.class, &[]).unwrap();
        let mut code = match world {
            World::Ranks(n) => {
                let mut code = env.jit(&app, "run", &self.args, opts).unwrap();
                code.set_mpi(n, MpiCostModel::default());
                code
            }
            World::On(platform) => env.jit_on(platform, &app, "run", &self.args, opts).unwrap(),
        };
        if let Some(faults) = faults {
            code.set_faults(faults);
        }
        code.set_timeout(timeout);
        code.invoke(&env)
    }
}

/// Where a gate's run executes. The two jit paths salt artifact keys
/// differently, so each gate keeps the one it was written against.
enum World {
    /// `jit`, then `set_mpi(n)` with the default cost model.
    Ranks(u32),
    /// `jit_on` the platform.
    On(Arc<dyn Platform>),
}

/// Crash-only faults at `rate`, drawn from `seed`.
fn crashes(seed: u64, rate: f64) -> FaultConfig {
    let mut cfg = FaultConfig::seeded(seed);
    cfg.crash = rate;
    cfg
}

/// The f32 a completed run returned.
fn f32_result(report: &RunReport) -> f32 {
    match report.result {
        Some(Val::F32(v)) => v,
        other => panic!("expected f32 result, got {other:?}"),
    }
}

/// Panics, naming `gate` and `what`, unless `a` and `b` agree on every
/// rank's result, the virtual and total cycles, and every rank's clocks.
fn assert_identical(gate: &str, a: &RunReport, b: &RunReport, what: &str) {
    let (ab, bb) = (format!("{:?}", a.results), format!("{:?}", b.results));
    assert!(ab == bb, "{gate} DIVERGENCE ({what}): results {ab} vs {bb}");
    assert!(
        a.vtime_cycles == b.vtime_cycles && a.total_cycles == b.total_cycles,
        "{gate} DIVERGENCE ({what}): vtime {} vs {}, cycles {} vs {}",
        a.vtime_cycles,
        b.vtime_cycles,
        a.total_cycles,
        b.total_cycles
    );
    for (r, (x, y)) in a.per_rank.iter().zip(&b.per_rank).enumerate() {
        assert!(
            x.vclock == y.vclock
                && x.compute_cycles == y.compute_cycles
                && x.comm_cycles == y.comm_cycles,
            "{gate} DIVERGENCE ({what}): rank {r} clocks differ"
        );
    }
}

/// Robustness experiment: the fault-injection matrix. One cell per
/// (fault kind x rate x world size); the y value is an outcome code, not a
/// time. Every cell uses a fixed seed, so the whole table is reproducible
/// bit-for-bit across runs and machines.
pub(super) fn fault_matrix(quick: bool) -> Figure {
    use wootinj::{SimError, WjError};

    let mut fig = Figure::new(
        "fault-matrix",
        "fault injection matrix: outcome per (fault kind x rate x world size)",
        "world size (ranks)",
        "outcome code",
    );
    fig.note(
        "outcome codes: 3 = completed, no fault fired; 2 = completed despite \
         injected faults; 1 = typed failure (crash post-mortem, timeout, \
         deadlock, or rank error); 0 = untyped failure (must never appear)",
    );
    fig.note("workload: ring sendrecv + allreduce over n floats per rank; fixed seeds per cell");

    let rates: &[f64] = if quick { &[0.02] } else { &[0.005, 0.02, 0.1] };
    let sizes: &[u32] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let n: i32 = if quick { 32 } else { 128 };
    let steps: i32 = if quick { 16 } else { 40 };
    fig.note(if quick {
        "quick mode: n=32, 16 steps, rate 0.02, worlds {2,4}"
    } else {
        "full mode: n=128, 40 steps, rates {0.005,0.02,0.1}, worlds {2,4,8}"
    });

    let ring = Workload::new("ring_reduce.jl", RING_REDUCE, "RingReduce", (n, steps));
    let kinds = ["none", "delay", "corrupt", "fuel", "drop", "crash"];
    for (ki, kind) in kinds.iter().enumerate() {
        for (ri, &rate) in rates.iter().enumerate() {
            // The fault-free control row is rate-independent; emit it once.
            if *kind == "none" && ri > 0 {
                continue;
            }
            let mut s = Series::new(if *kind == "none" {
                "none".to_string()
            } else {
                format!("{kind}@{rate}")
            });
            for &size in sizes {
                let mut cfg = FaultConfig::seeded(
                    0xFA17_0000_0000_0000 | ((ki as u64) << 16) | ((ri as u64) << 8) | size as u64,
                );
                match *kind {
                    "delay" => cfg.msg_delay = rate,
                    "corrupt" => cfg.msg_corrupt = rate,
                    "fuel" => cfg.fuel_exhaust = rate,
                    "drop" => cfg.msg_drop = rate,
                    "crash" => cfg.crash = rate,
                    _ => {}
                }
                let world = World::Ranks(size);
                let outcome = match ring.run(world, JitOptions::wootinj(), Some(cfg), 50_000) {
                    Ok(report) if report.resilience.injected() == 0 => 3.0,
                    Ok(_) => 2.0,
                    Err(WjError::Sim(
                        SimError::Crash { .. }
                        | SimError::Timeout { .. }
                        | SimError::Deadlock { .. }
                        | SimError::Rank { .. }
                        | SimError::World { .. },
                    )) => 1.0,
                    Err(_) => 0.0,
                };
                s.push(size as f64, outcome);
            }
            fig.series.push(s);
        }
    }
    fig
}

/// Robustness experiment: checkpoint cadence vs. the cost of crash
/// recovery. One seed sweep, crash-only faults, four cadences (every 1,
/// 4, or 16 collectives, and checkpointing off). Crash-only faults
/// never perturb surviving state, so every completed run must reproduce
/// the fault-free answer bit-for-bit — counted in the `bit-identical`
/// series. Each cadence also runs in delta-chain mode on the same seeds:
/// the outcome must be identical (the fault stream does not depend on
/// the checkpoint encoding), and the `ckpt-bytes-*` series track the
/// bytes-written win, which must be strict at cadence 1.
pub(super) fn restart_cost(quick: bool) -> Figure {
    use wootinj::RestartStats;

    let mut fig = Figure::new(
        "restart-cost",
        "checkpoint cadence vs. virtual time lost to crashes",
        "cadence (collectives per checkpoint; 0 = off)",
        "see series",
    );
    fig.note(
        "crash-only faults over a ring sendrecv + per-step allreduce; same fixed seeds per cadence",
    );
    fig.note(
        "completed / bit-identical count seeds; restarts, checkpoints and \
         vtime-lost are totals across the sweep",
    );
    fig.note(
        "ckpt-bytes-full / ckpt-bytes-delta: total checkpoint bytes written \
         across the sweep — full snapshots vs delta chains (rebase every 8) \
         at the same cadence; delta must win strictly at cadence 1",
    );

    let (n, steps, size, nseeds) = if quick {
        (16, 12, 4u32, 6u64)
    } else {
        (64, 32, 4, 16)
    };
    fig.note(if quick {
        "quick mode: n=16, 12 steps, world 4, 6 seeds, crash rate 0.02"
    } else {
        "full mode: n=64, 32 steps, world 4, 16 seeds, crash rate 0.02"
    });

    let ring = Workload::ring_step_reduce(n, steps);
    let run_one = |seed: Option<u64>, cadence: u32, rebase: u32| -> (Option<f32>, RestartStats) {
        let mut opts = JitOptions::wootinj();
        if cadence > 0 {
            opts =
                opts.with_checkpointing(CheckpointPolicy::every(cadence).with_rebase_every(rebase));
        }
        let faults = seed.map(|seed| crashes(seed, 0.02));
        match ring.run(World::Ranks(size), opts, faults, 50_000) {
            Ok(report) => (Some(f32_result(&report)), report.restart),
            Err(_) => (None, RestartStats::default()),
        }
    };

    let (fault_free, _) = run_one(None, 0, 0);
    let fault_free = fault_free.expect("the fault-free control run must complete");

    let mut completed = Series::new("completed");
    let mut identical = Series::new("bit-identical");
    let mut restarts = Series::new("restarts");
    let mut checkpoints = Series::new("checkpoints");
    let mut lost = Series::new("vtime-lost");
    let mut bytes_full = Series::new("ckpt-bytes-full");
    let mut bytes_delta = Series::new("ckpt-bytes-delta");
    for &cadence in &[1u32, 4, 16, 0] {
        let (mut done, mut same, mut rs, mut cps, mut vl) = (0u64, 0u64, 0u64, 0u64, 0u64);
        let (mut bf, mut bd) = (0u64, 0u64);
        for s in 0..nseeds {
            let seed = 0xC057_0000_0000_0000 | s;
            let (result, stats) = run_one(Some(seed), cadence, 0);
            if let Some(v) = result {
                done += 1;
                same += u64::from(v.to_bits() == fault_free.to_bits());
            }
            rs += stats.restarts;
            cps += stats.checkpoints_taken;
            vl += stats.virtual_time_lost;
            bf += stats.ckpt_bytes_written;
            if cadence > 0 {
                let (dresult, dstats) = run_one(Some(seed), cadence, 8);
                assert_eq!(
                    dresult.map(f32::to_bits),
                    result.map(f32::to_bits),
                    "cadence {cadence} seed {s}: delta chains must not change the outcome"
                );
                bd += dstats.ckpt_bytes_written;
            }
        }
        let x = cadence as f64;
        completed.push(x, done as f64);
        identical.push(x, same as f64);
        restarts.push(x, rs as f64);
        checkpoints.push(x, cps as f64);
        lost.push(x, vl as f64);
        bytes_full.push(x, bf as f64);
        bytes_delta.push(x, bd as f64);
    }
    // The tracked cost win (acceptance gate): at cadence 1 — a checkpoint
    // at every collective — delta chains must write strictly fewer bytes
    // than full snapshots.
    let (f1, d1) = (bytes_full.points[0].y, bytes_delta.points[0].y);
    assert!(
        d1 > 0.0 && d1 < f1,
        "delta chains must strictly beat full snapshots on bytes written \
         at cadence 1: delta {d1} vs full {f1}"
    );
    fig.series.extend([
        completed,
        identical,
        restarts,
        checkpoints,
        lost,
        bytes_full,
        bytes_delta,
    ]);
    fig
}

/// A chaos storm: a named mutation layered onto the base crash config.
type Storm = fn(&mut FaultConfig);

/// The chaos soak gate: seeded fault storms (crashes, checkpoint-write
/// I/O faults) × cadence × rebase interval, plus a persisted-chain
/// damage pass (seeded truncation and bit-flips with warm restarts).
/// Every world must complete bit-identically to the fault-free control
/// or fail typed — outcome code 0 must never appear — and at cadence 1
/// delta chains must strictly beat full snapshots on both bytes written
/// and virtual time lost, under a write-cost model that charges for the
/// bytes each snapshot moves.
pub(super) fn chaos(quick: bool) -> Figure {
    use wootinj::{probe_chain, ResilienceStats, RestartStats, WjError};

    let mut fig = Figure::new(
        "chaos",
        "chaos soak: fault storms x cadence x rebase interval",
        "seed index",
        "outcome code",
    );
    fig.note(
        "outcome codes: 2 = completed bit-identical to the fault-free \
         control; 1 = typed failure; 0 = anything else (must never appear)",
    );
    fig.note(
        "storms: crash-only, crash + checkpoint-write I/O faults, and \
         crash + socket-transport faults (connect refusal, frame \
         truncation, delayed ack), each run in full-snapshot and \
         delta-chain mode on the same seeds; chain-damage rows corrupt \
         one persisted link, then warm-restart",
    );
    fig.note(
        "gate: at cadence 1, delta chains must strictly beat full \
         snapshots on bytes written and on virtual time lost (write cost: \
         200 cycles flat + 1 per 32 bytes)",
    );

    let (n, steps, size, nseeds) = if quick {
        (16, 12, 4u32, 5u64)
    } else {
        (48, 24, 4, 12)
    };
    let cadences: &[u32] = if quick { &[1, 4] } else { &[1, 4, 16] };
    fig.note(if quick {
        "quick mode: n=16, 12 steps, world 4, 5 seeds per cell, cadences {1,4}"
    } else {
        "full mode: n=48, 24 steps, world 4, 12 seeds per cell, cadences {1,4,16}"
    });

    let ring = Workload::ring_step_reduce(n, steps);

    enum Run {
        Done(f32),
        Typed,
        Untyped,
    }
    let run_one = |seed: Option<u64>,
                   storm: Storm,
                   policy: Option<CheckpointPolicy>|
     -> (Run, RestartStats, ResilienceStats) {
        let mut opts = JitOptions::wootinj();
        if let Some(p) = policy {
            opts = opts.with_checkpointing(p);
        }
        let faults = seed.map(|seed| {
            let mut cfg = crashes(seed, 0.02);
            storm(&mut cfg);
            cfg
        });
        match ring.run(World::Ranks(size), opts, faults, 200_000) {
            Ok(report) => (
                Run::Done(f32_result(&report)),
                report.restart,
                report.resilience,
            ),
            Err(WjError::Sim(_)) => (
                Run::Typed,
                RestartStats::default(),
                ResilienceStats::default(),
            ),
            Err(_) => (
                Run::Untyped,
                RestartStats::default(),
                ResilienceStats::default(),
            ),
        }
    };
    let no_storm: Storm = |_| {};
    let control = match run_one(None, no_storm, None).0 {
        Run::Done(v) => v,
        _ => panic!("the fault-free control run must complete"),
    };
    let grade = |r: &Run| match r {
        Run::Done(v) if v.to_bits() == control.to_bits() => 2.0,
        Run::Done(_) | Run::Untyped => 0.0,
        Run::Typed => 1.0,
    };

    // Fault storms. Full and delta modes run the same seed; fault draws
    // are per-event, not per-cycle, so the outcome class (and the restart
    // pattern) must not depend on the checkpoint encoding.
    let storms: &[(&str, Storm)] = &[
        ("crash", |_| {}),
        ("crash+ckpt-io", |c| c.ckpt_write_fail = 0.25),
        // Truncation rates are per-frame and a lost frame costs a full
        // timeout + rollback, so the rate is kept low enough that the
        // restart budget converges while every counter still fires.
        ("crash+transport", |c| {
            c.connect_refuse = 0.02;
            c.frame_truncate = 0.01;
            c.ack_delay = 0.05;
        }),
    ];
    let (mut bytes_full, mut bytes_delta) = (0u64, 0u64);
    let (mut vt_full, mut vt_delta) = (0u64, 0u64);
    let (mut restarts_full, mut restarts_delta) = (0u64, 0u64);
    let mut transport_events = 0u64;
    for (si, (storm, mutator)) in storms.iter().enumerate() {
        for &cadence in cadences {
            let mut s_full = Series::new(format!("{storm} c{cadence} full"));
            let mut s_delta = Series::new(format!("{storm} c{cadence} delta"));
            for s in 0..nseeds {
                let seed =
                    0xC4A0_0000_0000_0000 | ((si as u64) << 24) | (u64::from(cadence) << 16) | s;
                let policy = |rebase: u32| {
                    CheckpointPolicy::every(cadence)
                        .with_rebase_every(rebase)
                        .with_write_cost(200, 32)
                };
                let (rf, stf, resf) = run_one(Some(seed), *mutator, Some(policy(0)));
                let (rd, std, resd) = run_one(Some(seed), *mutator, Some(policy(8)));
                if *storm == "crash+transport" {
                    transport_events += resf.truncated_frames
                        + resf.delayed_acks
                        + resf.connect_refusals
                        + resd.truncated_frames
                        + resd.delayed_acks
                        + resd.connect_refusals;
                }
                let (gf, gd) = (grade(&rf), grade(&rd));
                assert!(
                    gf > 0.0 && gd > 0.0,
                    "{storm} c{cadence} seed {s}: every world must complete \
                     bit-identically or fail typed (full {gf}, delta {gd})"
                );
                assert_eq!(
                    gf, gd,
                    "{storm} c{cadence} seed {s}: the checkpoint encoding \
                     must not change the outcome class"
                );
                s_full.push(s as f64, gf);
                s_delta.push(s as f64, gd);
                if cadence == 1 {
                    bytes_full += stf.ckpt_bytes_written;
                    vt_full += stf.virtual_time_lost;
                    restarts_full += stf.restarts;
                    bytes_delta += std.ckpt_bytes_written;
                    vt_delta += std.virtual_time_lost;
                    restarts_delta += std.restarts;
                }
            }
            fig.series.push(s_full);
            fig.series.push(s_delta);
        }
    }

    // The transport storm must actually land transport faults — the
    // seeded draws are per-event, so a silent zero here would mean the
    // injection points fell out of the message/reconnect paths.
    assert!(
        transport_events > 0,
        "the crash+transport storm produced no transport fault events"
    );
    let mut s_transport = Series::new("transport fault events (crash+transport storm)");
    s_transport.push(0.0, transport_events as f64);
    fig.series.push(s_transport);

    // The cadence-1 cost gate. Restart parity first: a vacuous vtime
    // comparison (no restarts) or a skewed one (different restart
    // patterns) would make the win meaningless.
    assert!(
        restarts_full >= 1,
        "chaos sweep produced no cadence-1 restarts — the vtime gate is vacuous"
    );
    assert_eq!(
        restarts_full, restarts_delta,
        "restart pattern must not depend on the checkpoint encoding"
    );
    assert!(
        bytes_delta > 0 && bytes_delta < bytes_full,
        "delta cadence-1 must strictly beat full cadence-1 on bytes \
         written: delta {bytes_delta} vs full {bytes_full}"
    );
    assert!(
        vt_delta < vt_full,
        "delta cadence-1 must strictly beat full cadence-1 on virtual \
         time lost: delta {vt_delta} vs full {vt_full}"
    );
    let mut c1_bytes = Series::new("c1-bytes-written (x: 0=full, 1=delta)");
    c1_bytes.push(0.0, bytes_full as f64);
    c1_bytes.push(1.0, bytes_delta as f64);
    let mut c1_vtime = Series::new("c1-vtime-lost (x: 0=full, 1=delta)");
    c1_vtime.push(0.0, vt_full as f64);
    c1_vtime.push(1.0, vt_delta as f64);
    fig.series.push(c1_bytes);
    fig.series.push(c1_vtime);

    // Chain-damage pass: lay a persisted delta chain, corrupt one seeded
    // link (alternating truncation and bit-flips, walking the link
    // index), and warm-restart over the damage. The probe must stop at
    // the damaged link; the rerun must land on the deepest valid
    // ancestor — dropping exactly the damaged tail — and still finish
    // bit-identically.
    let dir = TempDir::new("wj-chaos");
    let mut s_damage = Series::new("chain-damage warm restart");
    for d in 0..nseeds {
        let base = dir.path().join(format!("chaos-{d}.wckpt"));
        let policy = CheckpointPolicy::every(1)
            .with_rebase_every(64)
            .with_persist(&base);
        match run_one(None, no_storm, Some(policy.clone())).0 {
            Run::Done(v) if v.to_bits() == control.to_bits() => {}
            _ => panic!("chain-damage seed {d}: chain-laying run must complete"),
        }
        let links = probe_chain(&base).links_found;
        assert!(links >= 2, "chain-damage seed {d}: need a base plus deltas");
        let k = (d as usize) % links;
        let file = if k == 0 {
            base.clone()
        } else {
            mpi_sim::delta_path(&base, k as u64)
        };
        let good = std::fs::read(&file).unwrap();
        let damaged = if d % 2 == 0 {
            good[..good.len() / 2].to_vec()
        } else {
            let mut b = good;
            let mid = b.len() / 2;
            b[mid] ^= 0x04;
            b
        };
        std::fs::write(&file, &damaged).unwrap();
        let probe = probe_chain(&base);
        assert_eq!(
            probe.links_valid, k,
            "chain-damage seed {d}: probe must stop at the damaged link"
        );
        assert!(
            probe.error.is_some(),
            "chain-damage seed {d}: damage must surface a typed error"
        );
        let (rerun, stats, _) = run_one(None, no_storm, Some(policy));
        match rerun {
            Run::Done(v) if v.to_bits() == control.to_bits() => {}
            _ => panic!("chain-damage seed {d}: warm restart must finish bit-identically"),
        }
        assert_eq!(
            stats.chain_links_dropped,
            (links - k) as u64,
            "chain-damage seed {d}: dropped-link accounting"
        );
        s_damage.push(d as f64, 2.0);
    }
    fig.series.push(s_damage);
    fig
}

/// The multiplatform acceptance sweep: the same workload on **every
/// registered platform** (`platform::registry()`), asserting bit-identical
/// result agreement — fault-free, under crash injection with
/// checkpoint/restart, and (between device-bearing platforms) for a GPU
/// kernel workload. Any divergence panics, which is what lets
/// `scripts/check.sh` gate on this experiment.
pub(super) fn backend_matrix(quick: bool) -> Figure {
    use platform::registry;

    let mut fig = Figure::new(
        "backend-matrix",
        "cross-backend agreement: one workload, every registered platform",
        "platform index (registry order)",
        "see series",
    );
    fig.note(
        "platforms: 0=interp, 1=gpu-sim, 2=mpi-sim, 3=host-mt, 4=dist \
         (platform::registry order)",
    );
    fig.note(
        "agree / recovered-agree are 1 when the platform's f64 result bits match the \
         exact ground truth; any mismatch panics (check.sh fails on divergence)",
    );
    fig.note("vtime-cycles is the virtual cost of the fault-free run on each platform");

    let (total, steps, nseeds) = if quick { (240, 8, 3u64) } else { (960, 24, 10) };
    fig.note(if quick {
        "quick mode: total=240, 8 steps, 3 crash seeds per platform"
    } else {
        "full mode: total=960, 24 steps, 10 crash seeds per platform"
    });

    // Exact ground truth, computed independently in Rust.
    let mut truth = 0.0f64;
    for s in 0..steps {
        for i in 0..total {
            truth += (i % 97) as f64 * 3.0 + s as f64;
        }
    }
    let truth = truth.to_bits();

    let block_sum = Workload::new("block_sum.jl", BLOCK_SUM, "BlockSum", (total, steps));
    let run_on = |plat: &Arc<dyn Platform>, seed: Option<u64>| -> WjResult<RunReport> {
        let mut opts = JitOptions::wootinj();
        if seed.is_some() {
            opts = opts.with_checkpointing(CheckpointPolicy::adaptive(4));
        }
        let faults = seed.map(|seed| crashes(seed, 0.05));
        block_sum.run(World::On(Arc::clone(plat)), opts, faults, 50_000)
    };
    let f64_bits = |report: &RunReport| -> u64 {
        match report.result {
            Some(Val::F64(v)) => v.to_bits(),
            other => panic!("expected f64 result, got {other:?}"),
        }
    };

    let mut agree = Series::new("agree");
    let mut recovered = Series::new("recovered-agree");
    let mut restarts = Series::new("restarts");
    let mut vtime = Series::new("vtime-cycles");
    let mut parallelism = Series::new("parallelism");
    for (idx, plat) in registry().iter().enumerate() {
        let id = plat.id();
        let x = idx as f64;

        let clean = run_on(plat, None)
            .unwrap_or_else(|e| panic!("backend-matrix: `{id}` failed fault-free: {e}"));
        let bits = f64_bits(&clean);
        assert!(
            bits == truth,
            "backend-matrix DIVERGENCE: `{id}` returned {bits:#018x}, ground truth {truth:#018x}"
        );
        agree.push(x, 1.0);
        vtime.push(x, clean.vtime_cycles as f64);
        parallelism.push(x, plat.caps().parallelism as f64);

        // Crash injection + adaptive checkpointing: every seed must
        // complete and still land on the exact answer, on every backend
        // — the fault/checkpoint machinery is shared through the trait.
        let mut rs = 0u64;
        for s in 0..nseeds {
            let seed = 0xBAC2_0000_0000_0000 | ((idx as u64) << 32) | s;
            let report = run_on(plat, Some(seed)).unwrap_or_else(|e| {
                panic!("backend-matrix: `{id}` seed {seed:#x} failed under checkpointing: {e}")
            });
            let rbits = f64_bits(&report);
            assert!(
                rbits == truth,
                "backend-matrix DIVERGENCE: `{id}` recovered run returned {rbits:#018x}, \
                 ground truth {truth:#018x}"
            );
            rs += report.restart.restarts;
        }
        recovered.push(x, 1.0);
        restarts.push(x, rs as f64);
    }

    // Device-bearing platforms additionally agree on a kernel workload.
    let kernel_table = hpclib::matmul_table(&[]).unwrap();
    let mut kernel_bits: Vec<(String, u32)> = Vec::new();
    for plat in registry() {
        if !plat.caps().global_kernels {
            continue;
        }
        let mut env = WootinJ::new(&kernel_table).unwrap();
        let app = MatmulApp::compose(
            &mut env,
            MatmulThread::Gpu,
            MatmulBody::GpuNaive,
            MatmulCalc::Optimized,
        )
        .unwrap();
        let code = env
            .jit_on(
                Arc::clone(&plat),
                &app,
                "start",
                &[Value::Int(16)],
                JitOptions::wootinj(),
            )
            .unwrap();
        let checksum = f32_result(&code.invoke(&env).unwrap()).to_bits();
        kernel_bits.push((plat.id().to_string(), checksum));
    }
    let mut kernel = Series::new("kernel-agree");
    if let Some((first_id, first)) = kernel_bits.first().cloned() {
        for (i, (id, bits)) in kernel_bits.iter().enumerate() {
            assert!(
                *bits == first,
                "backend-matrix DIVERGENCE: kernel checksum `{id}` {bits:#010x} != \
                 `{first_id}` {first:#010x}"
            );
            kernel.push(i as f64, 1.0);
        }
    }
    fig.note("kernel-agree covers the global_kernels-capable platforms (gpu-sim, mpi-sim)");

    fig.series
        .extend([agree, recovered, restarts, vtime, parallelism, kernel]);
    fig
}

/// Wall milliseconds of `samples` calls of `f` after one untimed warm-up
/// call: `[min, median, max]`.
fn wall_ms<R>(samples: usize, mut f: impl FnMut() -> R) -> [f64; 3] {
    std::hint::black_box(f());
    let mut ms: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    [ms[0], ms[ms.len() / 2], ms[ms.len() - 1]]
}

/// The executor-seam acceptance gate. Three claims, in escalating
/// strength:
///
/// 1. **Replay ≡ sim, bit for bit.** OS-thread workers in replay mode
///    must reproduce the cooperative loop exactly — results, virtual
///    time, and per-rank clocks — across worker counts, with crash
///    injection and checkpoint/restart included. Any divergence panics
///    (`scripts/check.sh` gates on this experiment).
/// 2. **Threads buy real time** on the matmul/stencil sweep:
///    median wall time at 4 workers must beat 1 worker by ≥ 1.5×.
///    This gate only arms when `available_parallelism() >= 4` — on
///    smaller hosts the sweep still runs and reports, but physics is
///    not asserted.
pub(super) fn wallclock(quick: bool) -> Figure {
    use wootinj::{ExecMode, ExecutorCfg, MpiSimPlatform};

    let mut fig = Figure::new(
        "wallclock",
        "executor seam: threads-replay == sim bit-identity, threaded throughput",
        "worker count",
        "see series",
    );
    fig.note(
        "replay-identical / replay-identical-faults are 1 when the threads-replay \
         run matches sim bit-for-bit on result, vtime, and per-rank clocks; any \
         mismatch panics (check.sh fails on divergence)",
    );

    let (n, steps, nseeds, workers): (i32, i32, u64, &[u32]) = if quick {
        (12, 6, 2, &[2, 4])
    } else {
        (24, 10, 4, &[1, 2, 4, 8])
    };
    fig.note(if quick {
        "quick mode: n=12, 6 steps, 2 fault seeds, workers {2,4}"
    } else {
        "full mode: n=24, 10 steps, 4 fault seeds, workers {1,2,4,8}"
    });

    let size = 4u32;
    let ring = Workload::ring_step_reduce(n, steps);
    let run_cfg = |cfg: ExecutorCfg, seed: Option<u64>| -> RunReport {
        let mut opts = JitOptions::wootinj().with_executor(cfg);
        if seed.is_some() {
            opts = opts.with_checkpointing(CheckpointPolicy::every(1));
        }
        let faults = seed.map(|seed| crashes(seed, 0.05));
        let world = World::On(Arc::new(MpiSimPlatform::new(size)));
        ring.run(world, opts, faults, 200_000)
            .unwrap_or_else(|e| panic!("wallclock: run under {cfg:?} failed: {e}"))
    };

    let reference = run_cfg(ExecutorCfg::Sim, None);
    let mut s_replay = Series::new("replay-identical");
    let mut s_replay_faults = Series::new("replay-identical-faults");
    for &w in workers {
        let cfg = ExecutorCfg::Threads {
            workers: w,
            mode: ExecMode::Replay,
        };
        let rep = run_cfg(cfg, None);
        let what = format!("fault-free, {w} workers");
        assert_identical("wallclock", &reference, &rep, &what);
        s_replay.push(w as f64, 1.0);
        for s in 0..nseeds {
            let seed = 0x3A11_0000_0000_0000 | ((w as u64) << 32) | s;
            let sim = run_cfg(ExecutorCfg::Sim, Some(seed));
            let rep = run_cfg(cfg, Some(seed));
            let what = format!("seed {seed:#x}, {w} workers");
            assert_identical("wallclock", &sim, &rep, &what);
            assert!(
                sim.restart.restarts == rep.restart.restarts,
                "wallclock DIVERGENCE: restart counts differ under seed {seed:#x}"
            );
        }
        s_replay_faults.push(w as f64, 1.0);
    }
    fig.series.push(s_replay);
    fig.series.push(s_replay_faults);

    // Throughput sweep: matmul Fox and the diffusion stencil, 1 worker
    // vs 4. min/median/max wall ms land in the
    // JSON so noise stays visible; the speedup gate compares medians.
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let (msize, sdim, ssteps) = if quick { (16, 12, 2) } else { (32, 16, 4) };
    let samples = if quick { 3 } else { 7 };
    let mat_table = hpclib::matmul_table(&[]).unwrap();
    let sten_table = hpclib::stencil_table(&[]).unwrap();
    // The workload's wall ms at `w` workers, and its result.
    let bench_workload = |which: &str, w: u32| -> ([f64; 3], String) {
        let cfg = ExecutorCfg::Threads {
            workers: w,
            mode: ExecMode::Replay,
        };
        let opts = JitOptions::wootinj().with_executor(cfg);
        let (env, mut code) = if which == "matmul-fox" {
            jit(&mat_table, opts, "start", &[Value::Int(msize)], |env| {
                MatmulApp::compose(env, MatmulThread::Mpi, MatmulBody::Fox, MatmulCalc::Simple)
                    .unwrap()
            })
        } else {
            let sargs = diffusion_args((sdim, sdim, sdim), ssteps);
            jit(&sten_table, opts, "invoke", &sargs, |env| {
                StencilApp::compose(env, StencilPlatform::CpuMpi, StencilApp::default_model())
                    .unwrap()
            })
        };
        // Both are MPI programs: without a 4-rank world they would run
        // on one-rank `interp`, where workers have nothing to share.
        code.set_mpi(4, MpiCostModel::default());
        let run = || {
            let report = code.invoke(&env).unwrap();
            assert_eq!(
                report.results.len(),
                4,
                "wallclock: {which} ran on {} ranks, not 4",
                report.results.len()
            );
            report
        };
        let probe = format!("{:?}", run().result);
        (wall_ms(samples, run), probe)
    };

    let mut s_speedup = Series::new("speedup-4w-over-1w");
    for (wi, which) in ["matmul-fox", "diffusion"].iter().enumerate() {
        let mut s_min = Series::new(format!("{which} wall-ms min"));
        let mut s_med = Series::new(format!("{which} wall-ms median"));
        let mut s_max = Series::new(format!("{which} wall-ms max"));
        let (base, base_val) = bench_workload(which, 1);
        let (par, par_val) = bench_workload(which, 4);
        assert!(
            base_val == par_val,
            "wallclock DIVERGENCE: {which} value drifted across worker counts \
             ({base_val} vs {par_val})"
        );
        for (w, [min, median, max]) in [(1.0, base), (4.0, par)] {
            s_min.push(w, min);
            s_med.push(w, median);
            s_max.push(w, max);
        }
        fig.series.push(s_min);
        fig.series.push(s_med);
        fig.series.push(s_max);
        let speedup = base[1] / par[1];
        s_speedup.push(wi as f64, speedup);
        if cores >= 4 {
            assert!(
                speedup >= 1.5,
                "wallclock: {which} speedup {speedup:.2}x < 1.5x \
                 with {cores} cores available"
            );
        }
    }
    fig.series.push(s_speedup);
    if cores >= 4 {
        fig.note(format!(
            "speedup gate ARMED: available_parallelism()={cores}, \
             median 4-worker wall must beat 1-worker by >=1.5x"
        ));
    } else {
        fig.note(format!(
            "speedup gate SKIPPED: available_parallelism()={cores} < 4 \
             (sweep still reported above)"
        ));
    }
    fig
}

/// The `dist` acceptance sweep: RING_STEP_REDUCE on the socket-backed
/// backend in both launch modes — in-process worker threads and real
/// per-rank OS processes (the `repro` binary re-executing itself
/// through `dist::worker::run_if_spawned`) — held bit-identical to
/// `mpi-sim` at every world size, plus a seeded crash-recovery pass
/// through the shared checkpoint chain on real processes. Rendezvous
/// ports are ephemeral (`127.0.0.1:0`) and every wire wait is
/// deadline-bounded, so the experiment cannot hang `scripts/check.sh`.
pub(super) fn dist(quick: bool) -> Figure {
    use wootinj::{DistPlatform, MpiSimPlatform};

    let mut fig = Figure::new(
        "dist",
        "dist backend: socket-connected ranks vs mpi-sim, threads and OS processes",
        "world size",
        "see series",
    );
    fig.note(
        "identical-threads / identical-procs are 1 when the dist run matches \
         mpi-sim bit-for-bit on result, vtime, and per-rank clocks; any \
         mismatch panics (check.sh fails on divergence)",
    );

    let (n, steps, sizes, nseeds): (i32, i32, &[u32], u64) = if quick {
        (12, 6, &[2, 4], 2)
    } else {
        (32, 12, &[2, 4, 8], 5)
    };
    fig.note(if quick {
        "quick mode: n=12, 6 steps, sizes {2,4}, 2 recovery seeds"
    } else {
        "full mode: n=32, 12 steps, sizes {2,4,8}, 5 recovery seeds"
    });

    let ring = Workload::ring_step_reduce(n, steps);
    let worker_exe = std::env::current_exe().expect("dist experiment: current_exe");
    let run_on = |plat: Arc<dyn Platform>, seed: Option<u64>| -> RunReport {
        let id = plat.id();
        let mut opts = JitOptions::wootinj();
        if seed.is_some() {
            opts = opts.with_checkpointing(CheckpointPolicy::every(1));
        }
        let faults = seed.map(|seed| crashes(seed, 0.05));
        ring.run(World::On(plat), opts, faults, 200_000)
            .unwrap_or_else(|e| panic!("dist experiment: `{id}` run failed: {e}"))
    };
    let procs = |size: u32| {
        Arc::new(
            DistPlatform::new(size).with_launch(dist::Launch::Processes {
                exe: worker_exe.clone(),
                args: vec![],
            }),
        )
    };

    let mut s_threads = Series::new("identical-threads");
    let mut s_procs = Series::new("identical-procs");
    let mut s_vtime = Series::new("vtime-cycles (mpi-sim == dist)");
    let mut s_overlap = Series::new("overlapped-rounds");
    for &size in sizes {
        let reference = run_on(Arc::new(MpiSimPlatform::new(size)), None);
        let threads = run_on(Arc::new(DistPlatform::new(size)), None);
        let what = format!("threads, size {size}");
        assert_identical("dist", &reference, &threads, &what);
        s_threads.push(size as f64, 1.0);
        let processes = run_on(procs(size), None);
        let what = format!("procs, size {size}");
        assert_identical("dist", &reference, &processes, &what);
        s_procs.push(size as f64, 1.0);
        s_vtime.push(size as f64, reference.vtime_cycles as f64);
        // The coordinator broadcasts Init, Restore, and Finish with an
        // overlapped fan-out (all requests written, then replies
        // awaited). Stats are drained before the Finish broadcast, so
        // a clean run reports the Init and Restore rounds; the
        // in-process backend never fans out at all.
        assert!(
            reference.resilience.overlapped_rounds == 0,
            "dist: mpi-sim counted overlapped fan-out rounds"
        );
        assert!(
            threads.resilience.overlapped_rounds >= 2,
            "dist: expected >=2 overlapped rounds (Init/Restore), got {}",
            threads.resilience.overlapped_rounds
        );
        s_overlap.push(size as f64, threads.resilience.overlapped_rounds as f64);
    }
    fig.series.push(s_threads);
    fig.series.push(s_procs);
    fig.series.push(s_vtime);
    fig.series.push(s_overlap);

    // Crash recovery on real processes: seeded crashes under cadence-1
    // checkpointing must land on the fault-free answer, bit for bit,
    // through the same chain-rollback machinery as every other backend.
    let size = 4u32;
    let clean = run_on(Arc::new(MpiSimPlatform::new(size)), None);
    let mut s_recover = Series::new("procs recovered-identical");
    let mut s_restarts = Series::new("procs restarts");
    let mut restarts = 0u64;
    for s in 0..nseeds {
        let seed = 0xD157_0000_0000_0000 | s;
        let report = run_on(procs(size), Some(seed));
        assert_eq!(
            format!("{:?}", report.results),
            format!("{:?}", clean.results),
            "dist DIVERGENCE: recovered process run, seed {seed:#x}"
        );
        s_recover.push(s as f64, 1.0);
        restarts += report.restart.restarts;
    }
    assert!(
        restarts >= 1,
        "dist crash seeds produced no restarts — the recovery gate is vacuous"
    );
    s_restarts.push(0.0, restarts as f64);
    fig.series.push(s_recover);
    fig.series.push(s_restarts);
    fig
}

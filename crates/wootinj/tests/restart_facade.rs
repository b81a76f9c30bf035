//! End-to-end checkpoint/restart through the facade: the ISSUE acceptance
//! property at the `JitOptions::with_checkpointing` layer. A seeded
//! crash-rate configuration that fails typed today must complete under
//! checkpointing with the fault-free answer bit-for-bit, and with a disk
//! cache attached the world checkpoint must persist next to the sealed
//! artifacts as `<fingerprint>.wckpt`.

use jvm::Value;
use wootinj::{
    build_table, CheckpointPolicy, FaultConfig, JitOptions, MpiCostModel, RunReport, SimError, Val,
    WjError, WootinJ,
};

/// Ring sendrecv + one allreduce per step: every step ends at a
/// collective, so checkpoints can land mid-run.
const APP: &str = r#"
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

const SIZE: u32 = 4;
const N: i32 = 16;
const STEPS: i32 = 12;

fn run(seed: Option<u64>, options: JitOptions) -> Result<RunReport, WjError> {
    let table = build_table(&[("ring_step_reduce.jl", APP)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let app = env.new_instance("RingStepReduce", &[]).unwrap();
    let mut code = env
        .jit(&app, "run", &[Value::Int(N), Value::Int(STEPS)], options)
        .unwrap();
    code.set_mpi(SIZE, MpiCostModel::default());
    if let Some(seed) = seed {
        let mut cfg = FaultConfig::seeded(seed);
        cfg.crash = 0.02;
        code.set_faults(cfg);
    }
    code.set_timeout(50_000);
    code.invoke(&env)
}

fn f32_bits(report: &RunReport) -> u32 {
    match report.result {
        Some(Val::F32(v)) => v.to_bits(),
        other => panic!("expected f32 result, got {other:?}"),
    }
}

/// Find a seed whose plain (uncheckpointed) run fails with a typed crash.
fn crashing_seed() -> u64 {
    for s in 0..64u64 {
        let seed = 0xFACA_DE00 + s;
        match run(Some(seed), JitOptions::wootinj()) {
            Err(WjError::Sim(SimError::Crash { .. })) => return seed,
            Ok(_) | Err(_) => continue,
        }
    }
    panic!("no crashing seed in the sweep — the fixture lost its teeth");
}

#[test]
fn checkpointing_recovers_a_crashed_world_through_the_facade() {
    let clean = run(None, JitOptions::wootinj()).expect("fault-free control");
    let seed = crashing_seed();

    let opts = JitOptions::wootinj().with_checkpointing(CheckpointPolicy::every(1));
    let report = run(Some(seed), opts).expect("checkpointed run must complete");

    assert_eq!(
        f32_bits(&report),
        f32_bits(&clean),
        "recovered run must match the fault-free answer bit-for-bit"
    );
    assert!(report.restart.restarts >= 1, "no restart happened: vacuous");
    assert_eq!(report.resilience.restarts, report.restart.restarts);
    assert!(report.restart.checkpoints_taken >= 1);
    assert!(report.resilience.crashes >= 1, "no crash was ever injected");
}

/// `CheckpointPolicy::adaptive(16)` must beat fixed cadence-16 on the
/// crash sweep: starting sparse and halving after every restart loses
/// strictly less virtual time than staying sparse, summed over seeds,
/// while both recover the fault-free answer bit-for-bit.
#[test]
fn adaptive_cadence_beats_fixed_16_on_the_crash_sweep() {
    let clean = run(None, JitOptions::wootinj()).expect("fault-free control");
    let clean_bits = f32_bits(&clean);

    let mut fixed_lost = 0u64;
    let mut adaptive_lost = 0u64;
    let mut multi_restart_seeds = 0u64;
    for s in 0..12u64 {
        let seed = 0xADA9_7000 + s;
        let fixed = run(
            Some(seed),
            JitOptions::wootinj().with_checkpointing(CheckpointPolicy::every(16)),
        )
        .expect("fixed-cadence run must complete");
        let adaptive = run(
            Some(seed),
            JitOptions::wootinj().with_checkpointing(CheckpointPolicy::adaptive(16)),
        )
        .expect("adaptive-cadence run must complete");

        assert_eq!(
            f32_bits(&fixed),
            clean_bits,
            "seed {seed:#x}: fixed diverged"
        );
        assert_eq!(
            f32_bits(&adaptive),
            clean_bits,
            "seed {seed:#x}: adaptive diverged"
        );
        fixed_lost += fixed.restart.virtual_time_lost;
        adaptive_lost += adaptive.restart.virtual_time_lost;
        if fixed.restart.restarts >= 2 {
            multi_restart_seeds += 1;
        }
    }
    assert!(
        multi_restart_seeds >= 1,
        "sweep never restarted twice — the comparison is vacuous"
    );
    assert!(
        adaptive_lost < fixed_lost,
        "adaptive cadence must lose less virtual time than fixed-16 \
         (adaptive {adaptive_lost} vs fixed {fixed_lost})"
    );
}

/// A process warm restart is fully warm through the disk cache alone:
/// `with_disk_cache` keeps the sealed artifact and `with_checkpointing`
/// persists the world checkpoint beside it, so a fresh process does no
/// translator work, resumes from the checkpoint, and still lands on the
/// fault-free answer bit-for-bit.
#[test]
fn disk_cache_makes_a_process_warm_restart_fully_warm() {
    let dir = std::env::temp_dir().join(format!("wj-warm-restart-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let clean_bits = f32_bits(&run(None, JitOptions::wootinj()).expect("control"));
    let seed = crashing_seed();

    let table = build_table(&[("ring_step_reduce.jl", APP)]).unwrap();
    let opts = || {
        JitOptions::wootinj()
            .with_disk_cache(&dir)
            .with_checkpointing(CheckpointPolicy::every(1))
    };
    let run_mpi = |env: &WootinJ<'_>, app: &Value| {
        let mut code = env
            .jit(app, "run", &[Value::Int(N), Value::Int(STEPS)], opts())
            .unwrap();
        code.set_mpi(SIZE, MpiCostModel::default());
        let mut cfg = FaultConfig::seeded(seed);
        cfg.crash = 0.02;
        code.set_faults(cfg);
        code.set_timeout(50_000);
        code.invoke(env).expect("checkpointed run must complete")
    };

    // "Process" 1: cold translate, persist the artifact, crash and
    // recover (persisting the world checkpoint as it goes).
    {
        let mut env = WootinJ::new(&table).unwrap();
        let app = env.new_instance("RingStepReduce", &[]).unwrap();
        let report = run_mpi(&env, &app);
        assert_eq!(f32_bits(&report), clean_bits);
        assert_eq!(
            env.cache_stats().translations,
            1,
            "exactly one cold translate"
        );
        assert!(
            report.restart.restarts >= 1,
            "seed must crash: vacuous otherwise"
        );
    }
    let has = |ext: &str| {
        std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .any(|e| e.path().extension().and_then(|x| x.to_str()) == Some(ext))
    };
    assert!(has("wjar"), "the artifact must persist beside…");
    assert!(has("wckpt"), "…the world checkpoint");

    // "Process" 2: fresh env — fully warm. Zero translator work; the
    // artifact decodes from disk and the persisted checkpoint
    // warm-starts the world.
    {
        let mut env = WootinJ::new(&table).unwrap();
        let app = env.new_instance("RingStepReduce", &[]).unwrap();
        let report = run_mpi(&env, &app);
        assert_eq!(f32_bits(&report), clean_bits);
        let stats = env.cache_stats();
        assert_eq!(
            stats.translations, 0,
            "warm restart must do zero translator work"
        );
        assert_eq!(stats.disk_hits, 1, "artifact must decode from disk");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disk_cache_persists_the_world_checkpoint_beside_the_artifacts() {
    let dir = std::env::temp_dir().join(format!("wj-facade-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let seed = crashing_seed();

    let opts = JitOptions::wootinj()
        .with_disk_cache(&dir)
        .with_checkpointing(CheckpointPolicy::every(1));
    run(Some(seed), opts).expect("checkpointed run must complete");

    let wckpts: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir must exist")
        .flatten()
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("wckpt"))
        .collect();
    assert_eq!(
        wckpts.len(),
        1,
        "exactly one persisted world checkpoint, got {wckpts:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

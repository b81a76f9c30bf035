//! `BENCH_counts.json`: the work each ruler program does, counted.
//!
//! Wall time on a shared 2-core host cannot resolve a change under 10 %;
//! these counts can. One record per program, at the sizes `benchmark/`
//! runs them: the fig3 stencil on the host and on the GPU, Fox on 4
//! ranks, the checkpointed ring with seeded crashes, and a generated app's
//! cold compile plus one body edit. Each record holds the result's bits,
//! the retired instructions of every rank's machine, virtual time and
//! cycles, the static size of the translated program (functions and
//! instructions after optimization, artifact bytes), and the
//! translator's, the query database's and the restart path's counters
//! (`TransStats`, and `QueryStats` and `RestartStats` through
//! `fields()`). `repro counts --write` writes the file and
//! `crates/bench/tests/counts_pin.rs` holds the tree to it.

use hpclib::{MatmulApp, MatmulBody, MatmulCalc, MatmulThread, StencilApp, StencilPlatform};
use jvm::Value;
use wootinj::{
    CheckpointPolicy, FaultConfig, GpuConfig, JitCode, JitOptions, MpiCostModel, QueryStats,
    RunReport, TransStats, Val, WootinJ, Workspace,
};

use super::gates::RING_STEP_REDUCE;
use super::incremental::{incr_sources, incr_stage};

/// One program's counts, in the order the file lists them.
type Record = Vec<(String, u64)>;

/// What every record starts with: the run's result and the work it did.
fn run_counts(code: &JitCode, report: &RunReport) -> Record {
    let bits = match report.result {
        Some(Val::F32(v)) => u64::from(v.to_bits()),
        Some(Val::F64(v)) => v.to_bits(),
        ref other => panic!("counts: expected a float result, got {other:?}"),
    };
    let ranks = &report.worlds.ranks;
    let mut r: Record = vec![
        ("result_bits".into(), bits),
        (
            "instrs".into(),
            ranks.iter().map(|o| o.machine.counters.instrs).sum(),
        ),
        ("vtime_cycles".into(), report.vtime_cycles),
        ("total_cycles".into(), report.total_cycles),
        (
            "gpu_time".into(),
            report.per_rank.iter().map(|p| p.gpu_time).sum(),
        ),
    ];
    // The static size of what it ran: the optimized program and its
    // artifact.
    let t = &code.translated;
    r.extend([
        ("nir.funcs".into(), t.program.funcs.len() as u64),
        (
            "nir.instrs".into(),
            t.program.funcs.iter().map(|f| f.code.len() as u64).sum(),
        ),
        ("artifact_bytes".into(), t.encode().len() as u64),
    ]);
    r.extend(trans_counts(&code.translated.stats));
    r.extend(
        report
            .restart
            .fields()
            .map(|(k, v)| (format!("restart.{k}"), v)),
    );
    r
}

/// `TransStats`' counters (its pass profiles hold wall time: left out).
fn trans_counts(s: &TransStats) -> Record {
    [
        ("specializations", s.specializations),
        ("devirtualized_calls", s.devirtualized_calls),
        ("virtual_calls", s.virtual_calls),
        ("inlined_ctors", s.inlined_ctors),
        ("inlined_calls", s.inlined_calls),
        ("kernels", s.kernels),
    ]
    .into_iter()
    .map(|(k, v)| (format!("trans.{k}"), u64::from(v)))
    .collect()
}

fn query_counts(q: &QueryStats) -> Record {
    q.fields().map(|(k, v)| (format!("query.{k}"), v)).collect()
}

/// The fig3 stencil at `n`³, 4 steps, on the host or on the default GPU.
fn stencil(platform: StencilPlatform, n: i32) -> Record {
    let table = hpclib::stencil_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let runner = StencilApp::compose(&mut env, platform, StencilApp::default_model()).unwrap();
    let args = [n, n, n, 4].map(Value::Int);
    let mut code = env
        .jit(&runner, "invoke", &args, JitOptions::wootinj())
        .unwrap();
    if platform.uses_gpu() {
        code.set_gpu(GpuConfig::default());
    }
    run_counts(&code, &code.invoke(&env).unwrap())
}

/// Fox matmul at n = 64 on 4 ranks.
fn fox() -> Record {
    let table = hpclib::matmul_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let app = MatmulApp::compose(
        &mut env,
        MatmulThread::Mpi,
        MatmulBody::Fox,
        MatmulCalc::Simple,
    )
    .unwrap();
    let mut code = env
        .jit(&app, "start", &[Value::Int(64)], JitOptions::wootinj())
        .unwrap();
    code.set_mpi(4, MpiCostModel::default());
    run_counts(&code, &code.invoke(&env).unwrap())
}

/// The ring of `ckpt-ring`: 1024 floats a rank, 48 steps on 4 ranks, a
/// checkpoint at every collective (a fresh base every 8), crashes at
/// rate 0.01 from one fixed seed.
fn ckpt_ring() -> Record {
    let table = wootinj::build_table(&[("ring_step_reduce.jl", RING_STEP_REDUCE)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let app = env.new_instance("RingStepReduce", &[]).unwrap();
    let policy = CheckpointPolicy::every(1).with_rebase_every(8);
    let opts = JitOptions::wootinj().with_checkpointing(policy);
    let args = [1024, 48].map(Value::Int);
    let mut code = env.jit(&app, "run", &args, opts).unwrap();
    code.set_mpi(4, MpiCostModel::default());
    code.set_timeout(50_000);
    code.set_max_restarts(64);
    code.set_faults(FaultConfig {
        crash: 0.01,
        ..FaultConfig::seeded(20_140_215)
    });
    run_counts(&code, &code.invoke(&env).unwrap())
}

/// A generated app of 8 stage classes: the cold build through a
/// `Workspace`, then one body edit of stage 3 and the re-jit. The query
/// counts of each phase include its parse and typeck.
fn app_cold_and_edit() -> Record {
    let k = 8;
    let mut ws = Workspace::new();
    for (name, text) in incr_sources(k) {
        ws.set_source(&name, &text).unwrap();
    }
    let jit = |ws: &Workspace| {
        let mut env = ws.env().unwrap();
        let stages: Vec<Value> = (0..k)
            .map(|i| {
                env.new_instance(&format!("Stage{i}"), &[Value::Float(i as f32)])
                    .unwrap()
            })
            .collect();
        let app = env.new_instance("App", &stages).unwrap();
        let data = env.new_f32_array(&[0.5, 1.0, 1.5, 2.0]);
        let code = env
            .jit(&app, "run", &[data], JitOptions::wootinj())
            .unwrap();
        run_counts(&code, &code.invoke(&env).unwrap())
    };
    let mut cold = jit(&ws);
    let after_cold = ws.query_stats();
    cold.extend(query_counts(&after_cold));
    ws.edit("stage3.jl", &incr_stage(3, 0, true, false))
        .unwrap();
    let mut edit = jit(&ws);
    edit.extend(query_counts(&ws.query_stats().since(&after_cold)));
    let phases = [("cold", cold), ("edit", edit)];
    phases
        .into_iter()
        .flat_map(|(phase, r)| r.into_iter().map(move |(k, v)| (format!("{phase}.{k}"), v)))
        .collect()
}

/// The text of `BENCH_counts.json`: one object, one record per program,
/// one counter per line.
pub fn counts_json() -> String {
    let records: [(&str, Record); 5] = [
        ("stencil-host", stencil(StencilPlatform::Cpu, 32)),
        ("stencil-gpu", stencil(StencilPlatform::Gpu, 24)),
        ("fox-ranks", fox()),
        ("ckpt-ring", ckpt_ring()),
        ("app-cold-edit", app_cold_and_edit()),
    ];
    let entries: Vec<String> = records
        .iter()
        .map(|(id, r)| {
            let lines: Vec<String> = r.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
            format!("\"{id}\": {{\n{}\n}}", lines.join(",\n"))
        })
        .collect();
    super::pin_file(&entries)
}

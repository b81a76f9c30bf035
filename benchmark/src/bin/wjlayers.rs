//! wjlayers — the traced, per-layer run.
//!
//! ```text
//! wjlayers trace [--workload <name>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! Replays a workload's operation *decomposed* into the public calls the
//! facade makes, in the same order, each wrapped in a harness-side span,
//! and runs a fixed suite of layer probes beside it. This is the only
//! file of the benchmark that names layer-internal public functions; it
//! measures every layer from outside. End-to-end numbers never come from
//! here: `coverage` (traced op p50 over untraced op p50, the latter from
//! sibling `wjbench child` runs before and after) says how faithfully the
//! decomposition reproduces the real operation.
//!
//! Where a metric comes from:
//! * *trace-derived* metrics are medians (or exact per-op counts) over
//!   the named workload's traced operations, and read 0 when that
//!   operation never makes the call;
//! * *probe* metrics come from the suite in [`probes`], which is the
//!   same in every traced run.

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::process::{Command, ExitCode, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use exec::ckpt::chain::{resolve_prefix, ChainState};
use exec::{ExecMode, ExecutorCfg, FaultConfig, Machine, Val};
use hpclib::{
    MatmulApp, MatmulBody, MatmulCalc, MatmulThread, StencilApp, StencilModel, StencilPlatform,
};
use jitd::proto::{self as jproto, Arg, Hello, Outcome, Reply, Request, SERVICE_PROTO};
use jitd::{Daemon, DaemonConfig};
use jvm::Value;
use mpi_sim::{read_frame, write_frame, CheckpointPolicy, WorldRun};
use nir::OptConfig;
use platform::{
    DistPlatform, GpuSimPlatform, InterpPlatform, MpiSimPlatform, Platform, RunRequest,
};
use translator::{bind_entry_args, entry_spec, CacheKey, TransConfig, Translated};
use wjbench::json::{self, obj, Value as Json};
use wjbench::plan::{self, Workload, PER_LAYER, WARMUP_OPS, WORKLOADS};
use wjbench::spans::Tracer;
use wjbench::{gen, stats};
use wootinj::cache::{CacheBackend, MemoryLru, Tiered};
use wootinj::{build_table, JitOptions, MpiCostModel, WootinJ, Workspace};

type Res<T> = Result<T, String>;

fn msg(e: impl std::fmt::Debug) -> String {
    format!("{e:?}")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("trace") => trace_main(&args[1..]),
        _ => Err("usage: wjlayers trace [--workload <name>] [--seed <n>] [--seconds <s>]".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("wjlayers: {e}");
            ExitCode::from(2)
        }
    }
}

/// Metric name -> value; a name not set reads 0.
type Metrics = BTreeMap<&'static str, f64>;

fn trace_main(args: &[String]) -> Res<bool> {
    let seed = plan::flag_u64(args, "--seed", plan::DEFAULT_SEED)?;
    let seconds = plan::flag_u64(args, "--seconds", plan::DEFAULT_SECONDS)?.max(1);
    let named = match plan::flag(args, "--workload") {
        Some(name) => {
            Some(plan::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?)
        }
        None => None,
    };
    let list: Vec<&'static Workload> = match named {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    println!(
        "wjlayers: seed {seed}, {seconds} s, {} core(s), tracing on",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let probe_metrics = probes(seed)?;
    let mut clean = true;
    let mut last = None;
    for w in list {
        let mut ctx = Ctx::new(w, seed, seconds);
        ctx.metrics = probe_metrics.clone();
        let before = untraced_p50(&ctx)?;
        match w.name {
            "stencil-flat" => invoke_workload(
                &mut ctx,
                Pre::Stencil(StencilPlatform::Cpu, plan::STENCIL_FLAT_N),
            ),
            "stencil-gpu" => invoke_workload(
                &mut ctx,
                Pre::Stencil(StencilPlatform::Gpu, plan::STENCIL_GPU_N),
            ),
            "fox-ranks" => invoke_workload(&mut ctx, Pre::Fox),
            "ckpt-ring" => invoke_workload(&mut ctx, Pre::Ring),
            "compile-cold" => compile_cold(&mut ctx),
            "edit-rejit" => edit_rejit(&mut ctx),
            "service-mix" => service_mix(&mut ctx),
            other => Err(format!("workload `{other}` has no traced replay")),
        }?;
        let after = untraced_p50(&ctx)?;
        ctx.finish(stats::median(&[before, after]))?;
        clean &= ctx.failures.is_empty();
        last = Some(ctx);
    }
    // The driver names one workload and reads the last line.
    if let (Some(_), Some(ctx)) = (named, last) {
        println!("{}", ctx.result_line().render());
    }
    Ok(named.is_some() || clean)
}

// ---------------------------------------------------------------------
// traced-run context
// ---------------------------------------------------------------------

struct Ctx {
    workload: &'static Workload,
    seed: u64,
    /// Traced operations (per client): a third of a timed run's.
    ops: usize,
    tracer: Tracer,
    metrics: Metrics,
    attempted: u64,
    failures: Vec<String>,
}

impl Ctx {
    fn new(workload: &'static Workload, seed: u64, seconds: u64) -> Ctx {
        let ops = (workload.ops_per_round(seconds) * plan::ROUNDS / 3).max(30) as usize;
        Ctx {
            workload,
            seed,
            ops,
            tracer: Tracer::new(),
            metrics: Metrics::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    fn script_len(&self) -> usize {
        WARMUP_OPS as usize + self.ops
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not a per-layer metric"
        );
        self.metrics.insert(name, value);
    }

    fn fail(&mut self, op: usize, e: &str) {
        let line = format!(
            "workload {} op {op} seed {}: {e}",
            self.workload.name, self.seed
        );
        eprintln!("FAIL {line}");
        self.failures.push(line);
    }

    /// Warm-ups into a throw-away tracer, then `ops` traced operations.
    /// `op` opens its own `"op"` span around the part the untraced
    /// workload times, and checks its result outside it.
    fn run_ops(&mut self, mut op: impl FnMut(usize, &mut Tracer) -> Res<()>) {
        let warm = WARMUP_OPS as usize;
        let mut scratch = Tracer::new();
        for j in 0..self.script_len() {
            let outcome = if j < warm {
                scratch.set_op(j as u64);
                op(j, &mut scratch)
            } else {
                self.tracer.set_op((j - warm) as u64);
                op(j, &mut self.tracer)
            };
            if j >= warm || outcome.is_err() {
                self.attempted += 1;
            }
            if let Err(e) = outcome {
                self.fail(j, &e);
            }
        }
        self.tracer.set_op(u64::MAX);
    }

    /// Median over operations of the time spent in spans called `span`.
    fn median_ns(&self, span: &str, self_only: bool) -> f64 {
        let per_op = self.tracer.per_op_ns(span, self_only);
        if per_op.is_empty() {
            0.0
        } else {
            stats::median(&per_op)
        }
    }

    fn set_ms(&mut self, name: &'static str, span: &str) {
        self.set(name, self.median_ns(span, false) / 1e6);
    }

    fn set_us(&mut self, name: &'static str, span: &str) {
        self.set(name, self.median_ns(span, false) / 1e3);
    }

    /// Coverage and the tail, the trace file, and the printed table.
    fn finish(&mut self, untraced_p50_ms: f64) -> Res<()> {
        let ops_ms: Vec<f64> = self
            .tracer
            .per_op_ns("op", false)
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        if !ops_ms.is_empty() {
            let sorted = stats::sorted(&ops_ms);
            self.set(
                "coverage",
                stats::percentile(&sorted, 50.0) / untraced_p50_ms,
            );
            self.set("wootinj.op_ms_p90", stats::percentile(&sorted, 90.0));
        }
        let dir = plan::out_dir();
        std::fs::create_dir_all(&dir).map_err(msg)?;
        let path = dir.join(format!("trace-{}.json", self.workload.name));
        std::fs::write(&path, self.tracer.chrome_trace().render() + "\n").map_err(msg)?;

        let name = self.workload.name;
        println!(
            "-- {name}: {} traced op(s), {} span(s), untraced op_ms_p50 {untraced_p50_ms:.3} ms, {}",
            ops_ms.len(),
            self.tracer.spans().len(),
            path.display()
        );
        for (metric, unit, _) in PER_LAYER {
            let v = self.metrics.get(metric).copied().unwrap_or(0.0);
            println!("{name:<13} {metric:<32} {v:>16.4} {unit}");
        }
        let coverage = self.metrics.get("coverage").copied().unwrap_or(0.0);
        if !(0.90..=1.15).contains(&coverage) {
            println!("{name:<13} NOTE coverage {coverage:.3} is outside 0.90-1.15: the decomposition misses or repeats work, or the host drifted between the traced and untraced blocks");
        }
        Ok(())
    }

    fn result_line(&self) -> Json {
        let metrics: Vec<(String, Json)> = PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    obj([("value", Json::Num(v)), ("unit", Json::from(*unit))]),
                )
            })
            .collect();
        obj([
            ("correct", Json::from(self.failures.is_empty())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failures.len() as u64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Untraced `op_ms_p50` of this workload right now: half the traced
/// operation count through the sibling `wjbench child`.
fn untraced_p50(ctx: &Ctx) -> Res<f64> {
    let exe = std::env::current_exe()
        .map_err(msg)?
        .with_file_name("wjbench");
    let ops = (ctx.ops / 2).max(1);
    let output = Command::new(&exe)
        .args(["child", ctx.workload.name, "0"])
        .args([ctx.seed.to_string(), ops.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let samples: Vec<f64> = text
        .lines()
        .last()
        .and_then(|l| json::parse(l).ok())
        .and_then(|v| {
            Some(
                v.get("samples_ms")?
                    .as_arr()?
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect(),
            )
        })
        .unwrap_or_default();
    if !output.status.success() || samples.is_empty() {
        return Err(format!(
            "untraced reference run of {} failed: {}",
            ctx.workload.name, output.status
        ));
    }
    Ok(stats::median(&samples))
}

// ---------------------------------------------------------------------
// shared pieces of the decomposed operations
// ---------------------------------------------------------------------

fn expect_f32(result: Option<Val>, want: f32, tol: f32) -> Res<()> {
    match result {
        Some(Val::F32(got)) if gen::rel_close(got, want, tol) => Ok(()),
        other => Err(format!("result {other:?}, reference {want}")),
    }
}

fn compose_stages(env: &mut WootinJ<'_>, k: usize) -> Res<Value> {
    let stages: Vec<Value> = (0..k)
        .map(|i| env.new_instance(&format!("Stage{i}"), &[Value::Float(i as f32)]))
        .collect::<Result<_, _>>()
        .map_err(msg)?;
    env.new_instance("App", &stages).map_err(msg)
}

fn check_against_interpreter(
    env: &mut WootinJ<'_>,
    app: &Value,
    data: &[f32],
    result: Option<Val>,
) -> Res<()> {
    let fresh = env.new_f32_array(data);
    let oracle = env.run_interpreted(app, "run", &[fresh]).map_err(msg)?;
    expect_f32(result, oracle.result.as_f32()?, 1e-6)
}

/// Everything `JitCode::invoke` passes to its platform besides the
/// program: the code's run knobs.
#[derive(Clone)]
struct Knobs {
    fault: Option<FaultConfig>,
    timeout_rounds: Option<u64>,
    checkpoint: Option<CheckpointPolicy>,
    max_restarts: u32,
    executor: ExecutorCfg,
}

/// What a freshly jitted `JitCode` carries before any `set_*` call.
impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            fault: None,
            timeout_rounds: None,
            checkpoint: None,
            max_restarts: wootinj::DEFAULT_MAX_RESTARTS,
            executor: ExecutorCfg::Sim,
        }
    }
}

/// `JitCode::invoke`, decomposed: a `RunRequest` handed to
/// `Platform::run` with a `bind_entry_args` closure.
fn invoke_decomposed(
    t: &mut Tracer,
    env: &WootinJ<'_>,
    translated: &Translated,
    recv: &Value,
    args: &[Value],
    platform: &dyn Platform,
    knobs: &Knobs,
) -> Res<WorldRun> {
    let req = RunRequest {
        program: &translated.program,
        entry: translated.entry,
        host: Some(&env.host),
        fault: knobs.fault,
        timeout_rounds: knobs.timeout_rounds,
        checkpoint: knobs.checkpoint.clone(),
        max_restarts: knobs.max_restarts,
        executor: knobs.executor,
    };
    let run = t.enter("platform.run");
    let outcome = platform.run(req, &mut |_, machine: &mut Machine| {
        t.span("translator.bind_args", |_| {
            bind_entry_args(&env.jvm, recv, args, &translated.bindings, machine)
                .map_err(|e| e.message)
        })
    });
    t.exit(run);
    outcome.map_err(msg)
}

fn retired_instrs(run: &WorldRun) -> u64 {
    run.ranks.iter().map(|r| r.machine.counters.instrs).sum()
}

/// `translator.encode_ms`, `decode_ms`, `decode_mb_per_s` and
/// `artifact_bytes` of the workload's own translated program.
fn artifact_metrics(ctx: &mut Ctx, translated: &Translated) -> Res<()> {
    let bytes = translated.encode();
    let encode_s = median_secs(9, 1, || {
        std::hint::black_box(translated.encode());
    });
    let decode_s = median_checked(9, || {
        Translated::decode(std::hint::black_box(&bytes))
            .map(|_| ())
            .map_err(msg)
    })?;
    ctx.set("translator.encode_ms", encode_s * 1e3);
    ctx.set("translator.decode_ms", decode_s * 1e3);
    ctx.set(
        "translator.decode_mb_per_s",
        bytes.len() as f64 / 1e6 / decode_s,
    );
    ctx.set("translator.artifact_bytes", bytes.len() as f64);
    Ok(())
}

/// `exec.*`, `translator.bind_args_us` and the cache ratios every
/// in-process workload reports from its `platform.run` spans.
fn run_metrics(ctx: &mut Ctx, instrs: u64, has_device: bool) {
    let ops = ctx.tracer.per_op_ns("platform.run", true);
    ctx.set(
        "exec.instrs_per_op",
        instrs as f64 / ops.len().max(1) as f64,
    );
    // With a device most of the wall is kernel threads, which the host
    // rank's instruction counter does not see: no per-instruction figure.
    if !has_device && instrs > 0 {
        ctx.set("exec.ns_per_instr", ops.iter().sum::<f64>() / instrs as f64);
    }
    ctx.set_us("translator.bind_args_us", "translator.bind_args");
}

// ---------------------------------------------------------------------
// stencil-flat, stencil-gpu, fox-ranks, ckpt-ring: invoke of pre-jitted code
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Pre {
    Stencil(StencilPlatform, i32),
    Fox,
    Ring,
}

fn invoke_workload(ctx: &mut Ctx, pre: Pre) -> Res<()> {
    let cost = MpiCostModel::default();
    // Set-up goes through the facade exactly as the untraced workload's
    // does; only the operation itself is decomposed.
    let table = match pre {
        Pre::Stencil(..) => hpclib::stencil_table(&[]),
        Pre::Fox => hpclib::matmul_table(&[]),
        Pre::Ring => build_table(&[("ring_step_reduce.jl", gen::RING_STEP_REDUCE)]),
    }
    .map_err(msg)?;
    let mut env = WootinJ::new(&table).map_err(msg)?;
    let (recv, method, args, want, platform, knobs): (
        Value,
        &str,
        Vec<Value>,
        f32,
        Box<dyn Platform>,
        Knobs,
    ) = match pre {
        Pre::Stencil(which, n) => {
            let model = StencilApp::default_model();
            let StencilModel::Diffusion { center, neighbor } = model else {
                return Err("the default stencil model is not diffusion".into());
            };
            let size = n as usize;
            let steps = plan::STENCIL_STEPS;
            let platform: Box<dyn Platform> = if which.uses_gpu() {
                Box::new(GpuSimPlatform {
                    gpu: Default::default(),
                    cost,
                })
            } else {
                Box::new(InterpPlatform { cost })
            };
            (
                StencilApp::compose(&mut env, which, model).map_err(msg)?,
                "invoke",
                [n, n, n, steps].map(Value::Int).to_vec(),
                hpclib::reference_diffusion(size, size, size, steps as usize, center, neighbor),
                platform,
                Knobs::default(),
            )
        }
        Pre::Fox => (
            MatmulApp::compose(
                &mut env,
                MatmulThread::Mpi,
                MatmulBody::Fox,
                MatmulCalc::Simple,
            )
            .map_err(msg)?,
            "start",
            vec![Value::Int(plan::FOX_N)],
            hpclib::reference_matmul(plan::FOX_N as usize),
            Box::new(MpiSimPlatform {
                ranks: plan::FOX_RANKS,
                cost,
                gpu: None,
            }),
            Knobs {
                executor: ExecutorCfg::Threads {
                    workers: plan::FOX_WORKERS,
                    mode: ExecMode::Replay,
                },
                ..Knobs::default()
            },
        ),
        Pre::Ring => (
            env.new_instance("RingStepReduce", &[]).map_err(msg)?,
            "run",
            [plan::RING_N, plan::RING_STEPS].map(Value::Int).to_vec(),
            gen::ring_reference(
                plan::RING_N as usize,
                plan::RING_STEPS as usize,
                plan::RING_RANKS as usize,
            ),
            Box::new(MpiSimPlatform {
                ranks: plan::RING_RANKS,
                cost,
                gpu: None,
            }),
            Knobs {
                timeout_rounds: Some(plan::RING_TIMEOUT_ROUNDS),
                ..Knobs::default()
            },
        ),
    };
    let code = env
        .jit(&recv, method, &args, JitOptions::wootinj())
        .map_err(msg)?;
    let translated = Arc::clone(&code.translated);

    let mut instrs = 0u64;
    let mut restart = mpi_sim::RestartStats::default();
    let mut plain_ms = Vec::new();
    let mut exact = None;
    if let Pre::Ring = pre {
        // The fault-free, checkpoint-free result every traced run must
        // reproduce bit for bit (and which the closed form vouches for).
        let mut scratch = Tracer::new();
        let run = invoke_decomposed(
            &mut scratch,
            &env,
            &translated,
            &recv,
            &args,
            platform.as_ref(),
            &knobs,
        )?;
        let result = run.ranks.first().and_then(|r| r.result);
        expect_f32(result, want, 1e-4)?;
        exact = result;
    }
    let seeds = gen::fault_seeds(ctx.seed, 0, ctx.script_len());
    ctx.run_ops(|j, t| {
        let mut knobs = knobs.clone();
        if let Pre::Ring = pre {
            // Every fourth op also runs plain, for `mpi-sim.ckpt_share`.
            if j % 4 == 0 {
                let t0 = Instant::now();
                invoke_decomposed(
                    &mut Tracer::new(),
                    &env,
                    &translated,
                    &recv,
                    &args,
                    platform.as_ref(),
                    &knobs,
                )?;
                plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            knobs.checkpoint =
                Some(CheckpointPolicy::every(1).with_rebase_every(plan::RING_REBASE_EVERY));
            knobs.max_restarts = plan::RING_MAX_RESTARTS;
            knobs.fault = Some(FaultConfig {
                crash: plan::RING_CRASH_RATE,
                ..FaultConfig::seeded(seeds[j])
            });
        }
        let op = t.enter("op");
        let run = invoke_decomposed(
            t,
            &env,
            &translated,
            &recv,
            &args,
            platform.as_ref(),
            &knobs,
        )?;
        t.exit(op);
        let result = run.ranks.first().and_then(|r| r.result);
        match exact {
            Some(exact) if result != Some(exact) => {
                return Err(format!(
                    "result {result:?}, reference {exact:?} (bit-equal)"
                ))
            }
            Some(_) => {}
            None => expect_f32(result, want, 1e-4)?,
        }
        if j >= WARMUP_OPS as usize {
            instrs += retired_instrs(&run);
            let r = run.restart;
            restart.restarts += r.restarts;
            restart.checkpoints_taken += r.checkpoints_taken;
            restart.rebases += r.rebases;
            restart.ckpt_bytes_written += r.ckpt_bytes_written;
        }
        Ok(())
    });

    let has_device = matches!(pre, Pre::Stencil(which, _) if which.uses_gpu());
    run_metrics(ctx, instrs, has_device);
    artifact_metrics(ctx, &translated)?;
    let ops = ctx.ops as f64;
    let op_ms = ctx.median_ns("op", false) / 1e6;
    match pre {
        Pre::Stencil(which, n) if which.uses_gpu() => {
            // Launch geometry of StencilGPU3D: 64-thread blocks over the
            // cells, one launch per step.
            let cells = (n * n * n) as f64;
            let threads = (cells / 64.0).ceil() * 64.0 * plan::STENCIL_STEPS as f64;
            ctx.set("gpu-sim.threads_per_op", threads);
            ctx.set(
                "gpu-sim.us_per_thread",
                ctx.median_ns("platform.run", true) / 1e3 / threads,
            );
            // The same problem on the CPU runner.
            let cpu =
                StencilApp::compose(&mut env, StencilPlatform::Cpu, StencilApp::default_model())
                    .map_err(msg)?;
            let cpu_code = env
                .jit(&cpu, method, &args, JitOptions::wootinj())
                .map_err(msg)?;
            let cpu_s = median_checked(5, || cpu_code.invoke(&env).map(|_| ()).map_err(msg))?;
            ctx.set("gpu-sim.wall_x_vs_cpu", op_ms / (cpu_s * 1e3));
        }
        Pre::Ring => {
            ctx.set("mpi-sim.restarts_per_op", restart.restarts as f64 / ops);
            ctx.set(
                "mpi-sim.ckpts_per_op",
                restart.checkpoints_taken as f64 / ops,
            );
            ctx.set("mpi-sim.rebases_per_op", restart.rebases as f64 / ops);
            ctx.set(
                "mpi-sim.ckpt_bytes_per_op",
                restart.ckpt_bytes_written as f64 / ops,
            );
            if !plain_ms.is_empty() && op_ms > 0.0 {
                ctx.set("mpi-sim.ckpt_share", 1.0 - stats::median(&plain_ms) / op_ms);
            }
        }
        _ => {}
    }
    Ok(())
}

// ---------------------------------------------------------------------
// compile-cold: source text to result, every cache empty
// ---------------------------------------------------------------------

fn compile_cold(ctx: &mut Ctx) -> Res<()> {
    let k = plan::COLD_STAGES;
    // `build_table` puts the prelude first.
    let mut files = vec![(
        "<prelude>".to_string(),
        wootinj::prelude::PRELUDE.to_string(),
    )];
    files.extend(gen::stage_sources(ctx.seed, k));
    let src_bytes: usize = files.iter().map(|(_, text)| text.len()).sum();
    let data = gen::app_data(ctx.seed);
    let scratch = plan::Scratch::new("trace-cold").map_err(msg)?;
    let config = TransConfig::full();

    // What the facade produces from the same sources: the decomposition
    // must arrive at the same program, byte for byte.
    let facade_bytes = {
        let sources: Vec<(&str, &str)> = files[1..]
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect();
        let table = build_table(&sources).map_err(msg)?;
        let mut env = WootinJ::new(&table).map_err(msg)?;
        let app = compose_stages(&mut env, k)?;
        let input = env.new_f32_array(&data);
        let code = env
            .jit(&app, "run", &[input], JitOptions::wootinj())
            .map_err(msg)?;
        code.translated.encode_semantic()
    };

    let mut instrs = 0u64;
    let mut last: Option<Arc<Translated>> = None;
    let mut stats_sum = (0u64, 0u64, 0u64, 0u64); // translations, served from a tier, lookups, ops
    let mut extra_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    ctx.run_ops(|j, t| {
        let dir = scratch.path().join(format!("op{j}"));
        let op = t.enter("op");
        // build_table: parse every unit, build the class table, check bodies.
        let units = t.span("jlang.parse", |_| {
            files
                .iter()
                .enumerate()
                .map(|(i, (_, text))| jlang::parser::parse_unit(i as u32, text))
                .collect::<Result<Vec<_>, _>>()
        });
        let mut table = t.span("jlang.table", |_| {
            jlang::table::build(units.map_err(msg)?).map_err(msg)
        })?;
        t.span("jlang.typeck", |_| jlang::typeck::check(&mut table))
            .map_err(msg)?;
        let mut env = t.span("jvm.init", |_| WootinJ::new(&table)).map_err(msg)?;
        let app = t.span("jvm.compose", |_| compose_stages(&mut env, k))?;
        let input = env.new_f32_array(&data);
        let args = [input];

        // jit: open the disk tier, derive the key, probe, translate, insert.
        let jit = t.enter("wootinj.jit");
        let mut cache = t.span("cache.open", |_| Tiered::open(&dir)).map_err(msg)?;
        let spec = t
            .span("translator.entry_spec", |_| {
                entry_spec(&table, &env.jvm, &app, "run", &args, config.mode)
            })
            .map_err(msg)?;
        let key = CacheKey::new(spec, config, Vec::new())
            .with_platform_salt(0)
            .with_source_fingerprint(0);
        if t.span("cache.lookup", |_| cache.lookup(&key)).is_some() {
            return Err("a cold compile hit a cache".into());
        }
        let whole = t.enter("translator.translate");
        let report = t.span("jrules.check", |_| jrules::check_program(&table));
        if !report.is_ok() {
            return Err(format!("coding-rule violations:\n{}", report.render()));
        }
        // Lowering alone, then the optimizer as its own call, so pass
        // time is separable from the translator's.
        let unoptimized = TransConfig {
            opt: OptConfig::none(),
            check_rules: false,
            ..config
        };
        let mut translated = t
            .span("translator.lower", |_| {
                translator::translate(&table, &env.jvm, &app, "run", &args, unoptimized)
            })
            .map_err(msg)?;
        let raw = (j == WARMUP_OPS as usize).then(|| translated.program.clone());
        translated.stats.passes = t.span("nir.optimize", |_| {
            nir::optimize(&mut translated.program, config.opt)
        });
        t.span("nir.validate", |_| translated.program.validate())?;
        t.exit(whole);
        let translated = Arc::new(translated);
        t.span("cache.insert", |_| {
            cache.record_translation();
            cache.insert(&key, &translated);
        });
        t.exit(jit);

        let run = invoke_decomposed(
            t,
            &env,
            &translated,
            &app,
            &args,
            &InterpPlatform::default(),
            &Knobs::default(),
        )?;
        t.exit(op);

        let result = run.ranks.first().and_then(|r| r.result);
        check_against_interpreter(&mut env, &app, &data, result)?;
        if translated.encode_semantic() != facade_bytes {
            return Err("the decomposed translation differs from the facade's artifact".into());
        }
        if j >= WARMUP_OPS as usize {
            instrs += retired_instrs(&run);
            let s = cache.stats();
            // A lookup probes the memory tier first, so hits + misses
            // counts lookups; either tier can serve one.
            stats_sum = (
                stats_sum.0 + s.translations,
                stats_sum.1 + s.hits + s.disk_hits,
                stats_sum.2 + s.hits + s.misses,
                stats_sum.3 + 1,
            );
            for p in &translated.stats.passes {
                extra_us
                    .entry(p.pass)
                    .or_default()
                    .push(p.wall.as_secs_f64() * 1e6);
            }
        }
        if let Some(mut raw) = raw {
            // inline and sroa are off in the WootinJ pipeline; time them
            // once on the same unoptimized program (the Template config).
            for p in nir::optimize(&mut raw, OptConfig::aggressive()) {
                if p.pass == "inline" || p.pass == "sroa" {
                    extra_us
                        .entry(p.pass)
                        .or_default()
                        .push(p.wall.as_secs_f64() * 1e6);
                }
            }
        }
        last = Some(translated);
        std::fs::remove_dir_all(&dir).map_err(msg)
    });
    drop(scratch);

    let translated = last.ok_or("no cold compile completed")?;
    ctx.set_ms("jlang.parse_ms", "jlang.parse");
    ctx.set_ms("jlang.table_ms", "jlang.table");
    ctx.set_ms("jlang.typeck_ms", "jlang.typeck");
    ctx.set("jlang.src_bytes", src_bytes as f64);
    let front_s = ["jlang.parse", "jlang.table", "jlang.typeck"]
        .map(|s| ctx.median_ns(s, false))
        .iter()
        .sum::<f64>()
        / 1e9;
    ctx.set("jlang.kb_per_s", src_bytes as f64 / 1024.0 / front_s);
    ctx.set_ms("jrules.check_ms", "jrules.check");
    ctx.set_us("jvm.compose_us", "jvm.compose");
    ctx.set_us("translator.entry_spec_us", "translator.entry_spec");
    ctx.set_ms("translator.translate_ms", "translator.translate");
    ctx.set_ms("translator.self_ms", "translator.lower");
    ctx.set(
        "translator.specializations",
        translated.stats.specializations as f64,
    );
    ctx.set(
        "translator.devirtualized_calls",
        translated.stats.devirtualized_calls as f64,
    );
    ctx.set_ms("nir.optimize_ms", "nir.optimize");
    pass_metrics(ctx, &extra_us, &translated);
    ctx.set(
        "wootinj.translations_per_op",
        stats_sum.0 as f64 / stats_sum.3.max(1) as f64,
    );
    ctx.set(
        "wootinj.hit_ratio",
        stats_sum.1 as f64 / stats_sum.2.max(1) as f64,
    );
    run_metrics(ctx, instrs, false);
    artifact_metrics(ctx, &translated)
}

/// `nir.pass.*_us` medians and the instruction counts around the
/// optimizer, from the `PassProfile`s of the traced translations.
fn pass_metrics(
    ctx: &mut Ctx,
    pass_us: &BTreeMap<&'static str, Vec<f64>>,
    translated: &Translated,
) {
    for (pass, name) in [
        ("inline", "nir.pass.inline_us"),
        ("fold", "nir.pass.fold_us"),
        ("dce", "nir.pass.dce_us"),
        ("sroa", "nir.pass.sroa_us"),
    ] {
        if let Some(samples) = pass_us.get(pass) {
            ctx.set(name, stats::median(samples));
        }
    }
    // Instructions entering the first pass and leaving the last.
    let passes = &translated.stats.passes;
    if let (Some(first), Some(last)) = (passes.first(), passes.last()) {
        ctx.set("nir.instrs_before", first.instrs_before as f64);
        ctx.set("nir.instrs_after", last.instrs_after as f64);
        ctx.set(
            "nir.shrink_ratio",
            last.instrs_after as f64 / first.instrs_before.max(1) as f64,
        );
    }
}

// ---------------------------------------------------------------------
// edit-rejit: edit one file, re-jit against the memoised queries
// ---------------------------------------------------------------------

fn edit_rejit(ctx: &mut Ctx) -> Res<()> {
    let k = plan::EDIT_STAGES;
    let data = gen::app_data(ctx.seed);
    let config = TransConfig::full();
    // `Workspace` is a `Database` seeded with the prelude.
    let mut db = querydb::Database::new();
    db.set_source("<prelude>", wootinj::prelude::PRELUDE)
        .map_err(msg)?;
    for (name, text) in gen::stage_sources(ctx.seed, k) {
        db.set_source(&name, &text).map_err(msg)?;
    }
    // The cold build every later edit is incremental against.
    {
        let mut env = WootinJ::from_db(&db).map_err(msg)?;
        let app = compose_stages(&mut env, k)?;
        let input = env.new_f32_array(&data);
        db.translate(&env.jvm, &app, "run", &[input], config)
            .map_err(msg)?;
    }
    let script = gen::edit_script(ctx.seed, 0, ctx.script_len(), k);
    let mut instrs = 0u64;
    let mut traced_from = None;
    let mut pass_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last: Option<Arc<Translated>> = None;
    let mut traced = 0u64;
    ctx.run_ops(|j, t| {
        let edit = &script[j];
        if j == WARMUP_OPS as usize {
            // Nothing but the traced ops touches the database from here on.
            traced_from = Some(db.stats());
        }
        let op = t.enter("op");
        t.span("querydb.edit", |_| db.edit(&edit.file, &edit.text))
            .map_err(msg)?;
        let mut env = t.span("jvm.init", |_| WootinJ::from_db(&db)).map_err(msg)?;
        let app = t.span("jvm.compose", |_| compose_stages(&mut env, k))?;
        let input = env.new_f32_array(&data);
        let args = [input];

        let jit = t.enter("wootinj.jit");
        let spec = t
            .span("translator.entry_spec", |_| {
                entry_spec(env.table, &env.jvm, &app, "run", &args, config.mode)
            })
            .map_err(msg)?;
        let key = CacheKey::new(spec, config, Vec::new())
            .with_platform_salt(0)
            .with_source_fingerprint(db.source_fingerprint());
        // A fresh env has a fresh, empty memory tier.
        let mut cache = MemoryLru::default();
        if t.span("cache.lookup", |_| cache.lookup(&key)).is_some() {
            return Err("an empty memory tier hit".into());
        }
        let translated = t
            .span("querydb.translate", |_| {
                db.translate(&env.jvm, &app, "run", &args, config)
            })
            .map_err(msg)?;
        let translated = Arc::new(translated);
        t.span("cache.insert", |_| {
            cache.record_translation();
            cache.insert(&key, &translated);
        });
        t.exit(jit);

        let run = invoke_decomposed(
            t,
            &env,
            &translated,
            &app,
            &args,
            &InterpPlatform::default(),
            &Knobs::default(),
        )?;
        t.exit(op);

        let result = run.ranks.first().and_then(|r| r.result);
        check_against_interpreter(&mut env, &app, &data, result)?;
        if j >= WARMUP_OPS as usize {
            traced += 1;
            instrs += retired_instrs(&run);
            for p in &translated.stats.passes {
                pass_us
                    .entry(p.pass)
                    .or_default()
                    .push(p.wall.as_secs_f64() * 1e6);
            }
        }
        last = Some(translated);
        Ok(())
    });

    let translated = last.ok_or("no re-jit completed")?;
    let queries = db.stats().since(&traced_from.unwrap_or_default());
    let n = traced.max(1) as f64;
    ctx.set_ms("querydb.edit_ms", "querydb.edit");
    ctx.set_ms("querydb.translate_ms", "querydb.translate");
    ctx.set("querydb.executed_per_op", queries.executed() as f64 / n);
    ctx.set("querydb.reused_per_op", queries.reused() as f64 / n);
    ctx.set(
        "querydb.early_cutoffs_per_op",
        queries.early_cutoffs as f64 / n,
    );
    ctx.set(
        "querydb.reuse_ratio",
        queries.reused() as f64 / (queries.reused() + queries.executed()).max(1) as f64,
    );
    ctx.set_us("jvm.compose_us", "jvm.compose");
    ctx.set_us("translator.entry_spec_us", "translator.entry_spec");
    ctx.set(
        "translator.specializations",
        translated.stats.specializations as f64,
    );
    ctx.set(
        "translator.devirtualized_calls",
        translated.stats.devirtualized_calls as f64,
    );
    pass_metrics(ctx, &pass_us, &translated);
    // Every op translates once into an empty tier.
    ctx.set("wootinj.translations_per_op", 1.0);
    ctx.set("wootinj.hit_ratio", 0.0);
    run_metrics(ctx, instrs, false);
    artifact_metrics(ctx, &translated)
}

// ---------------------------------------------------------------------
// service-mix: the real daemon, spans from the client side
// ---------------------------------------------------------------------

/// `jitd::client::Client`, decomposed to its frames: handshake, then
/// encode, write, read, decode per request.
struct WireClient {
    stream: TcpStream,
}

impl WireClient {
    fn connect(port: u16, tenant: &str) -> Res<WireClient> {
        let stream = TcpStream::connect(("127.0.0.1", port)).map_err(msg)?;
        stream.set_nodelay(true).map_err(msg)?;
        let limit = Some(Duration::from_secs(10));
        stream.set_read_timeout(limit).map_err(msg)?;
        stream.set_write_timeout(limit).map_err(msg)?;
        let mut client = WireClient { stream };
        let hello = Hello {
            proto: SERVICE_PROTO,
            tenant: tenant.to_string(),
        };
        write_frame(&mut client.stream, &jproto::encode_hello(&hello)).map_err(msg)?;
        match jproto::decode_reply(&read_frame(&mut client.stream).map_err(msg)?).map_err(msg)? {
            Reply::HelloOk { .. } => Ok(client),
            other => Err(format!("handshake refused: {other:?}")),
        }
    }

    fn request(&mut self, t: &mut Tracer, req: &Request) -> Res<Reply> {
        let bytes = t.span("jitd.encode", |_| jproto::encode_request(req));
        t.span("wire.write_frame", |_| {
            write_frame(&mut self.stream, &bytes)
        })
        .map_err(msg)?;
        // The daemon works while this read waits; its reply says how long
        // it compiled and ran, which become child spans of the wait.
        let wait = t.enter("wire.read_frame");
        let frame = read_frame(&mut self.stream);
        let reply = frame.map_err(msg).and_then(|f| {
            let reply = jproto::decode_reply(&f).map_err(msg)?;
            if let Reply::Done(o) = &reply {
                t.reported("daemon.compile", 0, o.compile_us * 1_000);
                t.reported("daemon.run", o.compile_us * 1_000, o.run_us * 1_000);
            }
            Ok(reply)
        });
        t.exit(wait);
        reply
    }
}

fn service_mix(ctx: &mut Ctx) -> Res<()> {
    let scratch = plan::Scratch::new("trace-svc").map_err(msg)?;
    let daemon = Daemon::bind(
        DaemonConfig {
            workers: plan::SVC_WORKERS,
            queue_cap: plan::SVC_QUEUE,
            root: scratch.path().to_path_buf(),
            ..DaemonConfig::default()
        },
        0,
    )
    .map_err(msg)?;
    let port = daemon.port();
    let server = std::thread::spawn(move || daemon.serve());
    let jit_req = |p: gen::SvcProgram, x: i32| {
        Request::Jit(jitd::client::jit_request(
            "svc.jl",
            &p.source(),
            "Svc",
            "run",
            vec![Arg::I32(x)],
        ))
    };

    let clients = plan::SVC_TENANTS.len();
    let gate = Arc::new(Barrier::new(clients));
    let epoch = ctx.tracer.epoch();
    let warm = WARMUP_OPS as usize;
    let mut handles = Vec::new();
    for (i, tenant) in plan::SVC_TENANTS.iter().enumerate() {
        let script: Vec<(gen::SvcRequest, i32)> =
            gen::request_mix(ctx.seed, 0, i as u64, ctx.script_len())
                .into_iter()
                .map(|r| (r, r.program.reference(r.x)))
                .collect();
        let mut client = WireClient::connect(port, tenant)?;
        let mut scratch = Tracer::new();
        for p in gen::svc_programs(ctx.seed) {
            match client.request(&mut scratch, &jit_req(p, 1))? {
                Reply::Done(o) if o.result == Some(Val::I32(p.reference(1))) => {}
                other => return Err(format!("priming request not served: {other:?}")),
            }
        }
        let gate = Arc::clone(&gate);
        let ops = ctx.ops;
        handles.push(std::thread::spawn(move || {
            let mut tracer = Tracer::with_epoch(epoch);
            let mut outcomes: Vec<Res<Outcome>> = Vec::new();
            for (j, (r, want)) in script.iter().enumerate() {
                let t = if j < warm {
                    &mut scratch
                } else {
                    // Operation ids of the two clients interleave.
                    tracer.set_op(((j - warm) * clients + i) as u64);
                    &mut tracer
                };
                if j == warm {
                    gate.wait();
                }
                let op = t.enter("op");
                let reply = client.request(t, &jit_req(r.program, r.x));
                t.exit(op);
                outcomes.push(match reply {
                    Ok(Reply::Done(o)) if o.result == Some(Val::I32(*want)) => Ok(o),
                    Ok(other) => Err(format!(
                        "request {j} not served right (reference {want}): {other:?}"
                    )),
                    Err(e) => Err(e),
                });
            }
            tracer.set_op(u64::MAX);
            debug_assert_eq!(outcomes.len(), warm + ops);
            (tracer, outcomes)
        }));
    }

    let mut compile_us = Vec::new();
    let mut run_us = Vec::new();
    for (i, h) in handles.into_iter().enumerate() {
        let (tracer, outcomes) = h.join().map_err(|_| "a client thread panicked")?;
        ctx.tracer.absorb(tracer);
        for (j, outcome) in outcomes.into_iter().enumerate() {
            if j >= warm || outcome.is_err() {
                ctx.attempted += 1;
            }
            match outcome {
                Ok(o) if j >= warm => {
                    compile_us.push(o.compile_us as f64);
                    run_us.push(o.run_us as f64);
                }
                Ok(_) => {}
                Err(e) => ctx.fail(j, &format!("client {i}: {e}")),
            }
        }
    }
    let mut control = WireClient::connect(port, "control")?;
    match control.request(&mut Tracer::new(), &Request::Shutdown)? {
        Reply::Bye => {}
        other => return Err(format!("shutdown not acknowledged: {other:?}")),
    }
    let served = server.join().map_err(|_| "the daemon thread panicked")?;
    drop(scratch);

    let latencies = stats::sorted(&ctx.tracer.per_op_ns("op", false));
    if latencies.is_empty() || compile_us.is_empty() {
        return Err("no request completed".into());
    }
    ctx.set("jitd.req_ms_p99", stats::percentile(&latencies, 99.0) / 1e6);
    ctx.set("jitd.compile_us_p50", stats::median(&compile_us));
    ctx.set("jitd.run_us_p50", stats::median(&run_us));
    // What is left of the client's wait once the daemon's own compile
    // and run are taken out: framing, the wire and the admission queue.
    ctx.set(
        "jitd.wire_queue_us_p50",
        ctx.median_ns("wire.read_frame", true) / 1e3,
    );
    ctx.set("jitd.translations", served.translations as f64);
    ctx.set("jitd.warm_hits", served.warm_hits as f64);
    ctx.set("jitd.follower_serves", served.follower_serves as f64);
    ctx.set("jitd.sheds", served.sheds() as f64);
    ctx.set("jitd.request_errors", served.request_errors as f64);
    let requests = (served.completed.max(1)) as f64;
    ctx.set(
        "wootinj.translations_per_op",
        served.translations as f64 / requests,
    );
    ctx.set("wootinj.hit_ratio", served.warm_hits as f64 / requests);
    // The artifact the daemon reads and decodes on every resident request.
    let program = gen::svc_programs(ctx.seed)[0];
    let mut ws = Workspace::new();
    ws.set_source("svc.jl", &program.source()).map_err(msg)?;
    let mut env = ws.env().map_err(msg)?;
    let recv = env.new_instance("Svc", &[]).map_err(msg)?;
    let code = env
        .jit(&recv, "run", &[Value::Int(1)], JitOptions::wootinj())
        .map_err(msg)?;
    artifact_metrics(ctx, &code.translated)
}

// ---------------------------------------------------------------------
// the probe suite: the same in every traced run
// ---------------------------------------------------------------------

/// Median seconds per call of `f`, over `reps` samples of `inner` calls.
fn median_secs(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..inner {
                f();
            }
            t0.elapsed().as_secs_f64() / inner as f64
        })
        .collect();
    stats::median(&samples)
}

/// A program that returns a constant: what is left is pure overhead.
const CONST_PROGRAM: &str = "@WootinJ final class K { K() { } int run() { return 7; } }";

/// 4-rank loops with negligible compute: wall / iterations is what one
/// collective costs the runtime.
const COLLECTIVE_LOOPS: &str = r#"
    @WootinJ final class AllreduceLoop {
      AllreduceLoop() { }
      float run(int iters) {
        float acc = 0f;
        for (int i = 0; i < iters; i++) { acc += MPI.allreduceSumF(1f); }
        return acc;
      }
    }
    @WootinJ final class SendrecvLoop {
      SendrecvLoop() { }
      float run(int iters) {
        int rank = MPI.rank();
        int size = MPI.size();
        float[] sbuf = new float[16];
        float[] rbuf = new float[16];
        sbuf[0] = rank;
        int dest = (rank + 1) % size;
        int src = (rank + size - 1) % size;
        for (int i = 0; i < iters; i++) { MPI.sendrecvF(sbuf, 0, 16, dest, rbuf, 0, src, 7); }
        return rbuf[0];
      }
    }
"#;
const COLLECTIVE_ITERS: i32 = 300;

/// Run `f` `reps` times, keep the median seconds, and fail on its first error.
fn median_checked(reps: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut failed = None;
    let secs = median_secs(reps, 1, || {
        if let Err(e) = f() {
            failed.get_or_insert(e);
        }
    });
    failed.map_or(Ok(secs), Err)
}

fn probes(seed: u64) -> Res<Metrics> {
    let mut m = Metrics::new();
    let cost = MpiCostModel::default();

    // baselines: the plain native run of the fox-ranks problem, and a
    // machine-speed anchor.
    let n = plan::FOX_N as usize;
    let native_s = median_secs(15, 1, || {
        std::hint::black_box(baselines::matmul::c_style::matmul_checksum(
            std::hint::black_box(n),
        ));
    });
    m.insert("baselines.matmul_native_ms", native_s * 1e3);

    // exec: the same matmul, single rank, through the translator and exec.
    {
        let table = hpclib::matmul_table(&[]).map_err(msg)?;
        let mut env = WootinJ::new(&table).map_err(msg)?;
        let app = MatmulApp::compose(
            &mut env,
            MatmulThread::CpuLoop,
            MatmulBody::Simple,
            MatmulCalc::Simple,
        )
        .map_err(msg)?;
        let code = env
            .jit(
                &app,
                "start",
                &[Value::Int(plan::FOX_N)],
                JitOptions::wootinj(),
            )
            .map_err(msg)?;
        let want = hpclib::reference_matmul(n);
        let secs = median_checked(3, || {
            expect_f32(code.invoke(&env).map_err(msg)?.result, want, 1e-4)
        })?;
        m.insert("exec.slowdown_vs_native", secs / native_s);
    }
    // exec: the stencil under the paper's C++ baseline (virtual dispatch,
    // heap objects), per retired instruction.
    {
        let table = hpclib::stencil_table(&[]).map_err(msg)?;
        let mut env = WootinJ::new(&table).map_err(msg)?;
        let runner =
            StencilApp::compose(&mut env, StencilPlatform::Cpu, StencilApp::default_model())
                .map_err(msg)?;
        let args = [16, 16, 16, plan::STENCIL_STEPS].map(Value::Int);
        let code = env
            .jit(&runner, "invoke", &args, JitOptions::cpp())
            .map_err(msg)?;
        let mut instrs = 0;
        let secs = median_checked(3, || {
            instrs = retired_instrs(&code.invoke(&env).map_err(msg)?.worlds);
            Ok(())
        })?;
        m.insert(
            "exec.ns_per_instr_virtual",
            secs * 1e9 / instrs.max(1) as f64,
        );
    }
    // exec::pool: what one batch costs to fan out and join.
    let pool_s = median_secs(50, 1, || {
        std::hint::black_box(exec::pool::parallel_map(2, vec![0u32; 4], |_, x| x));
    });
    m.insert("exec.pool_map_us", pool_s * 1e6);

    // exec::ckpt on the state of a ring rank; mpi-sim round costs; dist.
    {
        let table = build_table(&[
            ("ring_step_reduce.jl", gen::RING_STEP_REDUCE),
            ("loops.jl", COLLECTIVE_LOOPS),
            ("k.jl", CONST_PROGRAM),
        ])
        .map_err(msg)?;
        let mut env = WootinJ::new(&table).map_err(msg)?;
        let ring = env.new_instance("RingStepReduce", &[]).map_err(msg)?;
        let ring_args = [plan::RING_N, 4].map(Value::Int);
        let mut ring_code = env
            .jit(&ring, "run", &ring_args, JitOptions::wootinj())
            .map_err(msg)?;
        ring_code.set_mpi(plan::RING_RANKS, cost);
        let mut report = ring_code.invoke(&env).map_err(msg)?;
        let mut machine = std::mem::take(&mut report.worlds.ranks[0].machine);
        ckpt_probes(&mut m, &mut machine)?;

        for (class, name) in [
            ("AllreduceLoop", "mpi-sim.allreduce_us"),
            ("SendrecvLoop", "mpi-sim.sendrecv_us"),
        ] {
            let recv = env.new_instance(class, &[]).map_err(msg)?;
            let mut code = env
                .jit(
                    &recv,
                    "run",
                    &[Value::Int(COLLECTIVE_ITERS)],
                    JitOptions::wootinj(),
                )
                .map_err(msg)?;
            code.set_mpi(4, cost);
            let secs = median_checked(5, || code.invoke(&env).map(|_| ()).map_err(msg))?;
            m.insert(name, secs * 1e6 / COLLECTIVE_ITERS as f64);
        }

        // dist is parked and no workload runs on it: its cost is kept on
        // the ledger by a constant program (set-up and tear-down of four
        // socket workers) and a short ring against the same on mpi-sim.
        let konst = env.new_instance("K", &[]).map_err(msg)?;
        let konst_code = env
            .jit(&konst, "run", &[], JitOptions::wootinj())
            .map_err(msg)?;
        let dist = DistPlatform::new(plan::RING_RANKS);
        let sim = MpiSimPlatform {
            ranks: plan::RING_RANKS,
            cost,
            gpu: None,
        };
        let on = |platform: &dyn Platform,
                  translated: &Translated,
                  recv: &Value,
                  args: &[Value]|
         -> Res<()> {
            let req = RunRequest {
                program: &translated.program,
                entry: translated.entry,
                host: None,
                fault: None,
                timeout_rounds: Some(plan::RING_TIMEOUT_ROUNDS),
                checkpoint: None,
                max_restarts: 0,
                executor: ExecutorCfg::Sim,
            };
            platform
                .run(req, &mut |_, machine: &mut Machine| {
                    bind_entry_args(&env.jvm, recv, args, &translated.bindings, machine)
                        .map_err(|e| e.message)
                })
                .map(|_| ())
                .map_err(msg)
        };
        let setup_s = median_checked(3, || on(&dist, &konst_code.translated, &konst, &[]))?;
        let ring_s = median_checked(3, || on(&dist, &ring_code.translated, &ring, &ring_args))?;
        let sim_s = median_checked(3, || on(&sim, &ring_code.translated, &ring, &ring_args))?;
        m.insert("dist.setup_ms", setup_s * 1e3);
        m.insert("dist.ring_ms", ring_s * 1e3);
        m.insert("dist.overhead_x", ring_s / sim_s);

        // platform: `Platform::run` of the constant program.
        let gpu = GpuSimPlatform {
            gpu: Default::default(),
            cost,
        };
        let interp = InterpPlatform { cost };
        for (platform, name) in [
            (&interp as &dyn Platform, "platform.run_overhead_interp_us"),
            (&sim as &dyn Platform, "platform.run_overhead_mpi4_us"),
            (&gpu as &dyn Platform, "platform.run_overhead_gpu_us"),
        ] {
            let secs = median_checked(30, || on(platform, &konst_code.translated, &konst, &[]))?;
            m.insert(name, secs * 1e6);
        }
        // wootinj: what `invoke` adds around the platform's run.
        let invoke_s = median_checked(30, || konst_code.invoke(&env).map(|_| ()).map_err(msg))?;
        m.insert("wootinj.invoke_overhead_us", invoke_s * 1e6);
    }

    frame_probes(&mut m)?;
    proto_probes(&mut m, seed);
    facade_probes(&mut m, seed)?;
    Ok(m)
}

/// `exec.snapshot_*`, `restore_ms`, `chain_*` and `delta_ratio` on a
/// ring rank's machine: three arrays, of which one changes per step.
fn ckpt_probes(m: &mut Metrics, machine: &mut Machine) -> Res<()> {
    let bytes = machine.snapshot();
    m.insert("exec.snapshot_bytes", bytes.len() as f64);
    m.insert(
        "exec.snapshot_ms",
        1e3 * median_secs(15, 1, || {
            std::hint::black_box(machine.snapshot());
        }),
    );
    m.insert(
        "exec.restore_ms",
        1e3 * median_checked(15, || Machine::restore(&bytes).map(|_| ()).map_err(msg))?,
    );

    let mut chain = ChainState::new();
    let base = chain.push(exec::ckpt::machine_array_sections(machine), false);
    let mut links = vec![base.bytes.clone()];
    let mut push_s = Vec::new();
    let mut delta_bytes = Vec::new();
    for step in 0..plan::RING_REBASE_EVERY - 1 {
        // What a ring step does between checkpoints: rewrite one buffer.
        let sbuf = machine.mem.arr_mut(0).map_err(msg)?;
        for i in 0..plan::RING_N as usize {
            sbuf.set(i, Val::F32((step as usize * 31 + i) as f32 * 0.5))
                .map_err(msg)?;
        }
        let sections = exec::ckpt::machine_array_sections(machine);
        let t0 = Instant::now();
        let link = chain.push(sections, false);
        push_s.push(t0.elapsed().as_secs_f64());
        delta_bytes.push(link.bytes.len() as f64);
        links.push(link.bytes);
    }
    m.insert("exec.chain_push_ms", stats::median(&push_s) * 1e3);
    m.insert(
        "exec.delta_ratio",
        stats::median(&delta_bytes) / base.bytes.len() as f64,
    );
    let resolve_s = median_checked(15, || {
        let resolved = resolve_prefix(&links);
        match resolved.error {
            None if resolved.valid_links == links.len() => Ok(()),
            other => Err(format!(
                "chain resolved {} of {} links: {other:?}",
                resolved.valid_links,
                links.len()
            )),
        }
    })?;
    m.insert("exec.chain_resolve_ms", resolve_s * 1e3);
    Ok(())
}

/// `mpi-sim.frame_*_us`: a WFR1 frame of 1024 floats written and read
/// back, in memory and as a round trip over a loopback socket pair.
fn frame_probes(m: &mut Metrics) -> Res<()> {
    let payload = vec![0x5Au8; 4096];
    let mut failed = None;
    let mem_s = median_secs(20, 50, || {
        let mut wire = Vec::with_capacity(payload.len() + 32);
        let echoed =
            write_frame(&mut wire, &payload).and_then(|()| read_frame(&mut wire.as_slice()));
        if !matches!(&echoed, Ok(bytes) if *bytes == payload) {
            failed = Some("in-memory frame did not round-trip");
        }
    });
    m.insert("mpi-sim.frame_mem_us", mem_s * 1e6);

    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(msg)?;
    let port = listener.local_addr().map_err(msg)?.port();
    let echo = std::thread::spawn(move || -> Res<()> {
        let (mut peer, _) = listener.accept().map_err(msg)?;
        peer.set_nodelay(true).map_err(msg)?;
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(msg)?;
        // Echo until the probe hangs up.
        while let Ok(frame) = read_frame(&mut peer) {
            write_frame(&mut peer, &frame).map_err(msg)?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(("127.0.0.1", port)).map_err(msg)?;
    stream.set_nodelay(true).map_err(msg)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(msg)?;
    let tcp_s = median_secs(20, 10, || {
        let echoed = write_frame(&mut stream, &payload).and_then(|()| read_frame(&mut stream));
        if !matches!(&echoed, Ok(bytes) if *bytes == payload) {
            failed = Some("loopback frame did not round-trip");
        }
    });
    drop(stream);
    echo.join().map_err(|_| "the echo thread panicked")??;
    m.insert("mpi-sim.frame_tcp_us", tcp_s * 1e6);
    failed.map_or(Ok(()), |e| Err(e.into()))
}

/// `dist.proto_rt_us`, `jitd.proto_rt_us`: encode and decode one request
/// and its reply, in memory.
fn proto_probes(m: &mut Metrics, seed: u64) {
    let floats = vec![1.5f32; plan::RING_N as usize];
    let dist_s = median_secs(20, 20, || {
        let req = dist::proto::Request::WriteFloats {
            buf: 1,
            off: 0,
            payload: floats.clone(),
        };
        let req = dist::proto::decode_req(&dist::proto::encode_req(&req));
        let resp = dist::proto::decode_resp(&dist::proto::encode_resp(&dist::proto::Resp::Floats(
            floats.clone(),
        )));
        std::hint::black_box((req.is_ok(), resp.is_ok()));
    });
    m.insert("dist.proto_rt_us", dist_s * 1e6);

    let program = gen::svc_programs(seed)[0];
    let request = Request::Jit(jitd::client::jit_request(
        "svc.jl",
        &program.source(),
        "Svc",
        "run",
        vec![Arg::I32(7)],
    ));
    let reply = Reply::Done(Outcome {
        result: Some(Val::I32(program.reference(7))),
        translated: false,
        followed: false,
        compile_us: 900,
        run_us: 1_500,
    });
    let jitd_s = median_secs(20, 50, || {
        let req = jproto::decode_request(&jproto::encode_request(&request));
        let rep = jproto::decode_reply(&jproto::encode_reply(&reply));
        std::hint::black_box((req.is_ok(), rep.is_ok()));
    });
    m.insert("jitd.proto_rt_us", jitd_s * 1e6);
}

/// `wootinj.jit_*`, `disk_*`, `cache_key_us` and the `jvm` oracle's cost,
/// all on the service request program (what `service-mix` jits).
fn facade_probes(m: &mut Metrics, seed: u64) -> Res<()> {
    let program = gen::svc_programs(seed)[0];
    let source = program.source();
    let table = build_table(&[("svc.jl", source.as_str())]).map_err(msg)?;
    let args = [Value::Int(7)];
    let scratch = plan::Scratch::new("probe-cache").map_err(msg)?;

    let mut hit_us = Vec::new();
    let cold_s = median_checked(9, || {
        let mut env = WootinJ::new(&table).map_err(msg)?;
        let recv = env.new_instance("Svc", &[]).map_err(msg)?;
        env.jit(&recv, "run", &args, JitOptions::wootinj())
            .map_err(msg)?;
        // The same key again: served from the memory tier.
        let t0 = Instant::now();
        env.jit(&recv, "run", &args, JitOptions::wootinj())
            .map_err(msg)?;
        hit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        Ok(())
    })?;
    // The cold figure includes the memory-hit jit that followed it.
    m.insert("wootinj.jit_hit_us", stats::median(&hit_us));
    m.insert(
        "wootinj.jit_cold_ms",
        cold_s * 1e3 - stats::median(&hit_us) / 1e3,
    );

    let mut env = WootinJ::new(&table).map_err(msg)?;
    let recv = env.new_instance("Svc", &[]).map_err(msg)?;
    let config = TransConfig::full();
    let key_s = median_checked(30, || {
        env.cache_key(&recv, "run", &args, config, 0)
            .map(|_| ())
            .map_err(msg)
    })?;
    m.insert("wootinj.cache_key_us", key_s * 1e6);

    // Disk tier: insert into an empty store, then hit it from a fresh env.
    let warm_dir = scratch.path().join("warm");
    let code = env
        .jit(
            &recv,
            "run",
            &args,
            JitOptions::wootinj().with_disk_cache(&warm_dir),
        )
        .map_err(msg)?;
    let key = env.cache_key(&recv, "run", &args, config, 0).map_err(msg)?;
    let mut i = 0;
    let insert_s = median_checked(9, || {
        i += 1;
        let mut store = Tiered::open(scratch.path().join(format!("insert{i}"))).map_err(msg)?;
        store.insert(&key, &code.translated);
        Ok(())
    })?;
    m.insert("wootinj.disk_insert_ms", insert_s * 1e3);
    let disk_s = median_checked(9, || {
        let mut env = WootinJ::new(&table).map_err(msg)?;
        let recv = env.new_instance("Svc", &[]).map_err(msg)?;
        env.jit(
            &recv,
            "run",
            &args,
            JitOptions::wootinj().with_disk_cache(&warm_dir),
        )
        .map_err(msg)?;
        // `hits` counts the memory tier only; a fresh env can only have
        // been served by the disk tier.
        let s = env.cache_stats();
        match (s.disk_hits, s.translations) {
            (1, 0) => Ok(()),
            other => Err(format!(
                "expected one disk hit and no translation, got {other:?}"
            )),
        }
    })?;
    m.insert("wootinj.disk_hit_ms", disk_s * 1e3);
    drop(scratch);

    // jvm: the oracle's cost (the paper's Java series), no end-to-end metric.
    let mut steps = 0;
    let oracle_s = median_checked(5, || {
        let run = env.run_interpreted(&recv, "run", &args).map_err(msg)?;
        steps = run.steps;
        match run.result {
            Value::Int(v) if v == program.reference(7) => Ok(()),
            other => Err(format!(
                "interpreter result {other:?}, reference {}",
                program.reference(7)
            )),
        }
    })?;
    m.insert("jvm.oracle_ms", oracle_s * 1e3);
    m.insert("jvm.ns_per_step", oracle_s * 1e9 / steps.max(1) as f64);
    Ok(())
}

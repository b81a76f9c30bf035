//! wjbench — the end-to-end runner.
//!
//! Runs each workload with tracing off, checks every result against an
//! independent reference, and reports the end-to-end metrics by name
//! with their units. It touches the system only through the facade
//! (`wootinj`, `hpclib`, `jvm::Value`, `jitd`); per-layer numbers come
//! from the sibling binary `wjlayers`.
//!
//! ```text
//! wjbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   the driver's entry
//! wjbench run [--seed <n>] [--seconds <s>] [--smoke]                 every workload
//! wjbench compare <a.json> <b.json>                                  two run files
//! wjbench aa [--sets 2] [--runs 3] [--seed <n>] [--seconds <s>]      same build twice over
//! ```
//!
//! A run makes `ROUNDS` passes over its workloads and starts one child
//! process per workload per pass (`wjbench child ...`): each child does
//! its own set-up and warm-up, so `setup_s` and `peak_rss_mb` are taken
//! several times, and the timed samples of all children are pooled.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use hpclib::{
    MatmulApp, MatmulBody, MatmulCalc, MatmulThread, StencilApp, StencilModel, StencilPlatform,
};
use jitd::client::{jit_request, Client};
use jitd::proto::{Arg, Reply};
use jitd::{Daemon, DaemonConfig};
use jvm::Value;
use wjbench::json::{self, obj, Value as Json};
use wjbench::plan::{self, Workload, END_TO_END, ROUNDS, WARMUP_OPS, WORKLOADS};
use wjbench::{gen, stats};
use wootinj::{
    build_table, CheckpointPolicy, ExecMode, ExecutorCfg, FaultConfig, GpuConfig, JitCode,
    JitOptions, MpiCostModel, Val, WootinJ, Workspace,
};

type Res<T> = Result<T, String>;

fn msg(e: impl std::fmt::Debug) -> String {
    format!("{e:?}")
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => child_main(started, &args[1..]),
        Some("run") => run_main(&args[1..]),
        Some("compare") => compare_main(&args[1..]),
        Some("aa") => aa_main(&args[1..]),
        _ if plan::flag(&args, "--workload").is_some() => driver_main(&args),
        _ => Err(
            "usage: wjbench run|compare|aa ... | --workload <name> --seed <n> \
                  --seconds <s> --trace <0|1>"
                .into(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("wjbench: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// child: one workload, one round
// ---------------------------------------------------------------------

/// What one child measured; crosses the pipe as one JSON line.
#[derive(Debug, Default)]
struct ChildOut {
    /// Child start to first timed operation.
    setup_s: f64,
    /// Wall time the timed operations took (for one client, their sum).
    wall_s: f64,
    samples_ms: Vec<f64>,
    vcycles: u64,
    attempted: u64,
    failures: Vec<String>,
    rss_mb: f64,
}

impl ChildOut {
    fn to_json(&self) -> Json {
        obj([
            ("setup_s", Json::Num(self.setup_s)),
            ("wall_s", Json::Num(self.wall_s)),
            ("samples_ms", Json::from(self.samples_ms.clone())),
            ("vcycles", Json::from(self.vcycles)),
            ("attempted", Json::from(self.attempted)),
            ("failures", Json::from(self.failures.clone())),
            ("rss_mb", Json::Num(self.rss_mb)),
        ])
    }

    fn from_json(v: &Json) -> Option<ChildOut> {
        let num = |k: &str| v.get(k).and_then(Json::as_f64);
        Some(ChildOut {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            samples_ms: v
                .get("samples_ms")?
                .as_arr()?
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
            vcycles: num("vcycles")? as u64,
            attempted: num("attempted")? as u64,
            failures: v
                .get("failures")?
                .as_arr()?
                .iter()
                .filter_map(|f| f.as_str().map(String::from))
                .collect(),
            rss_mb: num("rss_mb")?,
        })
    }
}

/// Accumulates the timed part of one operation; reference checks and
/// clean-up around it stay outside.
#[derive(Default)]
struct Stopwatch {
    total: Duration,
    running: Option<Instant>,
}

impl Stopwatch {
    fn start(&mut self) {
        self.running = Some(Instant::now());
    }

    fn stop(&mut self) {
        if let Some(t) = self.running.take() {
            self.total += t.elapsed();
        }
    }

    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.start();
        let out = f();
        self.stop();
        out
    }
}

struct Child {
    started: Instant,
    workload: &'static Workload,
    round: u64,
    seed: u64,
    /// Timed operations per client.
    ops: usize,
    out: ChildOut,
}

impl Child {
    /// Operations a generator must provide: warm-ups, then timed ones.
    fn script_len(&self) -> usize {
        WARMUP_OPS as usize + self.ops
    }

    fn fail(&mut self, op: usize, e: &str) {
        let line = format!(
            "workload {} round {} op {op} seed {}: {e}",
            self.workload.name, self.round, self.seed
        );
        eprintln!("FAIL {line}");
        self.out.failures.push(line);
    }

    /// The closed loop of a single-client workload: `WARMUP_OPS` untimed
    /// operations, then `ops` timed ones. `op` gets the script index and
    /// a stopwatch and returns the operation's virtual cycles once its
    /// result has checked out.
    fn drive(&mut self, mut op: impl FnMut(usize, &mut Stopwatch) -> Res<u64>) {
        let warm = WARMUP_OPS as usize;
        for j in 0..self.script_len() {
            let timed = j >= warm;
            if j == warm {
                self.out.setup_s = self.started.elapsed().as_secs_f64();
            }
            let mut sw = Stopwatch::default();
            let outcome = op(j, &mut sw);
            if timed || outcome.is_err() {
                self.out.attempted += 1;
            }
            match outcome {
                Ok(vcycles) if timed => {
                    self.out.samples_ms.push(sw.total.as_secs_f64() * 1e3);
                    self.out.wall_s += sw.total.as_secs_f64();
                    self.out.vcycles += vcycles;
                }
                Ok(_) => {}
                Err(e) => self.fail(j, &e),
            }
        }
    }
}

fn child_main(started: Instant, args: &[String]) -> Res<bool> {
    // Every wait below is bounded on its own; this is the backstop that
    // keeps a wedged child from hanging the run.
    std::thread::spawn(|| {
        std::thread::sleep(plan::CHILD_WALL_LIMIT);
        eprintln!(
            "wjbench child: wall limit {:?} exceeded",
            plan::CHILD_WALL_LIMIT
        );
        std::process::exit(3);
    });
    let [name, round, seed, ops] = args else {
        return Err("usage: wjbench child <workload> <round> <seed> <ops>".into());
    };
    let workload = plan::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let parse = |s: &String| s.parse::<u64>().map_err(|_| format!("bad number `{s}`"));
    let mut c = Child {
        started,
        workload,
        round: parse(round)?,
        seed: parse(seed)?,
        ops: parse(ops)? as usize,
        out: ChildOut::default(),
    };
    match workload.name {
        "stencil-flat" => stencil(&mut c, StencilPlatform::Cpu, plan::STENCIL_FLAT_N),
        "stencil-gpu" => stencil(&mut c, StencilPlatform::Gpu, plan::STENCIL_GPU_N),
        "fox-ranks" => fox_ranks(&mut c),
        "compile-cold" => compile_cold(&mut c),
        "edit-rejit" => edit_rejit(&mut c),
        "ckpt-ring" => ckpt_ring(&mut c),
        "service-mix" => service_mix(&mut c),
        other => Err(format!("workload `{other}` has no runner")),
    }?;
    c.out.rss_mb = plan::vm_hwm_mb().unwrap_or(f64::NAN);
    println!("{}", c.out.to_json().render());
    Ok(true)
}

// ---------------------------------------------------------------------
// references
// ---------------------------------------------------------------------

fn expect_f32(result: Option<Val>, want: f32, tol: f32) -> Res<()> {
    match result {
        Some(Val::F32(got)) if gen::rel_close(got, want, tol) => Ok(()),
        other => Err(format!("result {other:?}, reference {want}")),
    }
}

/// Bit equality: for results that must not move at all.
fn expect_bits(result: Option<Val>, want: f32) -> Res<()> {
    match result {
        Some(Val::F32(got)) if got.to_bits() == want.to_bits() => Ok(()),
        other => Err(format!("result {other:?}, reference {want} (bit-equal)")),
    }
}

// ---------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------

/// `stencil-flat` / `stencil-gpu`: invoke of the pre-jitted 3-D
/// diffusion library; reference `hpclib::reference_diffusion`.
fn stencil(c: &mut Child, platform: StencilPlatform, n: i32) -> Res<()> {
    let steps = plan::STENCIL_STEPS;
    let table = hpclib::stencil_table(&[]).map_err(msg)?;
    let mut env = WootinJ::new(&table).map_err(msg)?;
    let model = StencilApp::default_model();
    let StencilModel::Diffusion { center, neighbor } = model else {
        return Err("the default stencil model is not diffusion".into());
    };
    let runner = StencilApp::compose(&mut env, platform, model).map_err(msg)?;
    let args = [n, n, n, steps].map(Value::Int);
    let mut code = env
        .jit(&runner, "invoke", &args, JitOptions::wootinj())
        .map_err(msg)?;
    if platform.uses_gpu() {
        code.set_gpu(GpuConfig::default());
    }
    let size = n as usize;
    let want = hpclib::reference_diffusion(size, size, size, steps as usize, center, neighbor);
    c.drive(|_, sw| {
        let report = sw.time(|| code.invoke(&env)).map_err(msg)?;
        expect_f32(report.result, want, 1e-4)?;
        Ok(report.vtime_cycles)
    });
    Ok(())
}

/// `fox-ranks`: invoke of the pre-jitted Fox matmul on 4 simulated
/// ranks executed by 2 replay-mode OS threads.
fn fox_ranks(c: &mut Child) -> Res<()> {
    let table = hpclib::matmul_table(&[]).map_err(msg)?;
    let mut env = WootinJ::new(&table).map_err(msg)?;
    let app = MatmulApp::compose(
        &mut env,
        MatmulThread::Mpi,
        MatmulBody::Fox,
        MatmulCalc::Simple,
    )
    .map_err(msg)?;
    let options = JitOptions::wootinj().with_executor(ExecutorCfg::Threads {
        workers: plan::FOX_WORKERS,
        mode: ExecMode::Replay,
    });
    let mut code = env
        .jit(&app, "start", &[Value::Int(plan::FOX_N)], options)
        .map_err(msg)?;
    code.set_mpi(plan::FOX_RANKS, MpiCostModel::default());
    let want = hpclib::reference_matmul(plan::FOX_N as usize);
    c.drive(|_, sw| {
        let report = sw.time(|| code.invoke(&env)).map_err(msg)?;
        expect_f32(report.result, want, 1e-4)?;
        Ok(report.vtime_cycles)
    });
    Ok(())
}

/// Instantiate `Stage0..k` and the `App` that sums them.
fn compose_stages(env: &mut WootinJ<'_>, k: usize) -> Res<Value> {
    let stages: Vec<Value> = (0..k)
        .map(|i| env.new_instance(&format!("Stage{i}"), &[Value::Float(i as f32)]))
        .collect::<Result<_, _>>()
        .map_err(msg)?;
    env.new_instance("App", &stages).map_err(msg)
}

/// The `jvm` interpreter's answer for `app.run(data)`: the oracle for
/// generated programs (never the translator under test). Untimed.
fn check_against_interpreter(
    env: &mut WootinJ<'_>,
    app: &Value,
    data: &[f32],
    result: Option<Val>,
) -> Res<()> {
    let fresh = env.new_f32_array(data);
    let oracle = env.run_interpreted(app, "run", &[fresh]).map_err(msg)?;
    let want = oracle.result.as_f32()?;
    expect_f32(result, want, 1e-6)
}

/// `compile-cold`: source text to result with every cache empty.
fn compile_cold(c: &mut Child) -> Res<()> {
    let k = plan::COLD_STAGES;
    let files = gen::stage_sources(c.seed, k);
    let sources: Vec<(&str, &str)> = files
        .iter()
        .map(|(n, t)| (n.as_str(), t.as_str()))
        .collect();
    let data = gen::app_data(c.seed);
    let scratch = plan::Scratch::new("cold").map_err(msg)?;
    c.drive(|j, sw| {
        let dir = scratch.path().join(format!("op{j}"));
        sw.start();
        let table = build_table(&sources).map_err(msg)?;
        let mut env = WootinJ::new(&table).map_err(msg)?;
        let app = compose_stages(&mut env, k)?;
        let input = env.new_f32_array(&data);
        let code = env
            .jit(
                &app,
                "run",
                &[input],
                JitOptions::wootinj().with_disk_cache(&dir),
            )
            .map_err(msg)?;
        let report = code.invoke(&env).map_err(msg)?;
        sw.stop();
        // Cold means cold: one translation, nothing served by either tier.
        let cache = env.cache_stats();
        if (cache.translations, cache.hits, cache.disk_hits) != (1, 0, 0) {
            return Err(format!("a cold compile was not cold: {cache:?}"));
        }
        check_against_interpreter(&mut env, &app, &data, report.result)?;
        std::fs::remove_dir_all(&dir).map_err(msg)?;
        Ok(report.vtime_cycles)
    });
    Ok(())
}

/// `edit-rejit`: edit one of 24 files, then env, compose, jit, invoke
/// against the workspace's memoised queries.
fn edit_rejit(c: &mut Child) -> Res<()> {
    let k = plan::EDIT_STAGES;
    let data = gen::app_data(c.seed);
    let mut ws = Workspace::new();
    for (name, text) in gen::stage_sources(c.seed, k) {
        ws.set_source(&name, &text).map_err(msg)?;
    }
    let rejit = |ws: &Workspace, sw: &mut Stopwatch| -> Res<u64> {
        let mut env = ws.env().map_err(msg)?;
        let app = compose_stages(&mut env, k)?;
        let input = env.new_f32_array(&data);
        let code = env
            .jit(&app, "run", &[input], JitOptions::wootinj())
            .map_err(msg)?;
        let report = code.invoke(&env).map_err(msg)?;
        sw.stop();
        check_against_interpreter(&mut env, &app, &data, report.result)?;
        Ok(report.vtime_cycles)
    };
    // The cold build every later edit is incremental against.
    rejit(&ws, &mut Stopwatch::default())?;
    let script = gen::edit_script(c.seed, c.round, c.script_len(), k);
    c.drive(|j, sw| {
        let edit = &script[j];
        sw.start();
        ws.edit(&edit.file, &edit.text).map_err(msg)?;
        rejit(&ws, sw)
    });
    Ok(())
}

fn ring_code(env: &WootinJ<'_>, app: &Value, options: JitOptions) -> Res<JitCode> {
    let args = [plan::RING_N, plan::RING_STEPS].map(Value::Int);
    let mut code = env.jit(app, "run", &args, options).map_err(msg)?;
    code.set_mpi(plan::RING_RANKS, MpiCostModel::default());
    code.set_timeout(plan::RING_TIMEOUT_ROUNDS);
    Ok(code)
}

/// `ckpt-ring`: a checkpoint at every collective, seeded crashes, and a
/// result that must stay bit-equal to the fault-free, checkpoint-free
/// run (itself checked against the closed form).
fn ckpt_ring(c: &mut Child) -> Res<()> {
    let table = build_table(&[("ring_step_reduce.jl", gen::RING_STEP_REDUCE)]).map_err(msg)?;
    let mut env = WootinJ::new(&table).map_err(msg)?;
    let app = env.new_instance("RingStepReduce", &[]).map_err(msg)?;
    let plain = ring_code(&env, &app, JitOptions::wootinj())?;
    let Some(Val::F32(want)) = plain.invoke(&env).map_err(msg)?.result else {
        return Err("the fault-free ring run returned no float".into());
    };
    let closed_form = gen::ring_reference(
        plan::RING_N as usize,
        plan::RING_STEPS as usize,
        plan::RING_RANKS as usize,
    );
    expect_f32(Some(Val::F32(want)), closed_form, 1e-4)?;
    let policy = CheckpointPolicy::every(1).with_rebase_every(plan::RING_REBASE_EVERY);
    let mut code = ring_code(&env, &app, JitOptions::wootinj().with_checkpointing(policy))?;
    code.set_max_restarts(plan::RING_MAX_RESTARTS);
    let seeds = gen::fault_seeds(c.seed, c.round, c.script_len());
    c.drive(|j, sw| {
        let mut code = code.clone();
        code.set_faults(FaultConfig {
            crash: plan::RING_CRASH_RATE,
            ..FaultConfig::seeded(seeds[j])
        });
        let report = sw.time(|| code.invoke(&env)).map_err(msg)?;
        expect_bits(report.result, want)?;
        Ok(report.vtime_cycles)
    });
    Ok(())
}

/// Virtual cycles of one request program, measured in-process: the
/// daemon's reply carries no virtual time.
fn svc_vcycles(p: gen::SvcProgram) -> Res<u64> {
    let mut ws = Workspace::new();
    ws.set_source("svc.jl", &p.source()).map_err(msg)?;
    let mut env = ws.env().map_err(msg)?;
    let recv = env.new_instance("Svc", &[]).map_err(msg)?;
    let code = env
        .jit(&recv, "run", &[Value::Int(1)], JitOptions::wootinj())
        .map_err(msg)?;
    Ok(code.invoke(&env).map_err(msg)?.vtime_cycles)
}

/// One request, checked against the closed-form evaluation of its loop.
/// Sheds, typed errors, timeouts and wrong results are all failures.
fn svc_request(client: &mut Client, r: &gen::SvcRequest, want: i32) -> Res<Duration> {
    let req = jit_request(
        "svc.jl",
        &r.program.source(),
        "Svc",
        "run",
        vec![Arg::I32(r.x)],
    );
    let t0 = Instant::now();
    let reply = client.jit(req);
    let took = t0.elapsed();
    match reply {
        Ok(Reply::Done(o)) if o.result == Some(Val::I32(want)) => Ok(took),
        Ok(Reply::Done(o)) => Err(format!("result {:?}, reference {want}", o.result)),
        Ok(other) => Err(format!("not served: {other:?}")),
        Err(e) => Err(format!("transport: {e}")),
    }
}

/// `service-mix`: two closed-loop client connections against an
/// in-process daemon with a fresh root.
fn service_mix(c: &mut Child) -> Res<()> {
    let scratch = plan::Scratch::new("svc").map_err(msg)?;
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

    // Set-up: the request scripts with their references, and one
    // request per resident program per tenant so its store is warm.
    let clients = plan::SVC_TENANTS.len();
    let mut scripts = Vec::new();
    for (i, tenant) in plan::SVC_TENANTS.iter().enumerate() {
        let script: Vec<(gen::SvcRequest, i32)> =
            gen::request_mix(c.seed, c.round, i as u64, c.script_len())
                .into_iter()
                .map(|r| (r, r.program.reference(r.x)))
                .collect();
        let mut client = Client::connect(port, tenant).map_err(msg)?;
        for p in gen::svc_programs(c.seed) {
            let r = gen::SvcRequest {
                program: p,
                resident: true,
                x: 1,
            };
            svc_request(&mut client, &r, p.reference(1))?;
        }
        scripts.push((client, script));
    }

    // Warm-up, then the timed phase; both clients start together.
    let gate = Arc::new(Barrier::new(clients + 1));
    let warm = WARMUP_OPS as usize;
    let handles: Vec<_> = scripts
        .into_iter()
        .map(|(mut client, script)| {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let mut outcomes: Vec<Res<Duration>> = Vec::with_capacity(script.len());
                for (j, (r, want)) in script.iter().enumerate() {
                    if j == warm {
                        gate.wait();
                    }
                    outcomes.push(svc_request(&mut client, r, *want));
                }
                (script, outcomes)
            })
        })
        .collect();
    gate.wait();
    c.out.setup_s = c.started.elapsed().as_secs_f64();
    let phase = Instant::now();
    let done: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    c.out.wall_s = phase.elapsed().as_secs_f64();

    let mut vcycles_of: BTreeMap<(i32, i32), u64> = BTreeMap::new();
    for (client, joined) in done.into_iter().enumerate() {
        let (script, outcomes) = joined.map_err(|_| "a client thread panicked")?;
        for (j, ((r, _), outcome)) in script.iter().zip(outcomes).enumerate() {
            let timed = j >= warm;
            if timed || outcome.is_err() {
                c.out.attempted += 1;
            }
            match outcome {
                Ok(took) if timed => {
                    c.out.samples_ms.push(took.as_secs_f64() * 1e3);
                    let key = (r.program.mul, r.program.add);
                    let vc = match vcycles_of.get(&key) {
                        Some(vc) => *vc,
                        None => {
                            let vc = svc_vcycles(r.program)?;
                            vcycles_of.insert(key, vc);
                            vc
                        }
                    };
                    c.out.vcycles += vc;
                }
                Ok(_) => {}
                Err(e) => c.fail(j, &format!("client {client}: {e}")),
            }
        }
    }

    Client::connect(port, "control")
        .and_then(|mut ctl| ctl.shutdown())
        .map_err(msg)?;
    let served = server.join().map_err(|_| "the daemon thread panicked")?;
    if served.sheds() + served.request_errors > 0 {
        c.fail(
            0,
            &format!(
                "daemon counted {} sheds, {} errors",
                served.sheds(),
                served.request_errors
            ),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// parent: rounds of children, pooled
// ---------------------------------------------------------------------

struct RunPlan {
    seed: u64,
    seconds: u64,
    rounds: u64,
    /// One round and a tenth of the operations, still fully checked.
    smoke: bool,
}

impl RunPlan {
    fn ops(&self, w: &Workload) -> u64 {
        let per_round = w.ops_per_round(self.seconds);
        if self.smoke {
            (per_round * ROUNDS / 10).max(1)
        } else {
            per_round
        }
    }
}

fn run_child(w: &Workload, round: u64, plan: &RunPlan) -> ChildOut {
    let ops = plan.ops(w);
    let lost = |why: String| ChildOut {
        attempted: ops * w.clients,
        failures: vec![format!(
            "workload {} round {round} seed {}: child lost: {why}",
            w.name, plan.seed
        )],
        ..ChildOut::default()
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return lost(msg(e)),
    };
    let output = Command::new(exe)
        .args(["child", w.name])
        .args([round, plan.seed, ops].map(|n| n.to_string()))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let output = match output {
        Ok(o) => o,
        Err(e) => return lost(msg(e)),
    };
    let text = String::from_utf8_lossy(&output.stdout);
    let parsed = text
        .lines()
        .last()
        .and_then(|l| json::parse(l).ok())
        .and_then(|v| ChildOut::from_json(&v));
    match parsed {
        Some(out) if output.status.success() => out,
        _ => lost(format!("{}, {} bytes of output", output.status, text.len())),
    }
}

/// One workload's pooled result.
struct Row {
    workload: &'static Workload,
    n: usize,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// One value per metric of `plan::reported()`, in that order.
    values: Vec<f64>,
    /// Highest percentile with ten samples beyond it, and its value.
    tail: Option<(f64, f64)>,
}

fn aggregate(w: &'static Workload, outs: &[ChildOut]) -> Row {
    let pooled = stats::sorted(&stats::pool(outs.iter().map(|o| &o.samples_ms)));
    let n = pooled.len();
    let attempted: u64 = outs.iter().map(|o| o.attempted).sum();
    let failures: Vec<String> = outs.iter().flat_map(|o| o.failures.clone()).collect();
    // A lost child fails every operation it was to run.
    let failed = attempted - n as u64;
    let wall_s: f64 = outs.iter().map(|o| o.wall_s).sum();
    let vcycles: u64 = outs.iter().map(|o| o.vcycles).sum();
    let measured: Vec<&ChildOut> = outs.iter().filter(|o| !o.samples_ms.is_empty()).collect();
    let setups: Vec<f64> = measured.iter().map(|o| o.setup_s).collect();
    let value = |name: &str| -> f64 {
        if name == "fail_share" {
            return failed as f64 / attempted.max(1) as f64;
        }
        if n == 0 {
            return f64::NAN;
        }
        match name {
            "op_ms_p50" => stats::percentile(&pooled, 50.0),
            "ops_per_s" => n as f64 / wall_s,
            "vcycles_per_op" => vcycles as f64 / n as f64,
            "peak_rss_mb" => measured.iter().map(|o| o.rss_mb).fold(f64::NAN, f64::max),
            "setup_s" => stats::median(&setups),
            other => unreachable!("no definition for metric {other}"),
        }
    };
    Row {
        workload: w,
        n,
        attempted,
        failed,
        failures,
        values: plan::reported().map(|m| value(m.name)).collect(),
        tail: stats::tail_percentile(n).map(|p| (p, stats::percentile(&pooled, p))),
    }
}

/// Run `list`, interleaved: each pass starts one child per workload, so
/// the slow drift of this kind of host spreads over all of them.
fn run_workloads(list: &[&'static Workload], plan: &RunPlan) -> Vec<Row> {
    let mut outs: Vec<Vec<ChildOut>> = list.iter().map(|_| Vec::new()).collect();
    for round in 0..plan.rounds {
        for (w, slot) in list.iter().zip(&mut outs) {
            slot.push(run_child(w, round, plan));
        }
    }
    list.iter()
        .zip(&outs)
        .map(|(w, outs)| aggregate(w, outs))
        .collect()
}

fn cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn print_rows(rows: &[Row], plan: &RunPlan) {
    println!(
        "wjbench: seed {}, {} s per workload, {} round(s){}, {} core(s), tracing off",
        plan.seed,
        plan.seconds,
        plan.rounds,
        if plan.smoke { ", smoke" } else { "" },
        cores()
    );
    for row in rows {
        let name = row.workload.name;
        for (m, v) in plan::reported().zip(&row.values) {
            let note = match (m.name, row.tail) {
                ("op_ms_p50", Some((p, t))) => format!("  (n={}, p{p} {t:.3} ms)", row.n),
                ("op_ms_p50", None) => format!("  (n={})", row.n),
                ("fail_share", _) => format!("  ({} of {} failed)", row.failed, row.attempted),
                _ => String::new(),
            };
            println!("{name:<13} {:<15} {v:>14.4} {}{note}", m.name, m.unit);
        }
    }
}

/// `{name: {value, unit}}` for `metrics` paired with the row's values
/// (a shorter metric list takes the leading values).
fn metric_cells<'m>(row: &Row, metrics: impl IntoIterator<Item = &'m plan::Metric>) -> Json {
    let cells = metrics.into_iter().zip(&row.values).map(|(m, v)| {
        let cell = obj([("value", Json::Num(*v)), ("unit", Json::from(m.unit))]);
        (m.name, cell)
    });
    obj(cells)
}

fn rows_json(rows: &[Row], plan: &RunPlan) -> Json {
    let workloads: Vec<Json> = rows
        .iter()
        .map(|row| {
            obj([
                ("name", Json::from(row.workload.name)),
                ("n", Json::from(row.n as u64)),
                ("attempted", Json::from(row.attempted)),
                ("failed", Json::from(row.failed)),
                ("tail_p", row.tail.map_or(Json::Null, |(p, _)| Json::Num(p))),
                (
                    "op_ms_tail",
                    row.tail.map_or(Json::Null, |(_, t)| Json::Num(t)),
                ),
                ("metrics", metric_cells(row, plan::reported())),
            ])
        })
        .collect();
    obj([
        ("tool", Json::from("wjbench")),
        ("seed", Json::from(plan.seed)),
        ("seconds", Json::from(plan.seconds)),
        ("rounds", Json::from(plan.rounds)),
        ("smoke", Json::from(plan.smoke)),
        ("cores", Json::from(cores())),
        ("workloads", Json::Arr(workloads)),
    ])
}

fn write_out(file: &str, doc: &Json) -> Res<PathBuf> {
    let dir = plan::out_dir();
    std::fs::create_dir_all(&dir).map_err(msg)?;
    let path = dir.join(file);
    std::fs::write(&path, doc.render() + "\n").map_err(msg)?;
    Ok(path)
}

fn report_failures(rows: &[Row]) -> bool {
    let mut clean = true;
    for row in rows
        .iter()
        .filter(|r| r.failed > 0 || !r.failures.is_empty())
    {
        clean = false;
        for f in &row.failures {
            println!("FAIL {f}");
        }
    }
    clean
}

fn plan_from(args: &[String]) -> Res<RunPlan> {
    let smoke = args.iter().any(|a| a == "--smoke");
    Ok(RunPlan {
        seed: plan::flag_u64(args, "--seed", plan::DEFAULT_SEED)?,
        seconds: plan::flag_u64(args, "--seconds", plan::DEFAULT_SECONDS)?.max(1),
        rounds: if smoke { 1 } else { ROUNDS },
        smoke,
    })
}

/// `wjbench run`: every workload, every end-to-end metric.
fn run_main(args: &[String]) -> Res<bool> {
    let plan = plan_from(args)?;
    let list: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let t0 = Instant::now();
    let rows = run_workloads(&list, &plan);
    print_rows(&rows, &plan);
    let path = write_out(&format!("run-{}.json", plan.seed), &rows_json(&rows, &plan))?;
    println!(
        "wrote {} after {:.1} s",
        path.display(),
        t0.elapsed().as_secs_f64()
    );
    Ok(report_failures(&rows))
}

/// The driver's entry: one workload, the result object on the last line.
fn driver_main(args: &[String]) -> Res<bool> {
    let name = plan::flag(args, "--workload").unwrap_or_default();
    let w = plan::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    if plan::flag_u64(args, "--trace", 0)? != 0 {
        return traced(args);
    }
    let plan = plan_from(args)?;
    let rows = run_workloads(&[w], &plan);
    print_rows(&rows, &plan);
    let clean = report_failures(&rows);
    let row = &rows[0];
    let result = obj([
        ("correct", Json::from(clean)),
        ("attempted", Json::from(row.attempted.max(1))),
        ("failed", Json::from(row.failed)),
        ("metrics", metric_cells(row, &END_TO_END)),
    ]);
    println!("{}", result.render());
    // Failed operations are reported in the object; the run itself worked.
    Ok(true)
}

/// `--trace 1`: hand over to the sibling `wjlayers`, which prints the
/// per-layer result object itself.
fn traced(args: &[String]) -> Res<bool> {
    let exe = std::env::current_exe()
        .map_err(msg)?
        .with_file_name("wjlayers");
    let status = Command::new(&exe)
        .arg("trace")
        .args(args)
        .status()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    Ok(status.success())
}

// ---------------------------------------------------------------------
// compare, aa
// ---------------------------------------------------------------------

/// `(workload, metric) -> (value, spread over runs if known)`.
type Cells = BTreeMap<(String, String), (f64, Option<f64>)>;

fn cells_of(doc: &Json) -> Res<Cells> {
    let mut cells = Cells::new();
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("not a wjbench run file: no `workloads`")?;
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        for (metric, cell) in w.get("metrics").and_then(Json::as_obj).unwrap_or_default() {
            let value = cell.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let spread = cell.get("spread").and_then(Json::as_f64);
            cells.insert((name.to_string(), metric.clone()), (value, spread));
        }
    }
    Ok(cells)
}

/// Print one row per (workload, end-to-end metric); false on any `worse`.
fn compare(a: &Cells, b: &Cells) -> bool {
    println!(
        "{:<13} {:<15} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    let mut all_ok = true;
    for w in &WORKLOADS {
        for m in plan::reported() {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(&(va, sa)), Some(&(vb, sb))) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            // fail_share is held absolutely: its base is usually 0.
            let worse_by = if m.name == "fail_share" {
                vb - va
            } else {
                m.better.worse_by(va, vb)
            };
            let spread = sa.unwrap_or(0.0).max(sb.unwrap_or(0.0));
            let verdict = if !(va.is_finite() && vb.is_finite()) {
                "worse (missing)"
            } else if worse_by <= m.bound {
                "ok"
            } else if spread > m.bound {
                "unresolved"
            } else {
                "worse"
            };
            all_ok &= !verdict.starts_with("worse");
            // No ratio on a zero base (fail_share is normally 0 on both sides).
            let ratio = if va == 0.0 {
                format!("{:>9}", "-")
            } else {
                format!("{:>9.4}", vb / va)
            };
            println!(
                "{:<13} {:<15} {va:>14.4} {vb:>14.4} {ratio} {:>6.0}%  {verdict}",
                w.name,
                m.name,
                m.bound * 100.0
            );
        }
    }
    all_ok
}

fn compare_main(args: &[String]) -> Res<bool> {
    let [a, b] = args else {
        return Err("usage: wjbench compare <a.json> <b.json>".into());
    };
    let load = |p: &String| -> Res<Cells> {
        let text = std::fs::read_to_string(Path::new(p)).map_err(|e| format!("{p}: {e}"))?;
        cells_of(&json::parse(&text)?)
    };
    println!("a = {a}\nb = {b}  (ratio base: a)");
    Ok(compare(&load(a)?, &load(b)?))
}

/// Medians (and spreads) over the runs of one set, as a run file.
fn set_json(runs: &[Vec<Row>], plan: &RunPlan) -> Json {
    let workloads: Vec<Json> = WORKLOADS
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            let metrics: Vec<(String, Json)> = plan::reported()
                .enumerate()
                .map(|(mi, m)| {
                    let over_runs: Vec<f64> = runs.iter().map(|rows| rows[wi].values[mi]).collect();
                    let spread = (over_runs.len() >= 2).then(|| stats::spread(&over_runs));
                    let cell = obj([
                        ("value", Json::Num(stats::median(&over_runs))),
                        ("spread", spread.map_or(Json::Null, Json::Num)),
                        ("runs", Json::from(over_runs)),
                    ]);
                    (m.name.to_string(), cell)
                })
                .collect();
            obj([
                ("name", Json::from(w.name)),
                ("metrics", Json::Obj(metrics)),
            ])
        })
        .collect();
    obj([
        ("tool", Json::from("wjbench aa")),
        ("seed", Json::from(plan.seed)),
        ("seconds", Json::from(plan.seconds)),
        ("runs", Json::from(runs.len() as u64)),
        ("cores", Json::from(cores())),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// `wjbench aa`: the same build measured as two (or more) sets of runs,
/// each later set compared with the first by [`compare`].
fn aa_main(args: &[String]) -> Res<bool> {
    let sets = plan::flag_u64(args, "--sets", 2)?.max(2);
    let runs = plan::flag_u64(args, "--runs", 3)?.max(1);
    let base = plan_from(args)?;
    let list: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let mut clean = true;
    let mut docs = Vec::new();
    for set in 0..sets {
        let mut rows_of_runs = Vec::new();
        for run in 0..runs {
            // The same seeds in every set: run r always gets seed + r.
            let plan = RunPlan {
                seed: base.seed + run,
                ..plan_from(args)?
            };
            let rows = run_workloads(&list, &plan);
            println!("-- set {set} run {run}");
            print_rows(&rows, &plan);
            clean &= report_failures(&rows);
            rows_of_runs.push(rows);
        }
        let doc = set_json(&rows_of_runs, &base);
        write_out(&format!("aa-set{set}.json"), &doc)?;
        docs.push(doc);
    }
    let first = cells_of(&docs[0])?;
    for (set, doc) in docs.iter().enumerate().skip(1) {
        println!("-- A/A: set 0 (a) against set {set} (b), medians of {runs} run(s)");
        clean &= compare(&first, &cells_of(doc)?);
    }
    Ok(clean)
}

//! Every experiment `repro` runs, one row each of [`EXPERIMENTS`], in
//! paper order.
//!
//! `repro` owns the paper's evaluation (§4) in deterministic virtual
//! cycles (see `exec`/`mpi-sim`) and the gates `scripts/check.sh` runs;
//! wall time per operation and per layer is `benchmark/`'s. The families:
//!
//! * `paper` — Figures 3–18, Tables 1–3, the DESIGN.md ablations, the
//!   reduction extension and the stage profile of a cold compile;
//! * `gates` — fault injection, checkpoint/restart, chaos, the backend
//!   matrix, the executor seam and the socket backend, each failing by
//!   panic on a broken claim;
//! * `incremental` — re-JIT latency after source churn;
//! * `service` — the `jitd` daemon under a seeded client storm.
//!
//! Workloads are scaled down from TSUBAME 2.0 size to laptop size; every
//! figure records its scaling in `notes`. Per the paper, the scaling
//! figures (4–12) *include* WootinJ's runtime compilation in the WootinJ
//! series (a deterministic model, converted to cycles), while Figures
//! 13–16 repeat the strong-scaling figures with compilation excluded.

mod gates;
mod incremental;
mod paper;
mod service;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use hpclib::{MatmulApp, MatmulBody, MatmulCalc, MatmulThread, StencilApp, StencilPlatform};
use jlang::ClassTable;
use jvm::Value;
use wootinj::{GpuConfig, JitCode, JitOptions, MpiCostModel, Val, WootinJ};

use crate::cprogs::{C_DIFFUSION, C_MATMUL};
use crate::series::Figure;

/// Deterministic model of the external compiler's cost (the icc/nvcc
/// invocation in the paper's Table 3): a fixed process-startup term plus a
/// per-generated-instruction term. Used for the "incl. compile" series so
/// the scaling figures stay reproducible; the *measured* translation wall
/// time is reported separately in Table 3.
pub const COMPILE_FIXED_CYCLES: f64 = 2.0e6;
pub const COMPILE_CYCLES_PER_INSTR: f64 = 3.0e3;

/// Modeled cost of one interpreter step in cycles (a bytecode-interpreter
/// dispatch on a 2010s x86 — documented model parameter for the *Java*
/// series, which the interpreter reports in steps).
pub const JAVA_STEP_CYCLES: u64 = 28;

/// One experiment: its id and what runs it (`true` selects the
/// smoke-test-sized variant, where the experiment has one).
pub type Experiment = (&'static str, fn(bool) -> Figure);

/// Every experiment, in paper order: `repro list`, `repro all` and
/// [`run_experiment_with`] all read this table.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig3", |_| paper::serial(&paper::FIG3)),
    ("tab1", |_| paper::tab1()),
    ("fig4", |_| paper::scaling(&paper::FIG4)),
    ("fig5", |_| paper::scaling(&paper::FIG5)),
    ("fig6", |_| paper::scaling(&paper::FIG6)),
    ("fig7", |_| paper::scaling(&paper::FIG7)),
    ("tab2", |_| paper::tab2()),
    ("fig9", |_| paper::scaling(&paper::FIG9)),
    ("fig10", |_| paper::scaling(&paper::FIG10)),
    ("fig11", |_| paper::scaling(&paper::FIG11)),
    ("fig12", |_| paper::scaling(&paper::FIG12)),
    ("tab3", |_| paper::tab3()),
    ("tab3-amortized", |_| paper::tab3_amortized()),
    ("pass-profile", paper::pass_profile),
    ("fig13", |_| paper::scaling(&paper::FIG13)),
    ("fig14", |_| paper::scaling(&paper::FIG14)),
    ("fig15", |_| paper::scaling(&paper::FIG15)),
    ("fig16", |_| paper::scaling(&paper::FIG16)),
    ("fig17", |_| paper::serial(&paper::FIG17)),
    ("fig18", |_| paper::serial(&paper::FIG18)),
    ("ablate-devirt", |_| paper::ablate_devirt()),
    ("ablate-inline", |_| paper::ablate_inline()),
    ("ablate-comm", |_| paper::ablate_comm()),
    ("ablate-gpu", |_| paper::ablate_gpu()),
    ("ext-reduce", |_| paper::ext_reduce()),
    ("fault-matrix", gates::fault_matrix),
    ("restart-cost", gates::restart_cost),
    ("chaos", gates::chaos),
    ("backend-matrix", gates::backend_matrix),
    ("wallclock", gates::wallclock),
    ("incremental", incremental::incremental),
    ("dist", gates::dist),
    ("service", service::service),
];

/// Run experiment `id`; `quick` selects its smoke-test-sized variant
/// where it has one. `None` for an unknown id.
pub fn run_experiment_with(id: &str, quick: bool) -> Option<Figure> {
    let (_, run) = EXPERIMENTS.iter().find(|(name, _)| *name == id)?;
    Some(run(quick))
}

/// The experiments whose smoke-sized JSON is the same on every run, in
/// [`EXPERIMENTS`] order: every one but those that report wall time
/// (`tab3`, `tab3-amortized`, `pass-profile`, `wallclock`, `incremental`,
/// `service`) and `dist`, which re-executes `repro` as a rank worker.
pub const PINNED: &[&str] = &[
    "fig3",
    "tab1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "tab2",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "ablate-devirt",
    "ablate-inline",
    "ablate-comm",
    "ablate-gpu",
    "ext-reduce",
    "fault-matrix",
    "restart-cost",
    "chaos",
    "backend-matrix",
];

/// One experiment's entry in `BENCH_figures.json`: its id as the key and
/// its figure's [`Figure::to_json`] as the value, one point per line.
pub fn pin_entry(id: &str, json: &str) -> String {
    format!("\"{id}\": {}", json.trim_end_matches('\n'))
}

/// The text of `BENCH_figures.json`: one JSON object holding the
/// smoke-sized figure of every [`PINNED`] experiment, keyed by id, so a
/// diff of the file names each point that moved.
pub fn figures_json() -> String {
    let entries: Vec<String> = PINNED
        .iter()
        .map(|id| {
            let fig = run_experiment_with(id, true).expect("every pinned id is an experiment");
            pin_entry(id, &fig.to_json())
        })
        .collect();
    pin_file(&entries)
}

/// `BENCH_figures.json`'s layout around its [`pin_entry`]s: one object.
pub fn pin_file(entries: &[String]) -> String {
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

/// The evaluation series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Java,
    Cpp,
    Template,
    TemplateNoVirt,
    WootinJ,
    C,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Java => "Java",
            Kind::Cpp => "C++",
            Kind::Template => "Template",
            Kind::TemplateNoVirt => "Template w/o virt.",
            Kind::WootinJ => "WootinJ",
            Kind::C => "C",
        }
    }

    /// The series' `jit` preset (the Java series is never jitted).
    pub fn jit_options(self) -> JitOptions {
        match self {
            Kind::Cpp => JitOptions::cpp(),
            Kind::Template => JitOptions::template(),
            Kind::TemplateNoVirt => JitOptions::template_no_virt(),
            // The hand-inlined C programs go through the same full
            // pipeline; there is nothing left to devirtualize or inline.
            Kind::WootinJ | Kind::C => JitOptions::wootinj(),
            Kind::Java => unreachable!("Java runs on the interpreter"),
        }
    }

    /// How [`run`] runs the series: `None` on the interpreter, else the
    /// preset, artifacts shared through `store` when there is one.
    fn opts(self, store: Option<&Path>) -> Option<JitOptions> {
        (self != Kind::Java).then(|| match store {
            Some(dir) => self.jit_options().with_disk_cache(dir),
            None => self.jit_options(),
        })
    }
}

/// One measured run.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub vtime: u64,
    pub result: f32,
    /// Generated NIR instructions (drives the modeled compile cost).
    pub instrs: usize,
    /// True when the run paid zero translator work: the sealed artifact
    /// came out of the figure's artifact store (the interpreter series is
    /// trivially warm — it never compiles anything).
    pub warm: bool,
}

impl Outcome {
    /// Virtual time plus the modeled runtime-compilation cost — applied to
    /// the WootinJ series only: the baselines are compiled ahead of time.
    pub fn with_compile(&self, kind: Kind) -> f64 {
        match kind {
            Kind::WootinJ => {
                self.vtime as f64
                    + COMPILE_FIXED_CYCLES
                    + COMPILE_CYCLES_PER_INSTR * self.instrs as f64
            }
            _ => self.vtime as f64,
        }
    }
}

/// A fresh directory under the system temp dir, removed with its contents
/// when dropped — also when a panic unwinds past its owner. The name is
/// `<prefix>-<pid>-<n>`, so two live guards never share a directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(prefix: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------

/// The arguments of the diffusion solvers' `invoke(nx, ny, nz, steps)`.
fn diffusion_args((nx, ny, nz): (i32, i32, i32), steps: i32) -> [Value; 4] {
    [
        Value::Int(nx),
        Value::Int(ny),
        Value::Int(nz),
        Value::Int(steps),
    ]
}

/// Compose a workload in a fresh env on `table` and jit `method(args)`
/// on the object `compose` returns.
fn jit<'t>(
    table: &'t ClassTable,
    opts: JitOptions,
    method: &str,
    args: &[Value],
    compose: impl FnOnce(&mut WootinJ<'t>) -> Value,
) -> (WootinJ<'t>, JitCode) {
    let mut env = WootinJ::new(table).expect("env");
    let recv = compose(&mut env);
    let code = env.jit(&recv, method, args, opts).unwrap();
    (env, code)
}

/// Compose a workload in a fresh env on `table` and run `method(args)`
/// on it: on the interpreter when `opts` is `None` (the Java series),
/// else jitted under `opts` and invoked on `mpi` ranks and/or a `gpu`.
fn run(
    table: &ClassTable,
    opts: Option<JitOptions>,
    method: &str,
    args: &[Value],
    mpi: Option<(u32, MpiCostModel)>,
    gpu: Option<GpuConfig>,
    compose: impl FnOnce(&mut WootinJ<'_>) -> Value,
) -> Outcome {
    let mut env = WootinJ::new(table).expect("env");
    let recv = compose(&mut env);
    let Some(opts) = opts else {
        assert!(
            mpi.is_none() && gpu.is_none(),
            "the Java series is CPU-only"
        );
        let r = env.run_interpreted(&recv, method, args).unwrap();
        let Value::Float(result) = r.result else {
            panic!("unexpected {}", r.result)
        };
        return Outcome {
            vtime: r.steps * JAVA_STEP_CYCLES,
            result,
            instrs: 0,
            warm: true,
        };
    };
    let mut code = env.jit(&recv, method, args, opts).unwrap();
    if let Some((ranks, cost)) = mpi {
        code.set_mpi(ranks, cost);
    }
    if let Some(config) = gpu {
        code.set_gpu(config);
    }
    let report = code.invoke(&env).unwrap();
    let result = match report.result {
        Some(Val::F32(x)) => x,
        other => panic!("expected f32 result, got {other:?}"),
    };
    Outcome {
        vtime: report.vtime_cycles,
        result,
        instrs: code.translated.program.instr_count(),
        warm: env.cache_stats().translations == 0,
    }
}

/// Run the diffusion workload in one series/platform configuration.
pub fn run_stencil(
    kind: Kind,
    platform: StencilPlatform,
    ranks: u32,
    dims: (i32, i32, i32),
    steps: i32,
    boxed: bool,
) -> Outcome {
    stencil(None, kind, platform, ranks, dims, steps, boxed)
}

/// [`run_stencil`], sharing artifacts through `store` when given.
fn stencil(
    store: Option<&Path>,
    kind: Kind,
    platform: StencilPlatform,
    ranks: u32,
    dims: (i32, i32, i32),
    steps: i32,
    boxed: bool,
) -> Outcome {
    let table = hpclib::stencil_table(&[("c_diffusion.jl", C_DIFFUSION)]).expect("compile");
    let mpi = platform
        .uses_mpi()
        .then_some((ranks, MpiCostModel::default()));
    let gpu = platform.uses_gpu().then(GpuConfig::default);
    let args = diffusion_args(dims, steps);
    run(&table, kind.opts(store), "invoke", &args, mpi, gpu, |env| {
        stencil_runner(env, kind, platform, boxed)
    })
}

/// The object whose `invoke(nx, ny, nz, steps)` the diffusion series
/// `kind` runs on `platform`: the hand-inlined program for *C*, else the
/// composed library (`boxed`: the Listing 1 `ScalarFloat` API, CPU only).
/// `env` must be built on [`hpclib::stencil_table`] plus
/// [`C_DIFFUSION`].
pub fn stencil_runner(
    env: &mut WootinJ<'_>,
    kind: Kind,
    platform: StencilPlatform,
    boxed: bool,
) -> Value {
    if kind == Kind::C {
        let class = match platform {
            StencilPlatform::Cpu => "CDiffusion",
            StencilPlatform::CpuMpi => "CDiffusionMPI",
            StencilPlatform::Gpu => "CDiffusionGPU",
            StencilPlatform::GpuMpi => "CDiffusionGPUMPI",
        };
        env.new_instance(class, &[Value::Float(0.4), Value::Float(0.1)])
            .unwrap()
    } else if boxed {
        assert_eq!(
            platform,
            StencilPlatform::Cpu,
            "the boxed runner is CPU-only"
        );
        StencilApp::compose_boxed(env, 0.4, 0.1).unwrap()
    } else {
        StencilApp::compose(env, platform, StencilApp::default_model()).unwrap()
    }
}

/// Matmul execution target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatTarget {
    Cpu,
    Fox,
    Gpu,
    FoxGpu,
}

/// Run the matmul workload in one series/target configuration.
pub fn run_matmul(kind: Kind, target: MatTarget, ranks: u32, n: i32) -> Outcome {
    matmul(None, kind, target, ranks, n)
}

/// [`run_matmul`], sharing artifacts through `store` when given.
fn matmul(store: Option<&Path>, kind: Kind, target: MatTarget, ranks: u32, n: i32) -> Outcome {
    let table = hpclib::matmul_table(&[("c_matmul.jl", C_MATMUL)]).expect("compile");
    let mpi = matches!(target, MatTarget::Fox | MatTarget::FoxGpu)
        .then_some((ranks, MpiCostModel::default()));
    let gpu = matches!(target, MatTarget::Gpu | MatTarget::FoxGpu).then(GpuConfig::default);
    run(
        &table,
        kind.opts(store),
        "start",
        &[Value::Int(n)],
        mpi,
        gpu,
        |env| matmul_app(env, kind, target),
    )
}

/// The object whose `start(n)` the matmul series `kind` runs on `target`:
/// the hand-inlined program for *C*, else the composed library. `env`
/// must be built on [`hpclib::matmul_table`] plus [`C_MATMUL`].
pub fn matmul_app(env: &mut WootinJ<'_>, kind: Kind, target: MatTarget) -> Value {
    if kind == Kind::C {
        let class = match target {
            MatTarget::Cpu => "CMatmul",
            MatTarget::Fox => "CMatmulFox",
            MatTarget::Gpu => "CMatmulGPU",
            MatTarget::FoxGpu => "CMatmulFoxGPU",
        };
        env.new_instance(class, &[]).unwrap()
    } else {
        let (thread, body) = match target {
            MatTarget::Cpu => (MatmulThread::CpuLoop, MatmulBody::Simple),
            MatTarget::Fox => (MatmulThread::Mpi, MatmulBody::Fox),
            MatTarget::Gpu => (MatmulThread::Gpu, MatmulBody::GpuNaive),
            MatTarget::FoxGpu => (MatmulThread::Mpi, MatmulBody::FoxGpu),
        };
        MatmulApp::compose(env, thread, body, MatmulCalc::Simple).unwrap()
    }
}

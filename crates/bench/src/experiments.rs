//! One function per table/figure of the paper's evaluation (§4).
//!
//! Workloads are scaled down from TSUBAME 2.0 size to laptop size; every
//! figure records its scaling in `notes`. Scaling figures are reported in
//! deterministic virtual cycles (see `exec`/`mpi-sim`); the serial
//! figures additionally get wall-clock Criterion benches in `benches/`.
//!
//! Per the paper, the scaling figures (4–12) *include* WootinJ's runtime
//! compilation in the WootinJ series (converted to cycles at the paper's
//! 2.9 GHz), while Figures 13–16 repeat the strong-scaling figures with
//! compilation excluded.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use hpclib::{MatmulApp, MatmulBody, MatmulCalc, MatmulThread, StencilApp, StencilPlatform};
use jvm::Value;
use nir::OptConfig;
use wootinj::{GpuConfig, JitOptions, MpiCostModel, Val, WootinJ};

use crate::cprogs::{C_DIFFUSION, C_MATMUL};
use crate::series::{Figure, Series};

/// The paper's Xeon clock: converts measured compile seconds to cycles.
pub const CPU_HZ: f64 = 2.9e9;

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

    fn jit_options(self) -> JitOptions {
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
}

/// One measured run.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub vtime: u64,
    pub compile: Duration,
    pub result: f32,
    /// Generated NIR instructions (drives the modeled compile cost).
    pub instrs: usize,
    /// True when the run paid zero translator work: the sealed artifact
    /// came out of the shared per-run store (the interpreter series is
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

fn f32_of(v: Option<Val>) -> f32 {
    match v {
        Some(Val::F32(x)) => x,
        other => panic!("expected f32 result, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------

/// One on-disk artifact directory shared by every sweep point of a
/// `repro` process: repeated sweep points — and the warm columns — reuse
/// sealed artifacts instead of re-translating at every (kind, x). Keyed
/// by pid so concurrent `repro` invocations never contend; wiped on
/// first use so a recycled pid cannot inherit stale artifacts.
fn sweep_store() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("wootinj-repro-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    })
}

/// Jit options for one sweep point: the series preset plus the shared
/// per-run disk store.
fn sweep_opts(kind: Kind) -> JitOptions {
    kind.jit_options().with_disk_cache(sweep_store())
}

/// The warm column of a figure: re-run sweep points in a fresh env per
/// point (a new process, in a real deployment) against the per-run
/// artifact store. A warm process pays no translation — asserted here —
/// so the column reports pure virtual time.
fn warm_column(
    name: &str,
    xs: impl IntoIterator<Item = f64>,
    mut run: impl FnMut(f64) -> Outcome,
) -> Series {
    let mut s = Series::new(name);
    for x in xs {
        let out = run(x);
        assert!(
            out.warm,
            "warm column at x={x}: artifact missing from the sweep store"
        );
        s.push(x, out.vtime as f64);
    }
    s
}

/// Note attached to every figure that carries a warm column.
const WARM_NOTE: &str =
    "warm = same sweep re-run from the shared per-run artifact store (zero translation)";

/// Run the diffusion workload in one series/platform configuration.
pub fn run_stencil(
    kind: Kind,
    platform: StencilPlatform,
    ranks: u32,
    dims: (i32, i32, i32),
    steps: i32,
    boxed: bool,
) -> Outcome {
    let table = hpclib::stencil_table(&[("c_diffusion.jl", C_DIFFUSION)]).expect("compile");
    let mut env = WootinJ::new(&table).expect("env");
    let args = [
        Value::Int(dims.0),
        Value::Int(dims.1),
        Value::Int(dims.2),
        Value::Int(steps),
    ];

    if kind == Kind::Java {
        assert_eq!(
            platform,
            StencilPlatform::Cpu,
            "the Java series is CPU-only"
        );
        let runner = if boxed {
            StencilApp::compose_boxed(&mut env, 0.4, 0.1).unwrap()
        } else {
            StencilApp::compose(&mut env, platform, StencilApp::default_model()).unwrap()
        };
        let r = env.run_interpreted(&runner, "invoke", &args).unwrap();
        let result = match r.result {
            Value::Float(v) => v,
            other => panic!("unexpected {other}"),
        };
        return Outcome {
            vtime: r.steps * JAVA_STEP_CYCLES,
            compile: Duration::ZERO,
            result,
            instrs: 0,
            warm: true,
        };
    }

    let runner = if kind == Kind::C {
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
        StencilApp::compose_boxed(&mut env, 0.4, 0.1).unwrap()
    } else {
        StencilApp::compose(&mut env, platform, StencilApp::default_model()).unwrap()
    };

    let mut code = env.jit(&runner, "invoke", &args, sweep_opts(kind)).unwrap();
    if platform.uses_mpi() {
        code.set_mpi(ranks, MpiCostModel::default());
    }
    if platform.uses_gpu() {
        code.set_gpu(GpuConfig::default());
    }
    let report = code.invoke(&env).unwrap();
    Outcome {
        vtime: report.vtime_cycles,
        compile: code.compile_time,
        result: f32_of(report.result),
        instrs: code.translated.program.instr_count(),
        warm: env.cache_stats().translations == 0,
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
    let table = hpclib::matmul_table(&[("c_matmul.jl", C_MATMUL)]).expect("compile");
    let mut env = WootinJ::new(&table).expect("env");
    let args = [Value::Int(n)];

    if kind == Kind::Java {
        assert_eq!(target, MatTarget::Cpu, "the Java series is CPU-only");
        let app = MatmulApp::compose(
            &mut env,
            MatmulThread::CpuLoop,
            MatmulBody::Simple,
            MatmulCalc::Simple,
        )
        .unwrap();
        let r = env.run_interpreted(&app, "start", &args).unwrap();
        let result = match r.result {
            Value::Float(v) => v,
            other => panic!("unexpected {other}"),
        };
        return Outcome {
            vtime: r.steps * JAVA_STEP_CYCLES,
            compile: Duration::ZERO,
            result,
            instrs: 0,
            warm: true,
        };
    }

    let app = if kind == Kind::C {
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
        MatmulApp::compose(&mut env, thread, body, MatmulCalc::Simple).unwrap()
    };

    let mut code = env.jit(&app, "start", &args, sweep_opts(kind)).unwrap();
    if matches!(target, MatTarget::Fox | MatTarget::FoxGpu) {
        code.set_mpi(ranks, MpiCostModel::default());
    }
    if matches!(target, MatTarget::Gpu | MatTarget::FoxGpu) {
        code.set_gpu(GpuConfig::default());
    }
    let report = code.invoke(&env).unwrap();
    Outcome {
        vtime: report.vtime_cycles,
        compile: code.compile_time,
        result: f32_of(report.result),
        instrs: code.translated.program.instr_count(),
        warm: env.cache_stats().translations == 0,
    }
}

// ---------------------------------------------------------------------
// Serial comparison figures (3, 17, 18)
// ---------------------------------------------------------------------

/// Figure 3: 3-D diffusion, single thread — Java vs C++ vs C. The boxed
/// (ScalarFloat) library API, as in the paper's Listing 1.
pub fn fig3() -> Figure {
    serial_diffusion(
        "fig3",
        "3D diffusion, 1 thread (Java / C++ / C)",
        &[Kind::Java, Kind::Cpp, Kind::C],
    )
}

/// Figure 17: Figure 3 extended with Template, Template w/o virt., WootinJ.
pub fn fig17() -> Figure {
    serial_diffusion(
        "fig17",
        "3D diffusion, 1 thread (all series)",
        &[
            Kind::Java,
            Kind::Cpp,
            Kind::Template,
            Kind::TemplateNoVirt,
            Kind::WootinJ,
            Kind::C,
        ],
    )
}

fn serial_diffusion(id: &str, title: &str, kinds: &[Kind]) -> Figure {
    let (dims, steps) = ((16, 16, 12), 3);
    let mut fig = Figure::new(id, title, "series", "virtual cycles");
    fig.note("paper: 128x128x128 on a 2.9 GHz Xeon; here 16x16x12, 3 steps on the NIR engine");
    fig.note(
        "boxed ScalarFloat solver API (paper Listing 1); the C program is hand-inlined and unboxed",
    );
    fig.note(format!(
        "Java series = interpreter steps x {JAVA_STEP_CYCLES} cycles (model constant)"
    ));
    let mut s = Series::new("cycles");
    for (i, &k) in kinds.iter().enumerate() {
        let out = run_stencil(k, StencilPlatform::Cpu, 1, dims, steps, true);
        s.push(i as f64, out.vtime as f64);
        fig.note(format!("x={i}: {}", k.name()));
    }
    fig.series.push(s);
    fig.note(WARM_NOTE);
    fig.series.push(warm_column(
        "warm",
        (0..kinds.len()).map(|i| i as f64),
        |x| {
            run_stencil(
                kinds[x as usize],
                StencilPlatform::Cpu,
                1,
                dims,
                steps,
                true,
            )
        },
    ));
    fig
}

/// Figure 18: matrix multiplication, single thread, all series.
pub fn fig18() -> Figure {
    let n = 24;
    let kinds = [
        Kind::Java,
        Kind::Cpp,
        Kind::Template,
        Kind::TemplateNoVirt,
        Kind::WootinJ,
        Kind::C,
    ];
    let mut fig = Figure::new(
        "fig18",
        "matrix multiplication, 1 thread (all series)",
        "series",
        "virtual cycles",
    );
    fig.note("paper: 1024x1024x1024; here 24x24 through the Matrix/Calculator components");
    fig.note(format!(
        "Java series = interpreter steps x {JAVA_STEP_CYCLES} cycles (model constant)"
    ));
    let mut s = Series::new("cycles");
    for (i, &k) in kinds.iter().enumerate() {
        let out = run_matmul(k, MatTarget::Cpu, 1, n);
        s.push(i as f64, out.vtime as f64);
        fig.note(format!("x={i}: {}", k.name()));
    }
    fig.series.push(s);
    fig.note(WARM_NOTE);
    fig.series.push(warm_column(
        "warm",
        (0..kinds.len()).map(|i| i as f64),
        |x| run_matmul(kinds[x as usize], MatTarget::Cpu, 1, n),
    ));
    fig
}

// ---------------------------------------------------------------------
// Diffusion scaling figures (4, 5, 6, 7; 13, 14)
// ---------------------------------------------------------------------

/// Figure 4: diffusion weak scaling over MPI (CPU only).
pub fn fig4() -> Figure {
    let per_rank = (16, 16, 8);
    let steps = 4;
    let ranks = [1u32, 2, 4, 8, 16, 32];
    let kinds = [
        Kind::C,
        Kind::Cpp,
        Kind::Template,
        Kind::TemplateNoVirt,
        Kind::WootinJ,
    ];
    let mut fig = Figure::new(
        "fig4",
        "diffusion weak scaling, MPI CPU",
        "ranks",
        "virtual cycles (ideal: flat)",
    );
    fig.note("paper: 128^3 per node, 1..128 nodes; here 16x16x8 per rank, 1..32 ranks");
    fig.note("WootinJ series includes the modeled runtime-compilation cost (see tab3)");
    for kind in kinds {
        let mut s = Series::new(kind.name());
        for &r in &ranks {
            let dims = (per_rank.0, per_rank.1, per_rank.2 * r as i32);
            let out = run_stencil(kind, StencilPlatform::CpuMpi, r, dims, steps, false);
            s.push(r as f64, out.with_compile(kind));
        }
        fig.series.push(s);
    }
    fig.note(WARM_NOTE);
    fig.series.push(warm_column(
        "WootinJ (warm)",
        ranks.iter().map(|&r| r as f64),
        |x| {
            let r = x as u32;
            let dims = (per_rank.0, per_rank.1, per_rank.2 * r as i32);
            run_stencil(
                Kind::WootinJ,
                StencilPlatform::CpuMpi,
                r,
                dims,
                steps,
                false,
            )
        },
    ));
    fig
}

/// Figure 5: diffusion strong scaling over MPI (CPU), C vs WootinJ,
/// including compilation time.
pub fn fig5() -> Figure {
    strong_diffusion_mpi("fig5", true)
}

/// Figure 13: Figure 5 with compilation time excluded.
pub fn fig13() -> Figure {
    strong_diffusion_mpi("fig13", false)
}

fn strong_diffusion_mpi(id: &str, include_compile: bool) -> Figure {
    let dims = (16, 16, 64);
    let steps = 4;
    let ranks = [1u32, 2, 4, 8, 16];
    let mut fig = Figure::new(
        id,
        if include_compile {
            "diffusion strong scaling, MPI CPU (incl. compile)"
        } else {
            "diffusion strong scaling, MPI CPU (excl. compile)"
        },
        "ranks",
        "virtual cycles",
    );
    fig.note("paper: 128x128x1024 total; here 16x16x64 total, 4 steps");
    for kind in [Kind::C, Kind::WootinJ] {
        let mut s = Series::new(kind.name());
        for &r in &ranks {
            let out = run_stencil(kind, StencilPlatform::CpuMpi, r, dims, steps, false);
            let y = if include_compile {
                out.with_compile(kind)
            } else {
                out.vtime as f64
            };
            s.push(r as f64, y);
        }
        fig.series.push(s);
    }
    fig.note(WARM_NOTE);
    fig.series.push(warm_column(
        "WootinJ (warm)",
        ranks.iter().map(|&r| r as f64),
        |x| {
            run_stencil(
                Kind::WootinJ,
                StencilPlatform::CpuMpi,
                x as u32,
                dims,
                steps,
                false,
            )
        },
    ));
    fig
}

/// Figure 6: diffusion weak scaling on GPUs (one per rank).
pub fn fig6() -> Figure {
    let per_rank = (16, 16, 8);
    let steps = 4;
    let ranks = [1u32, 2, 4, 8];
    let kinds = [Kind::C, Kind::Template, Kind::TemplateNoVirt, Kind::WootinJ];
    let mut fig = Figure::new(
        "fig6",
        "diffusion weak scaling, GPU + MPI",
        "ranks",
        "virtual cycles",
    );
    fig.note("paper: 384^3 per GPU, using the whole device memory; here 16x16x8 per rank");
    fig.note("no C++ series: the paper itself avoided virtual calls in CUDA kernels (§4)");
    for kind in kinds {
        let mut s = Series::new(kind.name());
        for &r in &ranks {
            let dims = (per_rank.0, per_rank.1, per_rank.2 * r as i32);
            let out = run_stencil(kind, StencilPlatform::GpuMpi, r, dims, steps, false);
            s.push(r as f64, out.with_compile(kind));
        }
        fig.series.push(s);
    }
    fig.note(WARM_NOTE);
    fig.series.push(warm_column(
        "WootinJ (warm)",
        ranks.iter().map(|&r| r as f64),
        |x| {
            let r = x as u32;
            let dims = (per_rank.0, per_rank.1, per_rank.2 * r as i32);
            run_stencil(
                Kind::WootinJ,
                StencilPlatform::GpuMpi,
                r,
                dims,
                steps,
                false,
            )
        },
    ));
    fig
}

/// Figure 7: diffusion strong scaling on GPUs, incl. compile.
pub fn fig7() -> Figure {
    strong_diffusion_gpu("fig7", true)
}

/// Figure 14: Figure 7 with compilation excluded.
pub fn fig14() -> Figure {
    strong_diffusion_gpu("fig14", false)
}

fn strong_diffusion_gpu(id: &str, include_compile: bool) -> Figure {
    let dims = (16, 16, 32);
    let steps = 4;
    let ranks = [1u32, 2, 4, 8];
    let mut fig = Figure::new(
        id,
        if include_compile {
            "diffusion strong scaling, GPU + MPI (incl. compile)"
        } else {
            "diffusion strong scaling, GPU + MPI (excl. compile)"
        },
        "ranks",
        "virtual cycles",
    );
    fig.note("paper: 384x384x1536 total; here 16x16x32 total");
    for kind in [Kind::C, Kind::WootinJ] {
        let mut s = Series::new(kind.name());
        for &r in &ranks {
            let out = run_stencil(kind, StencilPlatform::GpuMpi, r, dims, steps, false);
            let y = if include_compile {
                out.with_compile(kind)
            } else {
                out.vtime as f64
            };
            s.push(r as f64, y);
        }
        fig.series.push(s);
    }
    fig.note(WARM_NOTE);
    fig.series.push(warm_column(
        "WootinJ (warm)",
        ranks.iter().map(|&r| r as f64),
        |x| {
            run_stencil(
                Kind::WootinJ,
                StencilPlatform::GpuMpi,
                x as u32,
                dims,
                steps,
                false,
            )
        },
    ));
    fig
}

// ---------------------------------------------------------------------
// Matmul scaling figures (9, 10, 11, 12; 15, 16)
// ---------------------------------------------------------------------

/// Figure 9: matmul weak scaling over MPI (Fox algorithm); the per-rank
/// block is fixed at 16x16, so n = 16·sqrt(p).
pub fn fig9() -> Figure {
    let m = 16;
    let ranks = [1u32, 4, 9, 16];
    let kinds = [
        Kind::C,
        Kind::Cpp,
        Kind::Template,
        Kind::TemplateNoVirt,
        Kind::WootinJ,
    ];
    let mut fig = Figure::new(
        "fig9",
        "matmul weak scaling, MPI CPU (Fox)",
        "ranks",
        "virtual cycles",
    );
    fig.note("paper: 2048^3 per node; here a fixed 16x16 block per rank (n = 16*sqrt(p))");
    fig.note("Fox per-rank work grows with sqrt(p); the ideal line is t1*sqrt(p)");
    for kind in kinds {
        let mut s = Series::new(kind.name());
        for &r in &ranks {
            let q = (r as f64).sqrt() as i32;
            let out = run_matmul(kind, MatTarget::Fox, r, m * q);
            s.push(r as f64, out.with_compile(kind));
        }
        fig.series.push(s);
    }
    fig.note(WARM_NOTE);
    fig.series.push(warm_column(
        "WootinJ (warm)",
        ranks.iter().map(|&r| r as f64),
        |x| {
            let q = x.sqrt() as i32;
            run_matmul(Kind::WootinJ, MatTarget::Fox, x as u32, m * q)
        },
    ));
    fig
}

/// Figure 10: matmul strong scaling over MPI, C vs WootinJ, incl. compile.
pub fn fig10() -> Figure {
    strong_matmul("fig10", MatTarget::Fox, true)
}

/// Figure 15: Figure 10 with compilation excluded.
pub fn fig15() -> Figure {
    strong_matmul("fig15", MatTarget::Fox, false)
}

/// Figure 11: matmul weak scaling on GPUs (Fox schedule, device multiply).
pub fn fig11() -> Figure {
    let m = 16;
    let ranks = [1u32, 4, 9];
    let kinds = [Kind::C, Kind::Template, Kind::TemplateNoVirt, Kind::WootinJ];
    let mut fig = Figure::new(
        "fig11",
        "matmul weak scaling, GPU + MPI (Fox)",
        "ranks",
        "virtual cycles",
    );
    fig.note("paper: 14592^3 per GPU (whole device memory); here a fixed 16x16 block per rank");
    for kind in kinds {
        let mut s = Series::new(kind.name());
        for &r in &ranks {
            let q = (r as f64).sqrt() as i32;
            let out = run_matmul(kind, MatTarget::FoxGpu, r, m * q);
            s.push(r as f64, out.with_compile(kind));
        }
        fig.series.push(s);
    }
    fig.note(WARM_NOTE);
    fig.series.push(warm_column(
        "WootinJ (warm)",
        ranks.iter().map(|&r| r as f64),
        |x| {
            let q = x.sqrt() as i32;
            run_matmul(Kind::WootinJ, MatTarget::FoxGpu, x as u32, m * q)
        },
    ));
    fig
}

/// Figure 12: matmul strong scaling on GPUs, incl. compile.
pub fn fig12() -> Figure {
    strong_matmul("fig12", MatTarget::FoxGpu, true)
}

/// Figure 16: Figure 12 with compilation excluded.
pub fn fig16() -> Figure {
    strong_matmul("fig16", MatTarget::FoxGpu, false)
}

fn strong_matmul(id: &str, target: MatTarget, include_compile: bool) -> Figure {
    let n = 48;
    let ranks = [1u32, 4, 9, 16];
    let what = match target {
        MatTarget::Fox => "MPI CPU",
        MatTarget::FoxGpu => "GPU + MPI",
        _ => unreachable!(),
    };
    let mut fig = Figure::new(
        id,
        format!(
            "matmul strong scaling, {what} ({})",
            if include_compile {
                "incl. compile"
            } else {
                "excl. compile"
            }
        ),
        "ranks",
        "virtual cycles",
    );
    fig.note("paper: 2048x2048x(2048*8) CPU / 14592^3 GPU; here n = 48");
    for kind in [Kind::C, Kind::WootinJ] {
        let mut s = Series::new(kind.name());
        for &r in &ranks {
            let out = run_matmul(kind, target, r, n);
            let y = if include_compile {
                out.with_compile(kind)
            } else {
                out.vtime as f64
            };
            s.push(r as f64, y);
        }
        fig.series.push(s);
    }
    fig.note(WARM_NOTE);
    fig.series.push(warm_column(
        "WootinJ (warm)",
        ranks.iter().map(|&r| r as f64),
        |x| run_matmul(Kind::WootinJ, target, x as u32, n),
    ));
    fig
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Table 3: WootinJ compilation time for the four evaluation programs,
/// plus generated-code statistics. Independent of problem size by
/// construction (shape analysis sees sizes only as scalars).
pub fn tab3() -> Figure {
    let mut fig = Figure::new(
        "tab3",
        "WootinJ compilation time",
        "program",
        "milliseconds",
    );
    fig.note("paper: 4-5 s dominated by the external icc/nvcc invocation; ours is the");
    fig.note("translator alone (the 'external compiler' is the NIR optimizer), hence ms-scale.");
    fig.note("x=0 diffusion MPI, x=1 diffusion GPU+MPI, x=2 matmul Fox, x=3 matmul Fox GPU");
    let mut ms = Series::new("compile-ms");
    let mut funcs = Series::new("generated-functions");
    let mut instrs = Series::new("nir-instructions");

    let stencil_table = hpclib::stencil_table(&[]).unwrap();
    let matmul_table = hpclib::matmul_table(&[]).unwrap();

    // Program 0/1: diffusion MPI + GPU.
    for (i, platform) in [StencilPlatform::CpuMpi, StencilPlatform::GpuMpi]
        .iter()
        .enumerate()
    {
        let mut env = WootinJ::new(&stencil_table).unwrap();
        let runner = StencilApp::compose(&mut env, *platform, StencilApp::default_model()).unwrap();
        let args = [
            Value::Int(16),
            Value::Int(16),
            Value::Int(16),
            Value::Int(2),
        ];
        let code = env
            .jit(&runner, "invoke", &args, JitOptions::wootinj())
            .unwrap();
        ms.push(i as f64, code.compile_time.as_secs_f64() * 1e3);
        funcs.push(i as f64, code.translated.program.funcs.len() as f64);
        instrs.push(i as f64, code.translated.program.instr_count() as f64);
    }
    // Program 2/3: matmul Fox + Fox GPU.
    for (i, body) in [MatmulBody::Fox, MatmulBody::FoxGpu].iter().enumerate() {
        let mut env = WootinJ::new(&matmul_table).unwrap();
        let app =
            MatmulApp::compose(&mut env, MatmulThread::Mpi, *body, MatmulCalc::Simple).unwrap();
        let code = env
            .jit(&app, "start", &[Value::Int(32)], JitOptions::wootinj())
            .unwrap();
        ms.push((i + 2) as f64, code.compile_time.as_secs_f64() * 1e3);
        funcs.push((i + 2) as f64, code.translated.program.funcs.len() as f64);
        instrs.push((i + 2) as f64, code.translated.program.instr_count() as f64);
    }
    fig.series.push(ms);
    fig.series.push(funcs);
    fig.series.push(instrs);
    fig
}

/// Table 3 follow-on: cumulative compilation cost vs. call count, with
/// the specialization-keyed code cache on (default capacity) and off
/// (capacity 0). The paper amortizes its 4-5 s compile over a long
/// simulation; the cache amortizes ours over *repeat* `jit` calls — the
/// cached curve is flat after the first call, the uncached one linear.
pub fn tab3_amortized() -> Figure {
    let mut fig = Figure::new(
        "tab3-amortized",
        "cumulative compile cost vs. call count",
        "jit calls",
        "cumulative compile ms",
    );
    fig.note("same specialization key every call (diffusion MPI runner, WootinJ mode)");
    fig.note("cached = default LRU cache; uncached = capacity 0 (every call translates)");
    let checkpoints = [1u64, 2, 5, 10, 20, 50];
    let max_calls = *checkpoints.last().unwrap();

    let table = hpclib::stencil_table(&[]).unwrap();
    let args = [
        Value::Int(16),
        Value::Int(16),
        Value::Int(16),
        Value::Int(2),
    ];

    let run = |name: &str, capacity: usize| -> Series {
        let mut env = WootinJ::new(&table).unwrap();
        env.set_cache_capacity(capacity);
        let runner = StencilApp::compose(
            &mut env,
            StencilPlatform::CpuMpi,
            StencilApp::default_model(),
        )
        .unwrap();
        let mut s = Series::new(name);
        let mut cumulative = 0.0;
        for call in 1..=max_calls {
            let code = env
                .jit(&runner, "invoke", &args, JitOptions::wootinj())
                .unwrap();
            cumulative += code.compile_time.as_secs_f64() * 1e3;
            if checkpoints.contains(&call) {
                s.push(call as f64, cumulative);
            }
        }
        s
    };

    fig.series
        .push(run("cached", wootinj::cache::DEFAULT_CAPACITY));
    fig.series.push(run("uncached", 0));

    // Warm-process series: every checkpoint is a *fresh* env — a new
    // process in a real deployment — warm-starting from a shared on-disk
    // artifact store. The first call decodes the persisted artifact,
    // later calls hit the promoted memory tier; no checkpoint ever
    // translates, so the curve stays near zero at every call count.
    fig.note("warm-process = fresh env per checkpoint, artifacts from a shared disk store");
    let disk_dir = std::env::temp_dir().join(format!("wootinj-tab3-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_dir);
    let warm_opts = || JitOptions::wootinj().with_disk_cache(&disk_dir);
    {
        // A prior cold process populates the store.
        let mut env = WootinJ::new(&table).unwrap();
        let runner = StencilApp::compose(
            &mut env,
            StencilPlatform::CpuMpi,
            StencilApp::default_model(),
        )
        .unwrap();
        env.jit(&runner, "invoke", &args, warm_opts()).unwrap();
    }
    let mut warm = Series::new("warm-process");
    for &calls in &checkpoints {
        let mut env = WootinJ::new(&table).unwrap();
        let runner = StencilApp::compose(
            &mut env,
            StencilPlatform::CpuMpi,
            StencilApp::default_model(),
        )
        .unwrap();
        let mut cumulative = 0.0;
        for _ in 0..calls {
            let code = env.jit(&runner, "invoke", &args, warm_opts()).unwrap();
            cumulative += code.compile_time.as_secs_f64() * 1e3;
        }
        assert_eq!(
            env.cache_stats().translations,
            0,
            "warm process must never translate"
        );
        warm.push(calls as f64, cumulative);
    }
    let _ = std::fs::remove_dir_all(&disk_dir);
    fig.series.push(warm);
    fig
}

/// Builds a workload's object graph in a fresh environment and names the
/// call to compile: `(receiver, method, arguments)`.
type Compose = dyn Fn(&mut WootinJ) -> (Value, &'static str, Vec<Value>);

/// One row of `repro pass-profile`: a stage of a cold compile.
struct StageRow {
    name: &'static str,
    wall: Duration,
    /// What the stage's rate is quoted against: source bytes for the front
    /// end, NIR instructions entering the stage for lowering and passes.
    units: u64,
    instr_delta: i64,
}

/// Compile `sources` cold, `samples` times, one layer at a time — the
/// calls `build_table` and `jit` make, in their order — and return one
/// row per stage with its median wall time: parse, table, typeck, rules,
/// lowering (translate with every optimizer pass off), then the passes of
/// `OptConfig::standard()` merged into canonical order.
fn compile_stages(
    sources: &[(String, String)],
    samples: usize,
    compose: &Compose,
) -> Vec<StageRow> {
    let src_bytes: u64 = sources.iter().map(|(_, text)| text.len() as u64).sum();
    let unoptimized = translator::TransConfig {
        opt: OptConfig::none(),
        check_rules: false,
        ..translator::TransConfig::full()
    };
    fn timed<R>(
        rows: &mut Vec<StageRow>,
        name: &'static str,
        units: u64,
        work: impl FnOnce() -> R,
    ) -> R {
        let start = std::time::Instant::now();
        let out = work();
        rows.push(StageRow {
            name,
            wall: start.elapsed(),
            units,
            instr_delta: 0,
        });
        out
    }
    // runs[sample][stage]; the stage list is the same in every sample.
    let mut runs: Vec<Vec<StageRow>> = (0..samples)
        .map(|_| {
            let mut rows = Vec::new();
            let units: Vec<jlang::ast::Unit> = timed(&mut rows, "parse", src_bytes, || {
                (sources.iter().enumerate())
                    .map(|(i, (_, text))| jlang::parser::parse_unit(i as u32, text).unwrap())
                    .collect()
            });
            let mut table = timed(&mut rows, "table", src_bytes, || {
                jlang::table::build(units).unwrap()
            });
            timed(&mut rows, "typeck", src_bytes, || {
                jlang::typeck::check(&mut table).unwrap()
            });
            timed(&mut rows, "rules", src_bytes, || {
                assert!(jrules::check_program(&table).is_ok())
            });
            // Composing the object graph is the caller's work, not the compiler's.
            let mut env = WootinJ::new(&table).unwrap();
            let (recv, method, args) = compose(&mut env);
            let mut program = timed(&mut rows, "lower", 0, || {
                translator::translate(&table, &env.jvm, &recv, method, &args, unoptimized)
                    .unwrap()
                    .program
            });
            let lowered = program.instr_count() as u64;
            let lower = rows.last_mut().expect("pushed above");
            (lower.units, lower.instr_delta) = (lowered, lowered as i64);
            let passes = nir::optimize(&mut program, JitOptions::wootinj().config.opt);
            rows.extend(passes.into_iter().map(|p| StageRow {
                name: p.pass,
                wall: p.wall,
                units: p.instrs_before,
                instr_delta: p.instrs_after as i64 - p.instrs_before as i64,
            }));
            rows
        })
        .collect();
    let mut rows = runs.pop().expect("at least one sample");
    for (i, row) in rows.iter_mut().enumerate() {
        let mut walls: Vec<Duration> = runs.iter().map(|r| r[i].wall).chain([row.wall]).collect();
        walls.sort();
        row.wall = walls[walls.len() / 2];
    }
    rows
}

/// Stage-level decomposition of Table 3's compile-time column: where a
/// cold compile's wall time goes, front end included — parse, table,
/// typeck, rules, lowering, then each NIR optimizer pass — with each
/// stage's rate and net instruction delta, on the 8-stage generated
/// pipeline (long straight-line bodies), the diffusion MPI stencil and
/// matmul Fox.
pub fn pass_profile(quick: bool) -> Figure {
    let mut fig = Figure::new(
        "pass-profile",
        "cold-compile stage profile",
        "stage index",
        "wall ms / ns per unit / instruction delta",
    );
    fig.note("per workload: '<name> wall ms', '<name> ns/unit' and '<name> instr delta' series");
    fig.note(
        "ns/unit: per source byte (prelude included) for parse, table, typeck and rules; \
         per NIR instruction entering the stage for lower (per instruction emitted) and the passes",
    );
    fig.note("instr delta = instrs_after - instrs_before (negative = the pass shrank the program)");
    fig.note(
        "lower = translate with every pass off; the passes are the JitOptions::wootinj() \
         preset's (inline, then OptConfig::standard()'s), merged per pass name into canonical \
         order (nir::merge_profiles): the post-pass form of the schedule a translate at that \
         setting runs, with the same pass counts",
    );
    let samples = if quick { 3 } else { 15 };
    fig.note(format!(
        "wall times are wall clock, median of {samples} cold compiles"
    ));

    let with_prelude = |files: Vec<(String, String)>| {
        let mut sources = vec![(
            "<prelude>".to_string(),
            wootinj::prelude::PRELUDE.to_string(),
        )];
        sources.extend(files);
        sources
    };
    let diffusion_args = || {
        vec![
            Value::Int(16),
            Value::Int(16),
            Value::Int(16),
            Value::Int(2),
        ]
    };
    type Sources = Vec<(String, String)>;
    let workloads: Vec<(&str, Sources, Box<Compose>)> = vec![
        (
            "pipeline8",
            with_prelude(incr_sources(8)),
            Box::new(|env| {
                let stages: Vec<Value> = (0..8)
                    .map(|i| {
                        env.new_instance(&format!("Stage{i}"), &[Value::Float(i as f32)])
                            .unwrap()
                    })
                    .collect();
                let app = env.new_instance("App", &stages).unwrap();
                let data = env.new_f32_array(&[0.5, 1.0, 1.5, 2.0]);
                (app, "run", vec![data])
            }),
        ),
        (
            "diffusion",
            with_prelude(vec![("stencil.jl".into(), hpclib::STENCIL_LIB.into())]),
            Box::new(move |env| {
                let runner =
                    StencilApp::compose(env, StencilPlatform::CpuMpi, StencilApp::default_model())
                        .unwrap();
                (runner, "invoke", diffusion_args())
            }),
        ),
        (
            "matmul-fox",
            with_prelude(vec![("matmul.jl".into(), hpclib::MATMUL_LIB.into())]),
            Box::new(|env| {
                let app =
                    MatmulApp::compose(env, MatmulThread::Mpi, MatmulBody::Fox, MatmulCalc::Simple)
                        .unwrap();
                (app, "start", vec![Value::Int(32)])
            }),
        ),
    ];
    let profiled: Vec<(&str, Vec<StageRow>)> = workloads
        .iter()
        .map(|(name, sources, compose)| (*name, compile_stages(sources, samples, compose)))
        .collect();

    for (name, stages) in &profiled {
        let order: Vec<&str> = stages.iter().map(|r| r.name).collect();
        fig.note(format!("{name} stages: {}", order.join(" -> ")));
        let total: Duration = stages.iter().map(|r| r.wall).sum();
        fig.note(format!(
            "{name}: {} source bytes, {:.3} ms over all stages",
            stages[0].units,
            total.as_secs_f64() * 1e3
        ));
        let mut wall = Series::new(format!("{name} wall ms"));
        let mut rate = Series::new(format!("{name} ns/unit"));
        let mut delta = Series::new(format!("{name} instr delta"));
        for (i, r) in stages.iter().enumerate() {
            wall.push(i as f64, r.wall.as_secs_f64() * 1e3);
            rate.push(i as f64, r.wall.as_secs_f64() * 1e9 / r.units.max(1) as f64);
            delta.push(i as f64, r.instr_delta as f64);
        }
        fig.series.push(wall);
        fig.series.push(rate);
        fig.series.push(delta);
    }
    fig
}

/// Table 1 analogue: the NIR optimizer configuration sweep on the
/// diffusion solver (our stand-in for the icc option rows).
pub fn tab1() -> Figure {
    opt_sweep("tab1", "optimizer configuration sweep (diffusion)", true)
}

/// Table 2 analogue: the same sweep on matmul.
pub fn tab2() -> Figure {
    opt_sweep("tab2", "optimizer configuration sweep (matmul)", false)
}

fn opt_sweep(id: &str, title: &str, diffusion: bool) -> Figure {
    let mut fig = Figure::new(id, title, "config", "virtual cycles");
    fig.note(
        "x=0 no passes (-O0), x=1 standard (fold+copyprop+dce), x=2 aggressive (+inline+SROA)",
    );
    fig.note("our analogue of the paper's icc option rows (Table 1/2)");
    let configs = [
        OptConfig::none(),
        OptConfig::standard(),
        OptConfig::aggressive(),
    ];
    let mut s = Series::new("WootinJ-translated");
    for (i, opt) in configs.iter().enumerate() {
        let vtime = if diffusion {
            let table = hpclib::stencil_table(&[]).unwrap();
            let mut env = WootinJ::new(&table).unwrap();
            let runner =
                StencilApp::compose(&mut env, StencilPlatform::Cpu, StencilApp::default_model())
                    .unwrap();
            let args = [
                Value::Int(16),
                Value::Int(16),
                Value::Int(12),
                Value::Int(3),
            ];
            let code = env
                .jit(
                    &runner,
                    "invoke",
                    &args,
                    JitOptions::wootinj().with_opt(*opt),
                )
                .unwrap();
            code.invoke(&env).unwrap().vtime_cycles
        } else {
            let table = hpclib::matmul_table(&[]).unwrap();
            let mut env = WootinJ::new(&table).unwrap();
            let app = MatmulApp::compose(
                &mut env,
                MatmulThread::CpuLoop,
                MatmulBody::Simple,
                MatmulCalc::Simple,
            )
            .unwrap();
            let code = env
                .jit(
                    &app,
                    "start",
                    &[Value::Int(24)],
                    JitOptions::wootinj().with_opt(*opt),
                )
                .unwrap();
            code.invoke(&env).unwrap().vtime_cycles
        };
        s.push(i as f64, vtime as f64);
    }
    fig.series.push(s);
    fig
}

// ---------------------------------------------------------------------
// Ablations (design-choice benches from DESIGN.md)
// ---------------------------------------------------------------------

/// Ablation: which pipeline stage buys what — Virtual -> Devirt -> Full
/// on the boxed diffusion workload.
pub fn ablate_devirt() -> Figure {
    let mut fig = Figure::new(
        "ablate-devirt",
        "pipeline ablation: dispatch/representation strategy",
        "stage",
        "virtual cycles",
    );
    fig.note(
        "x=0 vtable dispatch (Virtual), x=1 devirtualized (Devirt), x=2 + object inlining (Full)",
    );
    fig.note("boxed ScalarFloat diffusion, 16x16x12, 3 steps; all with standard NIR passes");
    let table = hpclib::stencil_table(&[]).unwrap();
    let mut s = Series::new("cycles");
    let opts = [
        JitOptions::cpp(),
        JitOptions {
            config: translator::TransConfig::devirt(),
            degrade: false,
            disk_cache: None,
            checkpoint: None,
            executor: wootinj::ExecutorCfg::Sim,
        },
        JitOptions::wootinj().with_opt(OptConfig::standard()),
    ];
    for (i, o) in opts.iter().enumerate() {
        let mut env = WootinJ::new(&table).unwrap();
        let runner = StencilApp::compose_boxed(&mut env, 0.4, 0.1).unwrap();
        let args = [
            Value::Int(16),
            Value::Int(16),
            Value::Int(12),
            Value::Int(3),
        ];
        let code = env.jit(&runner, "invoke", &args, o.clone()).unwrap();
        s.push(i as f64, code.invoke(&env).unwrap().vtime_cycles as f64);
    }
    fig.series.push(s);
    fig
}

/// Ablation: the NIR function-inlining limit (the Template-w/o-virt knob).
pub fn ablate_inline() -> Figure {
    let mut fig = Figure::new(
        "ablate-inline",
        "NIR inline-limit sweep (boxed diffusion, Devirt mode + SROA)",
        "inline limit",
        "virtual cycles",
    );
    let table = hpclib::stencil_table(&[]).unwrap();
    let mut s = Series::new("cycles");
    for limit in [0usize, 4, 16, 64, 128] {
        let mut env = WootinJ::new(&table).unwrap();
        let runner = StencilApp::compose_boxed(&mut env, 0.4, 0.1).unwrap();
        let args = [
            Value::Int(16),
            Value::Int(16),
            Value::Int(12),
            Value::Int(3),
        ];
        let mut opt = OptConfig::aggressive();
        opt.inline_limit = limit;
        let mut config = translator::TransConfig::devirt();
        config.opt = opt;
        let code = env
            .jit(
                &runner,
                "invoke",
                &args,
                JitOptions {
                    config,
                    degrade: false,
                    disk_cache: None,
                    checkpoint: None,
                    executor: wootinj::ExecutorCfg::Sim,
                },
            )
            .unwrap();
        s.push(limit as f64, code.invoke(&env).unwrap().vtime_cycles as f64);
    }
    fig.series.push(s);
    fig
}

/// Ablation: communication cost model sensitivity — the Figure 4 point at
/// 8 ranks under a latency sweep.
pub fn ablate_comm() -> Figure {
    let mut fig = Figure::new(
        "ablate-comm",
        "comm cost sensitivity (diffusion weak scaling point, 8 ranks)",
        "alpha (cycles)",
        "virtual cycles",
    );
    fig.note("per-rank 16x16x8, 4 steps; the crossover between compute- and latency-bound");
    let table = hpclib::stencil_table(&[]).unwrap();
    let mut s = Series::new("WootinJ");
    for alpha in [500u64, 2_000, 8_000, 32_000, 128_000] {
        let mut env = WootinJ::new(&table).unwrap();
        let runner = StencilApp::compose(
            &mut env,
            StencilPlatform::CpuMpi,
            StencilApp::default_model(),
        )
        .unwrap();
        let args = [
            Value::Int(16),
            Value::Int(16),
            Value::Int(64),
            Value::Int(4),
        ];
        let mut code = env
            .jit(&runner, "invoke", &args, JitOptions::wootinj())
            .unwrap();
        code.set_mpi(
            8,
            MpiCostModel {
                alpha,
                beta: 0.4,
                collective_alpha: alpha * 2,
            },
        );
        s.push(alpha as f64, code.invoke(&env).unwrap().vtime_cycles as f64);
    }
    fig.series.push(s);
    fig
}

/// Extension experiment: the third (reduction) class library across
/// platforms — evidence for the paper's future-work claim that the rules
/// support larger libraries.
pub fn ext_reduce() -> Figure {
    use hpclib::{ReduceApp, ReduceOp, ReducePlatform};
    let mut fig = Figure::new(
        "ext-reduce",
        "extension: map-reduce library across platforms (WootinJ mode)",
        "platform",
        "virtual cycles",
    );
    fig.note("x=0 CPU, x=1 MPI x4 ranks, x=2 GPU (shared-memory tree kernel)");
    fig.note("SquareOp over 4096 elements; not a paper figure — library-generality evidence");
    let table = hpclib::reduce_table(&[]).unwrap();
    let n = 4096;
    let mut s = Series::new("cycles");
    for (i, platform) in [
        ReducePlatform::Cpu,
        ReducePlatform::Mpi,
        ReducePlatform::Gpu,
    ]
    .iter()
    .enumerate()
    {
        let mut env = WootinJ::new(&table).unwrap();
        let app = ReduceApp::compose(&mut env, *platform, ReduceOp::Square, 0.125).unwrap();
        let mut code = env
            .jit(&app, "reduce", &[Value::Int(n)], JitOptions::wootinj())
            .unwrap();
        if *platform == ReducePlatform::Mpi {
            code.set_mpi(4, MpiCostModel::default());
        }
        if *platform == ReducePlatform::Gpu {
            code.set_gpu(GpuConfig::default());
        }
        s.push(i as f64, code.invoke(&env).unwrap().vtime_cycles as f64);
    }
    fig.series.push(s);
    fig
}

/// Ablation: device-model sensitivity — the same GPU stencil under
/// different SM counts and copy bandwidths (is the model responding the
/// way an M2050 -> K20 upgrade would?).
pub fn ablate_gpu() -> Figure {
    let mut fig = Figure::new(
        "ablate-gpu",
        "GPU model sensitivity (diffusion, 16x16x16, 4 steps)",
        "SMs",
        "virtual cycles",
    );
    fig.note("series: copy bandwidth 4 vs 16 bytes/cycle; more SMs and faster copies both help");
    let table = hpclib::stencil_table(&[]).unwrap();
    for bw in [4.0f64, 16.0] {
        let mut s = Series::new(format!("{bw} B/cycle"));
        for sms in [7u32, 14, 28, 56] {
            let mut env = WootinJ::new(&table).unwrap();
            let runner =
                StencilApp::compose(&mut env, StencilPlatform::Gpu, StencilApp::default_model())
                    .unwrap();
            let args = [
                Value::Int(16),
                Value::Int(16),
                Value::Int(16),
                Value::Int(4),
            ];
            let mut code = env
                .jit(&runner, "invoke", &args, JitOptions::wootinj())
                .unwrap();
            code.set_gpu(GpuConfig {
                n_sms: sms,
                copy_bytes_per_cycle: bw,
                ..GpuConfig::default()
            });
            s.push(sms as f64, code.invoke(&env).unwrap().vtime_cycles as f64);
        }
        fig.series.push(s);
    }
    fig
}

/// Robustness experiment: the fault-injection matrix. One cell per
/// (fault kind x rate x world size); the y value is an outcome code, not a
/// time. Every cell uses a fixed seed, so the whole table is reproducible
/// bit-for-bit across runs and machines.
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

pub fn fault_matrix(quick: bool) -> Figure {
    use wootinj::{FaultConfig, SimError, WjError};

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

    let table = wootinj::build_table(&[("ring_reduce.jl", RING_REDUCE)]).unwrap();
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

                let mut env = WootinJ::new(&table).unwrap();
                let app = env.new_instance("RingReduce", &[]).unwrap();
                let mut code = env
                    .jit(
                        &app,
                        "run",
                        &[Value::Int(n), Value::Int(steps)],
                        JitOptions::wootinj(),
                    )
                    .unwrap();
                code.set_mpi(size, MpiCostModel::default());
                code.set_faults(cfg);
                code.set_timeout(50_000);
                let outcome = match code.invoke(&env) {
                    Ok(report) => {
                        if report.resilience.injected() == 0 {
                            3.0
                        } else {
                            2.0
                        }
                    }
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

/// The restart/chaos workload. Unlike `RING_REDUCE`, every step ends in
/// an allreduce: collectives are the checkpoint cut points, so cadence
/// sweeps need one per step to have anything to vary. The `mesh` array
/// (16n floats, written once) models the mostly-constant rank heap of a
/// real mesh code — the shape delta checkpoints exist for: full
/// snapshots re-serialize it at every cut point, deltas never do.
const RING_STEP_REDUCE: &str = r#"
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

/// Robustness experiment: checkpoint cadence vs. the cost of crash
/// recovery. One seed sweep, crash-only faults, four cadences (every 1,
/// 4, or 16 collectives, and checkpointing off). Crash-only faults
/// never perturb surviving state, so every completed run must reproduce
/// the fault-free answer bit-for-bit — counted in the `bit-identical`
/// series. Each cadence also runs in delta-chain mode on the same seeds:
/// the outcome must be identical (the fault stream does not depend on
/// the checkpoint encoding), and the `ckpt-bytes-*` series track the
/// bytes-written win, which must be strict at cadence 1.
pub fn restart_cost(quick: bool) -> Figure {
    use wootinj::{CheckpointPolicy, FaultConfig, RestartStats};

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

    let table = wootinj::build_table(&[("ring_step_reduce.jl", RING_STEP_REDUCE)]).unwrap();
    let args = [Value::Int(n), Value::Int(steps)];
    let run_one = |faults: Option<u64>, cadence: u32, rebase: u32| -> (Option<f32>, RestartStats) {
        let mut env = WootinJ::new(&table).unwrap();
        let app = env.new_instance("RingStepReduce", &[]).unwrap();
        let mut opts = JitOptions::wootinj();
        if cadence > 0 {
            opts =
                opts.with_checkpointing(CheckpointPolicy::every(cadence).with_rebase_every(rebase));
        }
        let mut code = env.jit(&app, "run", &args, opts).unwrap();
        code.set_mpi(size, MpiCostModel::default());
        if let Some(seed) = faults {
            let mut cfg = FaultConfig::seeded(seed);
            cfg.crash = 0.02;
            code.set_faults(cfg);
        }
        code.set_timeout(50_000);
        match code.invoke(&env) {
            Ok(report) => match report.result {
                Some(Val::F32(v)) => (Some(v), report.restart),
                other => panic!("expected f32 result, got {other:?}"),
            },
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
    for s in [
        completed,
        identical,
        restarts,
        checkpoints,
        lost,
        bytes_full,
        bytes_delta,
    ] {
        fig.series.push(s);
    }
    fig
}

/// The chaos soak gate: seeded fault storms (crashes, checkpoint-write
/// I/O faults) × cadence × rebase interval, plus a persisted-chain
/// damage pass (seeded truncation and bit-flips with warm restarts).
/// Every world must complete bit-identically to the fault-free control
/// or fail typed — outcome code 0 must never appear — and at cadence 1
/// delta chains must strictly beat full snapshots on both bytes written
/// and virtual time lost, under a write-cost model that charges for the
/// bytes each snapshot moves.
/// A chaos storm: a named mutation layered onto the base crash config.
type Storm = fn(&mut wootinj::FaultConfig);

pub fn chaos(quick: bool) -> Figure {
    use wootinj::{
        probe_chain, CheckpointPolicy, FaultConfig, ResilienceStats, RestartStats, WjError,
    };

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

    let table = wootinj::build_table(&[("ring_step_reduce.jl", RING_STEP_REDUCE)]).unwrap();
    let args = [Value::Int(n), Value::Int(steps)];

    enum Run {
        Done(f32),
        Typed,
        Untyped,
    }
    let run_one = |seed: Option<u64>,
                   storm: Storm,
                   policy: Option<CheckpointPolicy>|
     -> (Run, RestartStats, ResilienceStats) {
        let mut env = WootinJ::new(&table).unwrap();
        let app = env.new_instance("RingStepReduce", &[]).unwrap();
        let mut opts = JitOptions::wootinj();
        if let Some(p) = policy {
            opts = opts.with_checkpointing(p);
        }
        let mut code = env.jit(&app, "run", &args, opts).unwrap();
        code.set_mpi(size, MpiCostModel::default());
        if let Some(seed) = seed {
            let mut cfg = FaultConfig::seeded(seed);
            cfg.crash = 0.02;
            storm(&mut cfg);
            code.set_faults(cfg);
        }
        code.set_timeout(200_000);
        match code.invoke(&env) {
            Ok(report) => match report.result {
                Some(Val::F32(v)) => (Run::Done(v), report.restart, report.resilience),
                other => panic!("expected f32 result, got {other:?}"),
            },
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
    let dir = std::env::temp_dir().join(format!("wj-chaos-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut s_damage = Series::new("chain-damage warm restart");
    for d in 0..nseeds {
        let base = dir.join(format!("chaos-{d}.wckpt"));
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
    std::fs::remove_dir_all(&dir).ok();
    fig
}

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

/// The multiplatform acceptance sweep: the same workload on **every
/// registered platform** (`platform::registry()`), asserting bit-identical
/// result agreement — fault-free, under crash injection with
/// checkpoint/restart, and (between device-bearing platforms) for a GPU
/// kernel workload. Any divergence panics, which is what lets
/// `scripts/check.sh` gate on this experiment.
pub fn backend_matrix(quick: bool) -> Figure {
    use platform::registry;
    use std::sync::Arc;
    use wootinj::{CheckpointPolicy, FaultConfig};

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
    fig.note(
        "vtime-cycles / wall-ms are the paired virtual and real costs of the \
         fault-free run on each platform",
    );

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

    let table = wootinj::build_table(&[("block_sum.jl", BLOCK_SUM)]).unwrap();
    let args = [Value::Int(total), Value::Int(steps)];
    let run_on = |plat: &Arc<dyn platform::Platform>,
                  seed: Option<u64>,
                  ckpt: bool|
     -> Result<wootinj::RunReport, wootinj::WjError> {
        let mut env = WootinJ::new(&table).unwrap();
        let app = env.new_instance("BlockSum", &[]).unwrap();
        let mut opts = JitOptions::wootinj();
        if ckpt {
            opts = opts.with_checkpointing(CheckpointPolicy::adaptive(4));
        }
        let mut code = env
            .jit_on(Arc::clone(plat), &app, "run", &args, opts)
            .unwrap();
        if let Some(seed) = seed {
            let mut cfg = FaultConfig::seeded(seed);
            cfg.crash = 0.05;
            code.set_faults(cfg);
        }
        code.set_timeout(50_000);
        code.invoke(&env)
    };
    let f64_bits = |report: &wootinj::RunReport| -> u64 {
        match report.result {
            Some(Val::F64(v)) => v.to_bits(),
            other => panic!("expected f64 result, got {other:?}"),
        }
    };

    let mut agree = Series::new("agree");
    let mut recovered = Series::new("recovered-agree");
    let mut restarts = Series::new("restarts");
    let mut vtime = Series::new("vtime-cycles");
    let mut wallms = Series::new("wall-ms");
    let mut parallelism = Series::new("parallelism");
    for (idx, plat) in registry().iter().enumerate() {
        let id = plat.id();
        let x = idx as f64;

        let clean = run_on(plat, None, false)
            .unwrap_or_else(|e| panic!("backend-matrix: `{id}` failed fault-free: {e}"));
        let bits = f64_bits(&clean);
        assert!(
            bits == truth,
            "backend-matrix DIVERGENCE: `{id}` returned {bits:#018x}, ground truth {truth:#018x}"
        );
        agree.push(x, 1.0);
        vtime.push(x, clean.vtime_cycles as f64);
        wallms.push(x, clean.wall_ms);
        parallelism.push(x, plat.caps().parallelism as f64);

        // Crash injection + adaptive checkpointing: every seed must
        // complete and still land on the exact answer, on every backend
        // — the fault/checkpoint machinery is shared through the trait.
        let mut rs = 0u64;
        for s in 0..nseeds {
            let seed = 0xBAC2_0000_0000_0000 | ((idx as u64) << 32) | s;
            let report = run_on(plat, Some(seed), true).unwrap_or_else(|e| {
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
        let report = code.invoke(&env).unwrap();
        let checksum = match report.result {
            Some(Val::F32(v)) => v.to_bits(),
            other => panic!("expected f32 kernel checksum, got {other:?}"),
        };
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

    for s in [
        agree,
        recovered,
        restarts,
        vtime,
        wallms,
        parallelism,
        kernel,
    ] {
        fig.series.push(s);
    }
    fig
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
pub fn wallclock(quick: bool) -> Figure {
    use crate::timing;
    use std::sync::Arc;
    use wootinj::{CheckpointPolicy, ExecMode, ExecutorCfg, FaultConfig, MpiSimPlatform};

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
    let table = wootinj::build_table(&[("ring_step_reduce.jl", RING_STEP_REDUCE)]).unwrap();
    let args = [Value::Int(n), Value::Int(steps)];
    let run_cfg = |cfg: ExecutorCfg, seed: Option<u64>| -> wootinj::RunReport {
        let mut env = WootinJ::new(&table).unwrap();
        let app = env.new_instance("RingStepReduce", &[]).unwrap();
        let mut opts = JitOptions::wootinj().with_executor(cfg);
        if seed.is_some() {
            opts = opts.with_checkpointing(CheckpointPolicy::every(1));
        }
        let mut code = env
            .jit_on(
                Arc::new(MpiSimPlatform::new(size)),
                &app,
                "run",
                &args,
                opts,
            )
            .unwrap();
        if let Some(seed) = seed {
            let mut fcfg = FaultConfig::seeded(seed);
            fcfg.crash = 0.05;
            code.set_faults(fcfg);
        }
        code.set_timeout(200_000);
        code.invoke(&env)
            .unwrap_or_else(|e| panic!("wallclock: run under {cfg:?} failed: {e}"))
    };
    let assert_identical = |a: &wootinj::RunReport, b: &wootinj::RunReport, what: &str| {
        let (ab, bb) = (format!("{:?}", a.results), format!("{:?}", b.results));
        assert!(
            ab == bb,
            "wallclock DIVERGENCE ({what}): results {ab} vs {bb}"
        );
        assert!(
            a.vtime_cycles == b.vtime_cycles && a.total_cycles == b.total_cycles,
            "wallclock DIVERGENCE ({what}): vtime {} vs {}, cycles {} vs {}",
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
                "wallclock DIVERGENCE ({what}): rank {r} clocks differ"
            );
        }
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
        assert_identical(&reference, &rep, &format!("fault-free, {w} workers"));
        s_replay.push(w as f64, 1.0);
        for s in 0..nseeds {
            let seed = 0x3A11_0000_0000_0000 | ((w as u64) << 32) | s;
            let sim = run_cfg(ExecutorCfg::Sim, Some(seed));
            let rep = run_cfg(cfg, Some(seed));
            assert_identical(&sim, &rep, &format!("seed {seed:#x}, {w} workers"));
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
    let mat_table = hpclib::matmul_table(&[]).unwrap();
    let sten_table = hpclib::stencil_table(&[]).unwrap();
    let bench_workload = |g: &mut timing::Group, which: &str, w: u32| -> (timing::Stats, String) {
        let cfg = ExecutorCfg::Threads {
            workers: w,
            mode: ExecMode::Replay,
        };
        let opts = JitOptions::wootinj().with_executor(cfg);
        let label = format!("{which}/threads-w{w}");
        if which == "matmul-fox" {
            let mut env = WootinJ::new(&mat_table).unwrap();
            let app = MatmulApp::compose(
                &mut env,
                MatmulThread::Mpi,
                MatmulBody::Fox,
                MatmulCalc::Simple,
            )
            .unwrap();
            let code = env.jit(&app, "start", &[Value::Int(msize)], opts).unwrap();
            let probe = format!("{:?}", code.invoke(&env).unwrap().result);
            (g.bench_stats(&label, || code.invoke(&env).unwrap()), probe)
        } else {
            let mut env = WootinJ::new(&sten_table).unwrap();
            let runner = StencilApp::compose(
                &mut env,
                StencilPlatform::CpuMpi,
                StencilApp::default_model(),
            )
            .unwrap();
            let sargs = [
                Value::Int(sdim),
                Value::Int(sdim),
                Value::Int(sdim),
                Value::Int(ssteps),
            ];
            let code = env.jit(&runner, "invoke", &sargs, opts).unwrap();
            let probe = format!("{:?}", code.invoke(&env).unwrap().result);
            (g.bench_stats(&label, || code.invoke(&env).unwrap()), probe)
        }
    };

    let mut g = timing::Group::new("wallclock");
    g.sample_size(if quick { 3 } else { 7 }).warmup(1);
    let mut s_speedup = Series::new("speedup-4w-over-1w");
    for (wi, which) in ["matmul-fox", "diffusion"].iter().enumerate() {
        let mut s_min = Series::new(format!("{which} wall-ms min"));
        let mut s_med = Series::new(format!("{which} wall-ms median"));
        let mut s_max = Series::new(format!("{which} wall-ms max"));
        let (base, base_val) = bench_workload(&mut g, which, 1);
        let (par, par_val) = bench_workload(&mut g, which, 4);
        assert!(
            base_val == par_val,
            "wallclock DIVERGENCE: {which} value drifted across worker counts \
             ({base_val} vs {par_val})"
        );
        for (w, st) in [(1.0, &base), (4.0, &par)] {
            s_min.push(w, st.min_ms());
            s_med.push(w, st.median_ms());
            s_max.push(w, st.max_ms());
        }
        fig.series.push(s_min);
        fig.series.push(s_med);
        fig.series.push(s_max);
        let speedup = base.median_ms() / par.median_ms();
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

/// One `Stage{i}` class for the incremental-churn workload: a heavy
/// straight-line float body so per-body typeck + lowering cost is
/// visible. `salt` perturbs one literal (a "value edit"); `extra_stmt`
/// adds a statement (a "body edit"); `extra_method` adds a method (a
/// "signature edit" — the item tree changes, the body does not).
fn incr_stage(i: usize, salt: u64, extra_stmt: bool, extra_method: bool) -> String {
    let mut body = format!("    float a = x * {}.{}f + k;\n", 1 + i % 3, salt % 10);
    for j in 0..192 {
        body.push_str(&format!(
            "    a = a * 1.000{}f + {}f + x * 0.{}f;\n",
            1 + j % 4,
            (i * 31 + j * 7) % 13,
            1 + (i + j) % 9,
        ));
    }
    if extra_stmt {
        body.push_str("    a = a + a * 0.125f;\n");
    }
    let method = if extra_method {
        format!("  float probe{salt}(float x) {{ return x; }}\n")
    } else {
        String::new()
    };
    format!(
        "@WootinJ final class Stage{i} {{\n  float k;\n  Stage{i}(float k0) {{ k = k0; }}\n\
         {method}  float f(float x) {{\n{body}    return a;\n  }}\n}}\n"
    )
}

/// The `App` entry summing every stage over the data array through
/// `mix`, which returns `blend` and is small enough to be spliced into
/// `run`.
fn incr_app(k: usize, blend: &str) -> String {
    let fields: String = (0..k).map(|i| format!("  Stage{i} s{i};\n")).collect();
    let params: Vec<String> = (0..k).map(|i| format!("Stage{i} a{i}")).collect();
    let inits: String = (0..k).map(|i| format!("    s{i} = a{i};\n")).collect();
    let calls: String = (0..k)
        .map(|i| format!("      acc = mix(acc, s{i}.f(x));\n"))
        .collect();
    format!(
        "@WootinJ final class App {{\n{fields}  App({}) {{\n{inits}  }}\n\
         \x20 float mix(float acc, float v) {{ return {blend}; }}\n\
         \x20 float run(float[] data) {{\n    float acc = 0f;\n\
         \x20   for (int i = 0; i < data.length; i++) {{\n      float x = data[i];\n\
         {calls}    }}\n    return acc;\n  }}\n}}\n",
        params.join(", "),
    )
}

/// The full source set: `k` stage files plus [`incr_app`].
fn incr_sources(k: usize) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = (0..k)
        .map(|i| (format!("stage{i}.jl"), incr_stage(i, 0, false, false)))
        .collect();
    files.push(("app.jl".into(), incr_app(k, "acc + v")));
    files
}

/// The `incremental` experiment: re-JIT latency after source churn,
/// cold vs incremental (ISSUE 6). A `Workspace` holds the memoized
/// query database; each probe edits one of `k` stage classes and
/// re-JITs through a fresh env (so the memory code-cache never helps —
/// the measured win is pure query reuse). Four churn kinds: value edit
/// (one literal), body edit (one statement added), signature edit (one
/// method added — invalidates callers), new class (trailing file).
///
/// Asserted here (and therefore by `scripts/check.sh`, which runs the
/// quick variant): the incremental body edit executes strictly fewer
/// queries than a cold build, the incremental artifact is bit-identical
/// to a from-scratch build of the same sources, and the median body-edit
/// re-JIT is ≥6× faster than cold. Both sides of that ratio leave out
/// the NIR optimizer's wall time (`TransStats::passes`): a cold build
/// optimizes every function and an edit only the re-lowered ones, so with
/// it in, the ratio tracks how fast the optimizer is rather than how much
/// front-end and lowering work the query memos save. The quick variant
/// measures 8–10× on a 2-core host; a re-JIT path twice as slow fails.
///
/// Also asserted, as a count: after a body edit, the only method and
/// constructor bodies of the new table that are new allocations are the
/// ones the edit re-checked — every other one is the previous revision's
/// (DESIGN §19, "bodies are shared, skeletons are owned"). What the
/// rebuild inside each body edit cost is printed lap by lap
/// (`querydb::RebuildLaps`).
pub fn incremental(quick: bool) -> Figure {
    use wootinj::Workspace;

    let k = if quick { 24 } else { 40 };
    // Seven probes a side in both variants: each is a few milliseconds, and
    // a median of three does not outlast one burst of host noise.
    let probes = 7;
    let mut files = incr_sources(k);

    let build = |files: &[(String, String)]| -> Workspace {
        let mut ws = Workspace::new();
        for (name, text) in files {
            ws.set_source(name, text)
                .unwrap_or_else(|d| panic!("incremental: workload does not compile: {d:?}"));
        }
        ws
    };
    // JIT `App.run(data)` through a fresh env; returns the translated
    // program so callers can assert bit-identity (encoding happens
    // outside the timed regions — it is not part of re-JIT latency).
    let jit = |ws: &Workspace| -> std::sync::Arc<translator::Translated> {
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
        std::sync::Arc::clone(&code.translated)
    };
    let upsert = |files: &mut Vec<(String, String)>, name: &str, text: String| match files
        .iter_mut()
        .find(|(n, _)| n == name)
    {
        Some((_, t)) => *t = text,
        None => files.push((name.to_string(), text)),
    };
    // A build's wall time less what its optimizer passes took (they run
    // serially under `JitOptions::wootinj()`, so the sum is wall time).
    let sans_opt = |wall: Duration, t: &translator::Translated| -> Duration {
        wall.saturating_sub(t.stats.passes.iter().map(|p| p.wall).sum())
    };
    let median = |mut walls: Vec<Duration>| -> Duration {
        walls.sort();
        walls[walls.len() / 2]
    };

    // Cold baseline: median full build (parse + typeck + lower every
    // body) across fresh workspaces, and its executed-query count.
    let mut cold_walls: Vec<Duration> = Vec::new();
    let mut cold_sans_opt: Vec<Duration> = Vec::new();
    for _ in 0..probes {
        let t0 = std::time::Instant::now();
        let ws = build(&files);
        let program = jit(&ws);
        let wall = t0.elapsed();
        cold_walls.push(wall);
        cold_sans_opt.push(sans_opt(wall, &program));
    }
    cold_walls.sort();
    let cold_wall = cold_walls[cold_walls.len() / 2];
    let cold_sans_opt = median(cold_sans_opt);
    let cold_ws = build(&files);
    std::hint::black_box(jit(&cold_ws));
    let cold_executed = cold_ws.query_stats().executed();
    drop(cold_ws);

    // The persistent workspace every incremental probe edits.
    let mut ws = build(&files);
    std::hint::black_box(jit(&ws));

    let mut fig = Figure::new(
        "incremental",
        "incremental re-JIT latency after source churn (cold vs query reuse)",
        "probe index",
        "re-JIT wall time (ms)",
    );
    fig.note(format!(
        "{k} stage classes + App entry; every re-JIT goes through a fresh env, so the \
         memory code-cache never hits — the speedup is pure query-memo reuse"
    ));
    fig.note(
        "asserted: body-edit executes strictly fewer queries than cold, incremental \
         artifact is bit-identical to from-scratch, median body-edit speedup >= 6x \
         with optimizer time left out of both sides",
    );

    let mut cold_series = Series::new("cold-ms");
    for (n, w) in cold_walls.iter().enumerate() {
        cold_series.push(n as f64, w.as_secs_f64() * 1e3);
    }
    fig.series.push(cold_series);

    // One churn series per edit kind. Each probe edits a different
    // stage class (spread over the program) with a per-probe salt so
    // no two probes produce identical text.
    type EditFn = Box<dyn Fn(usize, u64) -> (String, String)>;
    let kinds: [(&str, EditFn); 4] = [
        (
            "value-edit-ms",
            Box::new(|i, salt| (format!("stage{i}.jl"), incr_stage(i, salt, false, false))),
        ),
        (
            "body-edit-ms",
            Box::new(|i, salt| (format!("stage{i}.jl"), incr_stage(i, salt, true, false))),
        ),
        (
            "signature-edit-ms",
            Box::new(|i, salt| (format!("stage{i}.jl"), incr_stage(i, salt, false, true))),
        ),
        (
            "new-class-ms",
            Box::new(|_, salt| {
                (
                    format!("extra{salt}.jl"),
                    format!(
                        "@WootinJ final class Extra{salt} {{ Extra{salt}() {{ }} \
                         float e(float x) {{ return x + {salt}f; }} }}\n"
                    ),
                )
            }),
        ),
    ];

    let mut body_edit_walls: Vec<Duration> = Vec::new();
    let mut body_edit_sans_opt: Vec<Duration> = Vec::new();
    let mut body_edit_executed: Vec<u64> = Vec::new();
    let mut body_edit_laps: Vec<wootinj::RebuildLaps> = Vec::new();
    let mut blocks = (0, 0); // in the table, of which new allocations
    let mut funcs = (0, 0); // in the program, of which new allocations
    let mut body_edit_artifacts = Vec::new(); // with the sources they came from
    for (kind_idx, (name, make)) in kinds.iter().enumerate() {
        let mut series = Series::new(*name);
        let body_edit = *name == "body-edit-ms";
        // The body edits end with one of `App.mix`, a callee spliced into
        // `run`: the memo of `run` holds its old body and must not replay.
        for n in 0..probes + usize::from(body_edit) {
            let salt = (kind_idx * probes + n + 1) as u64;
            let (file, text) = if n == probes {
                ("app.jl".to_string(), incr_app(k, "acc + v * 0.5f"))
            } else {
                make(1 + (n * 5) % k, salt)
            };
            upsert(&mut files, &file, text.clone());
            let before = ws.query_stats();
            let laps_before = ws.rebuild_laps();
            // This revision's bodies, held across the edit.
            let (held, held_funcs) = if body_edit {
                (ws.db().typed_blocks(), ws.db().lowered_functions())
            } else {
                (Vec::new(), Vec::new())
            };
            let t0 = std::time::Instant::now();
            ws.edit(&file, &text)
                .or_else(|_| ws.set_source(&file, &text))
                .unwrap();
            let program = jit(&ws);
            let wall = t0.elapsed();
            series.push(n as f64, wall.as_secs_f64() * 1e3);
            if body_edit {
                body_edit_walls.push(wall);
                body_edit_sans_opt.push(sans_opt(wall, &program));
                let delta = ws.query_stats().since(&before);
                body_edit_executed.push(delta.executed());
                body_edit_laps.push(ws.rebuild_laps().since(&laps_before));
                let now = ws.db().typed_blocks();
                let fresh = (now.iter())
                    .filter(|(bid, body)| {
                        !(held.iter()).any(|(b, old)| b == bid && std::sync::Arc::ptr_eq(body, old))
                    })
                    .count();
                assert_eq!(
                    fresh as u64,
                    delta.typeck_executed,
                    "incremental: body edit {n} re-checked {} bodies but {fresh} of the new \
                     table's {} are new allocations — an unchanged body was copied",
                    delta.typeck_executed,
                    now.len()
                );
                blocks = (now.len(), fresh);
                // Likewise a replayed NIR function is the memo's, by pointer.
                let fresh_funcs = (program.program.funcs.iter())
                    .filter(|f| !held_funcs.iter().any(|h| std::sync::Arc::ptr_eq(f, h)))
                    .count();
                assert_eq!(
                    fresh_funcs as u64,
                    delta.lower_executed,
                    "incremental: body edit {n} lowered {} functions but {fresh_funcs} of the \
                     program's {} are new allocations — a replayed function was copied",
                    delta.lower_executed,
                    program.program.funcs.len()
                );
                funcs = (program.program.funcs.len(), fresh_funcs);
                let run = &program.program.funcs[program.entry.0 as usize];
                let calls = (run.code.iter())
                    .filter(|i| matches!(i, nir::Instr::Call { .. }))
                    .count();
                assert_eq!(calls, k, "incremental: `App.mix` is not spliced into `run`");
                body_edit_artifacts.push((files.clone(), program.encode_semantic()));
            } else {
                std::hint::black_box(program);
            }
        }
        fig.series.push(series);
    }
    // Determinism contract: bit-identical to from-scratch. Checked once
    // the probes are done, against the bytes and not a kept program: a
    // probe whose predecessor's program is still alive (or that follows a
    // scratch build) lowers into memory the process has not touched yet,
    // and times the page faults — a third on top of the same work in the
    // value-edit series, which frees each program before the next probe.
    for (n, (files, artifact)) in body_edit_artifacts.iter().enumerate() {
        assert_eq!(
            *artifact,
            jit(&build(files)).encode_semantic(),
            "incremental: artifact diverged from from-scratch after body edit {n}"
        );
    }

    let body_wall = median(body_edit_walls);
    let body_sans_opt = median(body_edit_sans_opt);
    let speedup = cold_sans_opt.as_secs_f64() / body_sans_opt.as_secs_f64();
    let mut sp = Series::new("body-edit-speedup");
    sp.push(0.0, speedup);
    fig.series.push(sp);
    let mut qx = Series::new("queries-executed");
    qx.push(0.0, cold_executed as f64);
    qx.push(1.0, *body_edit_executed.iter().max().unwrap() as f64);
    fig.series.push(qx);
    fig.note(format!(
        "cold {:?} vs median body-edit re-JIT {:?}; without optimizer time {:?} vs {:?} \
         ({speedup:.1}x); queries executed cold {} vs body-edit max {}",
        cold_wall,
        body_wall,
        cold_sans_opt,
        body_sans_opt,
        cold_executed,
        body_edit_executed.iter().max().unwrap(),
    ));

    // What the rebuild inside a body edit cost, lap by lap.
    type Lap = (&'static str, fn(&wootinj::RebuildLaps) -> u64);
    let laps: [Lap; 7] = [
        ("parse", |l| l.parse_ns),
        ("item tree", |l| l.item_tree_ns),
        ("unit hand-over", |l| l.hand_over_ns),
        ("table::build", |l| l.table_build_ns),
        ("typeck loop", |l| l.typeck_ns),
        ("write-back", |l| l.write_back_ns),
        ("install", |l| l.install_ns),
    ];
    let mut lap_series = Series::new("rebuild-lap-us");
    let mut lap_note = Vec::new();
    let mut lap_sum = 0.0;
    for (i, (name, get)) in laps.iter().enumerate() {
        let ns = median(
            (body_edit_laps.iter())
                .map(|l| Duration::from_nanos(get(l)))
                .collect(),
        );
        let us = ns.as_secs_f64() * 1e6;
        lap_series.push(i as f64, us);
        lap_note.push(format!("{name} {us:.0}"));
        lap_sum += us;
    }
    fig.series.push(lap_series);
    fig.note(format!(
        "Database::rebuild per body edit, median of {} (us): {}; sum {lap_sum:.0}",
        body_edit_laps.len(),
        lap_note.join(" | "),
    ));
    fig.note(format!(
        "asserted: of the table's {} method and constructor bodies, a body edit allocates {} \
         (the ones it re-checks); the rest are the previous revision's allocations",
        blocks.0, blocks.1
    ));
    fig.note(format!(
        "asserted: of the program's {} NIR functions, a body edit allocates {} (the ones it \
         lowers); the rest are the lower_fn memos' allocations",
        funcs.0, funcs.1
    ));

    for &executed in &body_edit_executed {
        assert!(
            executed < cold_executed,
            "incremental: body edit executed {executed} queries, cold {cold_executed} — \
             incremental must do strictly less work"
        );
    }
    assert!(
        speedup >= 6.0,
        "incremental: median body-edit re-JIT must be >= 6x faster than cold, optimizer \
         time aside: cold {cold_sans_opt:?}, incremental {body_sans_opt:?} ({speedup:.1}x)"
    );
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
pub fn dist_processes(quick: bool) -> Figure {
    use std::sync::Arc;
    use wootinj::{CheckpointPolicy, DistPlatform, FaultConfig, MpiSimPlatform};

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

    let table = wootinj::build_table(&[("ring_step_reduce.jl", RING_STEP_REDUCE)]).unwrap();
    let args = [Value::Int(n), Value::Int(steps)];
    let worker_exe = std::env::current_exe().expect("dist experiment: current_exe");
    let run_on =
        |plat: Arc<dyn platform::Platform>, seed: Option<u64>, ckpt: bool| -> wootinj::RunReport {
            let id = plat.id();
            let mut env = WootinJ::new(&table).unwrap();
            let app = env.new_instance("RingStepReduce", &[]).unwrap();
            let mut opts = JitOptions::wootinj();
            if ckpt {
                opts = opts.with_checkpointing(CheckpointPolicy::every(1));
            }
            let mut code = env.jit_on(plat, &app, "run", &args, opts).unwrap();
            if let Some(seed) = seed {
                let mut cfg = FaultConfig::seeded(seed);
                cfg.crash = 0.05;
                code.set_faults(cfg);
            }
            code.set_timeout(200_000);
            code.invoke(&env)
                .unwrap_or_else(|e| panic!("dist experiment: `{id}` run failed: {e}"))
        };
    let assert_identical = |a: &wootinj::RunReport, b: &wootinj::RunReport, what: &str| {
        let (ab, bb) = (format!("{:?}", a.results), format!("{:?}", b.results));
        assert!(ab == bb, "dist DIVERGENCE ({what}): results {ab} vs {bb}");
        assert!(
            a.vtime_cycles == b.vtime_cycles && a.total_cycles == b.total_cycles,
            "dist DIVERGENCE ({what}): vtime {} vs {}, cycles {} vs {}",
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
                "dist DIVERGENCE ({what}): rank {r} clocks differ"
            );
        }
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
        let reference = run_on(Arc::new(MpiSimPlatform::new(size)), None, false);
        let threads = run_on(Arc::new(DistPlatform::new(size)), None, false);
        assert_identical(&reference, &threads, &format!("threads, size {size}"));
        s_threads.push(size as f64, 1.0);
        let processes = run_on(procs(size), None, false);
        assert_identical(&reference, &processes, &format!("procs, size {size}"));
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
    let clean = run_on(Arc::new(MpiSimPlatform::new(size)), None, false);
    let mut s_recover = Series::new("procs recovered-identical");
    let mut s_restarts = Series::new("procs restarts");
    let mut restarts = 0u64;
    for s in 0..nseeds {
        let seed = 0xD157_0000_0000_0000 | s;
        let report = run_on(procs(size), Some(seed), true);
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

pub fn service(quick: bool) -> Figure {
    use jitd::client::{jit_request, Client};
    use jitd::proto::{Arg, JitRequest, Reply, Request, ServiceStats, ShedReason};
    use jitd::{Daemon, DaemonConfig};
    use std::time::{Duration, Instant};

    let mut fig = Figure::new(
        "service",
        "jitd daemon: seeded client storm under overload, chaos, quotas, and faults",
        "counter",
        "value",
    );
    fig.note(
        "gate: every request ends in a reply or a typed shed within its \
         deadline; same-key concurrent clients cause exactly one translation; \
         chaos clients (mid-request death, truncated frames, garbage) and \
         injected translate faults never hang or kill the daemon",
    );

    // programs × clients-per-program; capacity (workers + queue) must admit
    // a full same-key wave so the single-flight gate is not masked by sheds.
    let (programs, clients, workers, queue_cap) = if quick { (2, 4, 4, 8) } else { (4, 8, 8, 16) };
    fig.note(if quick {
        "quick mode: 2 programs x 4 clients, 4 workers, queue 8"
    } else {
        "full mode: 4 programs x 8 clients, 8 workers, queue 16"
    });

    let root = std::env::temp_dir().join(format!("wj-bench-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let daemon = Daemon::bind(
        DaemonConfig {
            workers,
            queue_cap,
            root: root.clone(),
            quotas: vec![("capped".into(), 1)],
            ..DaemonConfig::default()
        },
        0,
    )
    .expect("service experiment: bind");
    let port = daemon.port();
    let handle = std::thread::spawn(move || daemon.serve());

    // Each distinct multiplier is a distinct source, hence a distinct
    // cache key; every client of one program shares that key.
    let source_for = |m: i32| {
        format!("@WootinJ final class Svc {{ Svc() {{ }} int run(int x) {{ return x * {m}; }} }}")
    };
    // Every reply must land well inside the default 10s request deadline.
    let reply_bound = Duration::from_secs(10);
    let mut max_latency = Duration::ZERO;
    let mut expected_requests = 0u64;

    // Wave 1 — single-flight: for each program, a concurrent same-key
    // burst. Every client completes on its own argument values.
    for p in 0..programs {
        let m = p + 2;
        let src = source_for(m);
        let burst: Vec<_> = (0..clients)
            .map(|c| {
                let src = src.clone();
                std::thread::spawn(move || {
                    let x = 11 + 7 * p + 13 * c; // seeded per-client args
                    let mut cl = Client::connect(port, "acme").unwrap();
                    let t0 = Instant::now();
                    let reply = cl
                        .jit(jit_request("svc.jl", &src, "Svc", "run", vec![Arg::I32(x)]))
                        .unwrap();
                    (reply, t0.elapsed(), x)
                })
            })
            .collect();
        for h in burst {
            let (reply, took, x) = h.join().expect("storm client panicked");
            assert!(
                took < reply_bound,
                "reply exceeded deadline bound: {took:?}"
            );
            max_latency = max_latency.max(took);
            expected_requests += 1;
            match reply {
                Reply::Done(o) => assert_eq!(
                    o.result,
                    Some(wootinj::Val::I32(m * x)),
                    "program x{m} client must run the shared artifact on its own args"
                ),
                other => panic!("single-flight wave client got {other:?}"),
            }
        }
    }

    // Wave 2 — overload: saturate every worker slot with held requests,
    // then pile on. Everything still terminates typed within bound.
    let holders: Vec<_> = (0..workers)
        .map(|_| {
            std::thread::spawn(move || {
                let mut cl = Client::connect(port, "acme").unwrap();
                let mut req =
                    jit_request("svc.jl", &source_for(2), "Svc", "run", vec![Arg::I32(1)]);
                req.hold_ms = 1_000;
                cl.jit(req).unwrap()
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(250));
    let squeezed: Vec<_> = (0..queue_cap + 4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut cl = Client::connect(port, "acme").unwrap();
                let mut req = jit_request(
                    "svc.jl",
                    &source_for(2),
                    "Svc",
                    "run",
                    vec![Arg::I32(2 + i as i32)],
                );
                req.deadline_ms = 300;
                let t0 = Instant::now();
                (cl.jit(req).unwrap(), t0.elapsed())
            })
        })
        .collect();
    let mut shed_typed = 0u64;
    for h in squeezed {
        let (reply, took) = h.join().expect("squeezed client panicked");
        assert!(
            took < reply_bound,
            "overload reply exceeded bound: {took:?}"
        );
        max_latency = max_latency.max(took);
        expected_requests += 1;
        match reply {
            Reply::Done(_) => {}
            Reply::Shed { reason, .. } => {
                assert!(
                    matches!(reason, ShedReason::QueueFull | ShedReason::Deadline),
                    "overload shed must be queue-full or deadline, got {reason}"
                );
                shed_typed += 1;
            }
            other => panic!("overload wave client got {other:?}"),
        }
    }
    assert!(
        shed_typed >= 1,
        "the overload wave must shed at least one request typed"
    );
    for h in holders {
        expected_requests += 1;
        match h.join().expect("holder panicked") {
            Reply::Done(_) => {}
            other => panic!("slot holder must complete, got {other:?}"),
        }
    }

    // Wave 3 — quotas: a 1-byte tenant fits its first artifact, then any
    // *new* key is refused typed while the warm key keeps serving.
    let mut capped = Client::connect(port, "capped").unwrap();
    expected_requests += 3;
    match capped
        .jit(jit_request(
            "svc.jl",
            &source_for(9),
            "Svc",
            "run",
            vec![Arg::I32(3)],
        ))
        .unwrap()
    {
        Reply::Done(o) => assert_eq!(o.result, Some(wootinj::Val::I32(27))),
        other => panic!("capped tenant's first artifact must serve, got {other:?}"),
    }
    match capped
        .jit(jit_request(
            "svc.jl",
            &source_for(10),
            "Svc",
            "run",
            vec![Arg::I32(3)],
        ))
        .unwrap()
    {
        Reply::Shed { reason, .. } => assert_eq!(reason, ShedReason::OverQuota),
        other => panic!("over-quota key must shed typed, got {other:?}"),
    }
    match capped
        .jit(jit_request(
            "svc.jl",
            &source_for(9),
            "Svc",
            "run",
            vec![Arg::I32(5)],
        ))
        .unwrap()
    {
        Reply::Done(o) => assert_eq!(o.result, Some(wootinj::Val::I32(45))),
        other => panic!("warm key must serve an over-quota tenant, got {other:?}"),
    }

    // Wave 4 — chaos: a mid-request death, a truncated frame, and raw
    // garbage; a healthy client must still be served afterwards.
    // The ghost's request holds its slot a while after the work, so its
    // close comes before the daemon looks for someone to reply to.
    let ghost_req = Request::Jit(JitRequest {
        hold_ms: 300,
        ..jit_request("svc.jl", &source_for(2), "Svc", "run", vec![Arg::I32(4)])
    });
    Client::connect(port, "ghost")
        .unwrap()
        .send_and_die(&ghost_req);
    expected_requests += 1; // the ghost's request is decoded and served
    Client::connect(port, "cutter")
        .unwrap()
        .send_truncated_frame(&ghost_req, 9);
    Client::connect(port, "noise")
        .unwrap()
        .send_garbage(b"not WFR1 at all");
    let mut healthy = Client::connect(port, "acme").unwrap();
    expected_requests += 1;
    match healthy
        .jit(jit_request(
            "svc.jl",
            &source_for(2),
            "Svc",
            "run",
            vec![Arg::I32(8)],
        ))
        .unwrap()
    {
        Reply::Done(o) => assert_eq!(o.result, Some(wootinj::Val::I32(16))),
        other => panic!("daemon must survive chaos clients, got {other:?}"),
    }
    let absorb = Instant::now() + Duration::from_secs(20);
    loop {
        let s = healthy.stats().unwrap();
        if (s.disconnects >= 1 && s.bad_frames >= 2) || Instant::now() > absorb {
            assert!(
                s.disconnects >= 1,
                "mid-request death must be counted: {s:?}"
            );
            assert!(s.bad_frames >= 2, "bad frames must be counted: {s:?}");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    Client::connect(port, "ops").unwrap().shutdown().unwrap();
    let stats: ServiceStats = handle.join().expect("daemon panicked under the storm");
    let _ = std::fs::remove_dir_all(&root);

    // Every decodable request ends in exactly one terminal counter.
    let terminal = stats.completed + stats.request_errors + stats.sheds();
    assert_eq!(
        terminal, expected_requests,
        "every request must end typed exactly once: {stats:?}"
    );
    // One translation per storm program, plus two cold tenant-scoped
    // artifacts (the capped tenant's x9 and the ghost tenant's x2 —
    // disk stores are per-tenant, so those keys start cold).
    assert_eq!(
        stats.translations,
        programs as u64 + 2,
        "single-flight must hold across the whole storm: {stats:?}"
    );
    assert_eq!(stats.request_errors, 0, "no untyped failures: {stats:?}");
    // Whether a same-key client follows the in-flight leader or
    // warm-starts from the sealed artifact is a thread race; the *sum*
    // is an invariant: every completed request that did not translate.
    assert_eq!(
        stats.warm_hits + stats.follower_serves,
        (programs * (clients - 1)) as u64 + workers as u64 + 2,
        "every non-leader completion is a warm hit or a follower serve: {stats:?}"
    );

    // Wave 5 — injected translate faults on a separate seeded daemon.
    let fault_root = std::env::temp_dir().join(format!("wj-bench-svcfault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fault_root);
    let mut fault = wootinj::FaultConfig::seeded(0x5EED);
    fault.translate_fail = 1.0;
    let fd = Daemon::bind(
        DaemonConfig {
            root: fault_root.clone(),
            fault: Some(fault),
            ..DaemonConfig::default()
        },
        0,
    )
    .expect("service experiment: fault bind");
    let fport = fd.port();
    let fhandle = std::thread::spawn(move || fd.serve());
    let mut fc = Client::connect(fport, "acme").unwrap();
    for _ in 0..2 {
        match fc
            .jit(jit_request(
                "svc.jl",
                &source_for(2),
                "Svc",
                "run",
                vec![Arg::I32(1)],
            ))
            .unwrap()
        {
            Reply::Err { message } => assert!(
                message.contains("injected translate failure"),
                "fault must surface typed: {message}"
            ),
            other => panic!("rate-1.0 translate fault must fail typed, got {other:?}"),
        }
    }
    Client::connect(fport, "ops").unwrap().shutdown().unwrap();
    let fstats = fhandle.join().expect("fault daemon panicked");
    let _ = std::fs::remove_dir_all(&fault_root);
    assert_eq!(fstats.resilience.translate_failures, 2);
    assert_eq!(fstats.translations, 0, "a failed draw must never translate");

    let mut counters = Series::new("storm counters");
    for (i, (_, v)) in [
        ("admitted", stats.admitted),
        ("completed", stats.completed),
        ("translations", stats.translations),
        (
            "warm-or-follower-serves",
            stats.warm_hits + stats.follower_serves,
        ),
        ("shed-queue-full", stats.shed_queue_full),
        ("shed-deadline", stats.shed_deadline),
        ("shed-over-quota", stats.shed_over_quota),
        ("request-errors", stats.request_errors),
        ("bad-frames", stats.bad_frames),
        ("disconnects", stats.disconnects),
        (
            "injected-translate-failures",
            fstats.resilience.translate_failures,
        ),
    ]
    .iter()
    .enumerate()
    {
        counters.push(i as f64, *v as f64);
    }
    fig.note(
        "storm counters series order: admitted, completed, translations, \
         warm-or-follower-serves, shed-queue-full, shed-deadline, \
         shed-over-quota, request-errors, bad-frames, disconnects, \
         injected-translate-failures",
    );
    fig.series.push(counters);
    let mut s_lat = Series::new("max-reply-latency-ms");
    s_lat.push(0.0, max_latency.as_secs_f64() * 1e3);
    fig.series.push(s_lat);
    let mut s_gate = Series::new("reply-or-typed-shed");
    s_gate.push(0.0, 1.0);
    fig.series.push(s_gate);
    fig
}

/// All figure/table ids, in paper order.
pub fn all_ids() -> Vec<&'static str> {
    vec![
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
        "tab3",
        "tab3-amortized",
        "pass-profile",
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
        "wallclock",
        "incremental",
        "dist",
        "service",
    ]
}

/// Dispatch by id (full-size variant of every experiment).
pub fn run_experiment(id: &str) -> Option<Figure> {
    run_experiment_with(id, false)
}

/// Dispatch by id; `quick` selects a smoke-test-sized variant where the
/// experiment supports one (`pass-profile`, `fault-matrix`, `restart-cost`,
/// `chaos`, `backend-matrix`, `wallclock`, `incremental`, `dist`, and
/// `service`).
pub fn run_experiment_with(id: &str, quick: bool) -> Option<Figure> {
    Some(match id {
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "fig7" => fig7(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "fig12" => fig12(),
        "fig13" => fig13(),
        "fig14" => fig14(),
        "fig15" => fig15(),
        "fig16" => fig16(),
        "fig17" => fig17(),
        "fig18" => fig18(),
        "tab1" => tab1(),
        "tab2" => tab2(),
        "tab3" => tab3(),
        "tab3-amortized" => tab3_amortized(),
        "pass-profile" => pass_profile(quick),
        "ablate-devirt" => ablate_devirt(),
        "ablate-inline" => ablate_inline(),
        "ablate-comm" => ablate_comm(),
        "ablate-gpu" => ablate_gpu(),
        "ext-reduce" => ext_reduce(),
        "fault-matrix" => fault_matrix(quick),
        "restart-cost" => restart_cost(quick),
        "chaos" => chaos(quick),
        "backend-matrix" => backend_matrix(quick),
        "wallclock" => wallclock(quick),
        "incremental" => incremental(quick),
        "dist" => dist_processes(quick),
        "service" => service(quick),
        _ => return None,
    })
}

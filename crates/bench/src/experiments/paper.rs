//! The paper's evaluation: Figures 3–18, Tables 1–3, the DESIGN.md
//! ablations, the reduction extension and the stage profile of a cold
//! compile.

use std::path::Path;
use std::time::Duration;

use hpclib::{MatmulApp, MatmulBody, MatmulCalc, MatmulThread, StencilApp, StencilPlatform};
use jvm::Value;
use nir::OptConfig;
use wootinj::{GpuConfig, JitOptions, MpiCostModel, WootinJ};

use super::{
    diffusion_args, incremental::incr_sources, jit, matmul, run, stencil, Kind, MatTarget, Outcome,
    TempDir, JAVA_STEP_CYCLES,
};
use crate::series::{Figure, Series};

/// Note attached to every figure that carries a warm column.
const WARM_NOTE: &str =
    "warm = same sweep re-run from the shared per-run artifact store (zero translation)";

/// The warm column of a figure: re-run sweep points in a fresh env per
/// point (a new process, in a real deployment) against the figure's
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

// ---------------------------------------------------------------------
// Serial comparison figures (3, 17, 18)
// ---------------------------------------------------------------------

/// A single-thread figure: one point per series, x = the series' index.
pub(super) struct Serial {
    id: &'static str,
    title: &'static str,
    notes: &'static [&'static str],
    kinds: &'static [Kind],
    /// Runs series `kind`, sharing artifacts through the figure's store.
    point: fn(&Path, Kind) -> Outcome,
}

const ALL_SERIES: &[Kind] = &[
    Kind::Java,
    Kind::Cpp,
    Kind::Template,
    Kind::TemplateNoVirt,
    Kind::WootinJ,
    Kind::C,
];

/// Figure 3: 3-D diffusion, single thread — Java vs C++ vs C. The boxed
/// (ScalarFloat) library API, as in the paper's Listing 1.
pub(super) const FIG3: Serial = Serial {
    id: "fig3",
    title: "3D diffusion, 1 thread (Java / C++ / C)",
    notes: &[
        "paper: 128x128x128 on a 2.9 GHz Xeon; here 16x16x12, 3 steps on the NIR engine",
        "boxed ScalarFloat solver API (paper Listing 1); the C program is hand-inlined and unboxed",
    ],
    kinds: &[Kind::Java, Kind::Cpp, Kind::C],
    point: |store, kind| {
        stencil(
            Some(store),
            kind,
            StencilPlatform::Cpu,
            1,
            (16, 16, 12),
            3,
            true,
        )
    },
};

/// Figure 17: Figure 3 extended with Template, Template w/o virt., WootinJ.
pub(super) const FIG17: Serial = Serial {
    id: "fig17",
    title: "3D diffusion, 1 thread (all series)",
    kinds: ALL_SERIES,
    ..FIG3
};

/// Figure 18: matrix multiplication, single thread, all series.
pub(super) const FIG18: Serial = Serial {
    id: "fig18",
    title: "matrix multiplication, 1 thread (all series)",
    notes: &["paper: 1024x1024x1024; here 24x24 through the Matrix/Calculator components"],
    kinds: ALL_SERIES,
    point: |store, kind| matmul(Some(store), kind, MatTarget::Cpu, 1, 24),
};

pub(super) fn serial(row: &Serial) -> Figure {
    let store = TempDir::new("wootinj-repro-store");
    let mut fig = Figure::new(row.id, row.title, "series", "virtual cycles");
    for note in row.notes {
        fig.note(*note);
    }
    fig.note(format!(
        "Java series = interpreter steps x {JAVA_STEP_CYCLES} cycles (model constant)"
    ));
    let mut s = Series::new("cycles");
    for (i, &kind) in row.kinds.iter().enumerate() {
        s.push(i as f64, (row.point)(store.path(), kind).vtime as f64);
        fig.note(format!("x={i}: {}", kind.name()));
    }
    fig.series.push(s);
    fig.note(WARM_NOTE);
    let xs = (0..row.kinds.len()).map(|i| i as f64);
    fig.series.push(warm_column("warm", xs, |x| {
        (row.point)(store.path(), row.kinds[x as usize])
    }));
    fig
}

// ---------------------------------------------------------------------
// Scaling figures (4–7, 9–12; 13–16 exclude compilation)
// ---------------------------------------------------------------------

/// A scaling figure: one series per kind over `ranks`, and the WootinJ
/// series again from the figure's artifact store.
pub(super) struct Scaling {
    id: &'static str,
    title: &'static str,
    y_label: &'static str,
    notes: &'static [&'static str],
    kinds: &'static [Kind],
    ranks: &'static [u32],
    /// Whether the WootinJ series includes the modeled compile cost.
    compile: bool,
    /// Runs series `kind` on `ranks` ranks, sharing artifacts through the
    /// figure's store.
    point: fn(&Path, Kind, u32) -> Outcome,
}

const WEAK_CPU: &[Kind] = &[
    Kind::C,
    Kind::Cpp,
    Kind::Template,
    Kind::TemplateNoVirt,
    Kind::WootinJ,
];
const WEAK_GPU: &[Kind] = &[Kind::C, Kind::Template, Kind::TemplateNoVirt, Kind::WootinJ];
const STRONG: &[Kind] = &[Kind::C, Kind::WootinJ];

/// Figure 4: diffusion weak scaling over MPI (CPU only).
pub(super) const FIG4: Scaling = Scaling {
    id: "fig4",
    title: "diffusion weak scaling, MPI CPU",
    y_label: "virtual cycles (ideal: flat)",
    notes: &[
        "paper: 128^3 per node, 1..128 nodes; here 16x16x8 per rank, 1..32 ranks",
        "WootinJ series includes the modeled runtime-compilation cost (see tab3)",
    ],
    kinds: WEAK_CPU,
    ranks: &[1, 2, 4, 8, 16, 32],
    compile: true,
    point: |store, kind, r| {
        let dims = (16, 16, 8 * r as i32);
        stencil(
            Some(store),
            kind,
            StencilPlatform::CpuMpi,
            r,
            dims,
            4,
            false,
        )
    },
};

/// Figure 5: diffusion strong scaling over MPI (CPU), C vs WootinJ,
/// including compilation time.
pub(super) const FIG5: Scaling = Scaling {
    id: "fig5",
    title: "diffusion strong scaling, MPI CPU (incl. compile)",
    y_label: "virtual cycles",
    notes: &["paper: 128x128x1024 total; here 16x16x64 total, 4 steps"],
    kinds: STRONG,
    ranks: &[1, 2, 4, 8, 16],
    compile: true,
    point: |store, kind, r| {
        stencil(
            Some(store),
            kind,
            StencilPlatform::CpuMpi,
            r,
            (16, 16, 64),
            4,
            false,
        )
    },
};

/// Figure 13: Figure 5 with compilation time excluded.
pub(super) const FIG13: Scaling = Scaling {
    id: "fig13",
    title: "diffusion strong scaling, MPI CPU (excl. compile)",
    compile: false,
    ..FIG5
};

/// Figure 6: diffusion weak scaling on GPUs (one per rank).
pub(super) const FIG6: Scaling = Scaling {
    id: "fig6",
    title: "diffusion weak scaling, GPU + MPI",
    y_label: "virtual cycles",
    notes: &[
        "paper: 384^3 per GPU, using the whole device memory; here 16x16x8 per rank",
        "no C++ series: the paper itself avoided virtual calls in CUDA kernels (§4)",
    ],
    kinds: WEAK_GPU,
    ranks: &[1, 2, 4, 8],
    compile: true,
    point: |store, kind, r| {
        let dims = (16, 16, 8 * r as i32);
        stencil(
            Some(store),
            kind,
            StencilPlatform::GpuMpi,
            r,
            dims,
            4,
            false,
        )
    },
};

/// Figure 7: diffusion strong scaling on GPUs, incl. compile.
pub(super) const FIG7: Scaling = Scaling {
    id: "fig7",
    title: "diffusion strong scaling, GPU + MPI (incl. compile)",
    y_label: "virtual cycles",
    notes: &["paper: 384x384x1536 total; here 16x16x32 total"],
    kinds: STRONG,
    ranks: &[1, 2, 4, 8],
    compile: true,
    point: |store, kind, r| {
        stencil(
            Some(store),
            kind,
            StencilPlatform::GpuMpi,
            r,
            (16, 16, 32),
            4,
            false,
        )
    },
};

/// Figure 14: Figure 7 with compilation excluded.
pub(super) const FIG14: Scaling = Scaling {
    id: "fig14",
    title: "diffusion strong scaling, GPU + MPI (excl. compile)",
    compile: false,
    ..FIG7
};

/// Figure 9: matmul weak scaling over MPI (Fox algorithm); the per-rank
/// block is fixed at 16x16, so n = 16·sqrt(p).
pub(super) const FIG9: Scaling = Scaling {
    id: "fig9",
    title: "matmul weak scaling, MPI CPU (Fox)",
    y_label: "virtual cycles",
    notes: &[
        "paper: 2048^3 per node; here a fixed 16x16 block per rank (n = 16*sqrt(p))",
        "Fox per-rank work grows with sqrt(p); the ideal line is t1*sqrt(p)",
    ],
    kinds: WEAK_CPU,
    ranks: &[1, 4, 9, 16],
    compile: true,
    point: |store, kind, r| {
        let n = 16 * (r as f64).sqrt() as i32;
        matmul(Some(store), kind, MatTarget::Fox, r, n)
    },
};

/// Figure 10: matmul strong scaling over MPI, C vs WootinJ, incl. compile.
pub(super) const FIG10: Scaling = Scaling {
    id: "fig10",
    title: "matmul strong scaling, MPI CPU (incl. compile)",
    y_label: "virtual cycles",
    notes: &["paper: 2048x2048x(2048*8) CPU / 14592^3 GPU; here n = 48"],
    kinds: STRONG,
    ranks: &[1, 4, 9, 16],
    compile: true,
    point: |store, kind, r| matmul(Some(store), kind, MatTarget::Fox, r, 48),
};

/// Figure 15: Figure 10 with compilation excluded.
pub(super) const FIG15: Scaling = Scaling {
    id: "fig15",
    title: "matmul strong scaling, MPI CPU (excl. compile)",
    compile: false,
    ..FIG10
};

/// Figure 11: matmul weak scaling on GPUs (Fox schedule, device multiply).
pub(super) const FIG11: Scaling = Scaling {
    id: "fig11",
    title: "matmul weak scaling, GPU + MPI (Fox)",
    notes: &["paper: 14592^3 per GPU (whole device memory); here a fixed 16x16 block per rank"],
    kinds: WEAK_GPU,
    ranks: &[1, 4, 9],
    point: |store, kind, r| {
        let n = 16 * (r as f64).sqrt() as i32;
        matmul(Some(store), kind, MatTarget::FoxGpu, r, n)
    },
    ..FIG9
};

/// Figure 12: matmul strong scaling on GPUs, incl. compile.
pub(super) const FIG12: Scaling = Scaling {
    id: "fig12",
    title: "matmul strong scaling, GPU + MPI (incl. compile)",
    point: |store, kind, r| matmul(Some(store), kind, MatTarget::FoxGpu, r, 48),
    ..FIG10
};

/// Figure 16: Figure 12 with compilation excluded.
pub(super) const FIG16: Scaling = Scaling {
    id: "fig16",
    title: "matmul strong scaling, GPU + MPI (excl. compile)",
    compile: false,
    ..FIG12
};

pub(super) fn scaling(row: &Scaling) -> Figure {
    let store = TempDir::new("wootinj-repro-store");
    let mut fig = Figure::new(row.id, row.title, "ranks", row.y_label);
    for note in row.notes {
        fig.note(*note);
    }
    for &kind in row.kinds {
        let mut s = Series::new(kind.name());
        for &r in row.ranks {
            let out = (row.point)(store.path(), kind, r);
            let y = if row.compile {
                out.with_compile(kind)
            } else {
                out.vtime as f64
            };
            s.push(r as f64, y);
        }
        fig.series.push(s);
    }
    fig.note(WARM_NOTE);
    let xs = row.ranks.iter().map(|&r| r as f64);
    fig.series.push(warm_column("WootinJ (warm)", xs, |x| {
        (row.point)(store.path(), Kind::WootinJ, x as u32)
    }));
    fig
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Table 3: WootinJ compilation time for the four evaluation programs,
/// plus generated-code statistics. Independent of problem size by
/// construction (shape analysis sees sizes only as scalars).
pub(super) fn tab3() -> Figure {
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

    let stencils = hpclib::stencil_table(&[]).unwrap();
    let matmuls = hpclib::matmul_table(&[]).unwrap();
    let (args, fox_args) = (diffusion_args((16, 16, 16), 2), [Value::Int(32)]);
    let diffusion = |platform: StencilPlatform| {
        let compose = |env: &mut WootinJ| {
            StencilApp::compose(env, platform, StencilApp::default_model()).unwrap()
        };
        jit(&stencils, JitOptions::wootinj(), "invoke", &args, compose).1
    };
    let fox = |body: MatmulBody| {
        let compose = |env: &mut WootinJ| {
            MatmulApp::compose(env, MatmulThread::Mpi, body, MatmulCalc::Simple).unwrap()
        };
        jit(&matmuls, JitOptions::wootinj(), "start", &fox_args, compose).1
    };
    let programs = [
        diffusion(StencilPlatform::CpuMpi),
        diffusion(StencilPlatform::GpuMpi),
        fox(MatmulBody::Fox),
        fox(MatmulBody::FoxGpu),
    ];
    for (i, code) in programs.iter().enumerate() {
        ms.push(i as f64, code.compile_time.as_secs_f64() * 1e3);
        funcs.push(i as f64, code.translated.program.funcs.len() as f64);
        instrs.push(i as f64, code.translated.program.instr_count() as f64);
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
pub(super) fn tab3_amortized() -> Figure {
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
    let args = diffusion_args((16, 16, 16), 2);
    let compose = |env: &mut WootinJ| {
        StencilApp::compose(env, StencilPlatform::CpuMpi, StencilApp::default_model()).unwrap()
    };

    let sweep = |name: &str, capacity: usize| -> Series {
        let mut env = WootinJ::new(&table).unwrap();
        env.set_cache_capacity(capacity);
        let runner = compose(&mut env);
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
        .push(sweep("cached", wootinj::cache::DEFAULT_CAPACITY));
    fig.series.push(sweep("uncached", 0));

    // Warm-process series: every checkpoint is a *fresh* env — a new
    // process in a real deployment — warm-starting from a shared on-disk
    // artifact store. The first call decodes the persisted artifact,
    // later calls hit the promoted memory tier; no checkpoint ever
    // translates, so the curve stays near zero at every call count.
    fig.note("warm-process = fresh env per checkpoint, artifacts from a shared disk store");
    let disk = TempDir::new("wootinj-tab3-warm");
    let warm_opts = || JitOptions::wootinj().with_disk_cache(disk.path());
    // A prior cold process populates the store.
    jit(&table, warm_opts(), "invoke", &args, compose);
    let mut warm = Series::new("warm-process");
    for &calls in &checkpoints {
        let mut env = WootinJ::new(&table).unwrap();
        let runner = compose(&mut env);
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
pub(super) fn pass_profile(quick: bool) -> Figure {
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
            Box::new(|env| {
                let runner =
                    StencilApp::compose(env, StencilPlatform::CpuMpi, StencilApp::default_model())
                        .unwrap();
                (runner, "invoke", diffusion_args((16, 16, 16), 2).to_vec())
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
pub(super) fn tab1() -> Figure {
    opt_sweep("tab1", "optimizer configuration sweep (diffusion)", true)
}

/// Table 2 analogue: the same sweep on matmul.
pub(super) fn tab2() -> Figure {
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
        let opts = Some(JitOptions::wootinj().with_opt(*opt));
        let out = if diffusion {
            let table = hpclib::stencil_table(&[]).unwrap();
            let args = diffusion_args((16, 16, 12), 3);
            run(&table, opts, "invoke", &args, None, None, |env| {
                StencilApp::compose(env, StencilPlatform::Cpu, StencilApp::default_model()).unwrap()
            })
        } else {
            let (table, args) = (hpclib::matmul_table(&[]).unwrap(), [Value::Int(24)]);
            run(&table, opts, "start", &args, None, None, |env| {
                let (thread, body) = (MatmulThread::CpuLoop, MatmulBody::Simple);
                MatmulApp::compose(env, thread, body, MatmulCalc::Simple).unwrap()
            })
        };
        s.push(i as f64, out.vtime as f64);
    }
    fig.series.push(s);
    fig
}

// ---------------------------------------------------------------------
// Ablations (design-choice benches from DESIGN.md)
// ---------------------------------------------------------------------

/// The boxed diffusion workload the pipeline ablations run: 16x16x12, 3
/// steps, under `opts`.
fn boxed_diffusion(opts: JitOptions) -> u64 {
    let table = hpclib::stencil_table(&[]).unwrap();
    let args = diffusion_args((16, 16, 12), 3);
    let out = run(&table, Some(opts), "invoke", &args, None, None, |env| {
        StencilApp::compose_boxed(env, 0.4, 0.1).unwrap()
    });
    out.vtime
}

/// `JitOptions` for one translator configuration, with nothing else on.
fn config_only(config: translator::TransConfig) -> JitOptions {
    JitOptions {
        config,
        degrade: false,
        disk_cache: None,
        checkpoint: None,
        executor: wootinj::ExecutorCfg::Sim,
    }
}

/// Ablation: which pipeline stage buys what — Virtual -> Devirt -> Full
/// on the boxed diffusion workload.
pub(super) fn ablate_devirt() -> Figure {
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
    let mut s = Series::new("cycles");
    let opts = [
        JitOptions::cpp(),
        config_only(translator::TransConfig::devirt()),
        JitOptions::wootinj().with_opt(OptConfig::standard()),
    ];
    for (i, o) in opts.into_iter().enumerate() {
        s.push(i as f64, boxed_diffusion(o) as f64);
    }
    fig.series.push(s);
    fig
}

/// Ablation: the NIR function-inlining limit (the Template-w/o-virt knob).
pub(super) fn ablate_inline() -> Figure {
    let mut fig = Figure::new(
        "ablate-inline",
        "NIR inline-limit sweep (boxed diffusion, Devirt mode + SROA)",
        "inline limit",
        "virtual cycles",
    );
    let mut s = Series::new("cycles");
    for limit in [0usize, 4, 16, 64, 128] {
        let mut config = translator::TransConfig::devirt();
        config.opt = OptConfig::aggressive();
        config.opt.inline_limit = limit;
        s.push(limit as f64, boxed_diffusion(config_only(config)) as f64);
    }
    fig.series.push(s);
    fig
}

/// Ablation: communication cost model sensitivity — the Figure 4 point at
/// 8 ranks under a latency sweep.
pub(super) fn ablate_comm() -> Figure {
    let mut fig = Figure::new(
        "ablate-comm",
        "comm cost sensitivity (diffusion weak scaling point, 8 ranks)",
        "alpha (cycles)",
        "virtual cycles",
    );
    fig.note("per-rank 16x16x8, 4 steps; the crossover between compute- and latency-bound");
    let table = hpclib::stencil_table(&[]).unwrap();
    let args = diffusion_args((16, 16, 64), 4);
    let mut s = Series::new("WootinJ");
    for alpha in [500u64, 2_000, 8_000, 32_000, 128_000] {
        let cost = MpiCostModel {
            alpha,
            beta: 0.4,
            collective_alpha: alpha * 2,
        };
        let opts = Some(JitOptions::wootinj());
        let out = run(
            &table,
            opts,
            "invoke",
            &args,
            Some((8, cost)),
            None,
            |env| {
                StencilApp::compose(env, StencilPlatform::CpuMpi, StencilApp::default_model())
                    .unwrap()
            },
        );
        s.push(alpha as f64, out.vtime as f64);
    }
    fig.series.push(s);
    fig
}

/// Extension experiment: the third (reduction) class library across
/// platforms — evidence for the paper's future-work claim that the rules
/// support larger libraries.
pub(super) fn ext_reduce() -> Figure {
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
    let mut s = Series::new("cycles");
    for (i, platform) in [
        ReducePlatform::Cpu,
        ReducePlatform::Mpi,
        ReducePlatform::Gpu,
    ]
    .into_iter()
    .enumerate()
    {
        // The reduction returns a double, so this invokes by hand.
        let compose =
            |env: &mut WootinJ| ReduceApp::compose(env, platform, ReduceOp::Square, 0.125).unwrap();
        let args = [Value::Int(4096)];
        let (env, mut code) = jit(&table, JitOptions::wootinj(), "reduce", &args, compose);
        if platform == ReducePlatform::Mpi {
            code.set_mpi(4, MpiCostModel::default());
        }
        if platform == ReducePlatform::Gpu {
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
pub(super) fn ablate_gpu() -> Figure {
    let mut fig = Figure::new(
        "ablate-gpu",
        "GPU model sensitivity (diffusion, 16x16x16, 4 steps)",
        "SMs",
        "virtual cycles",
    );
    fig.note("series: copy bandwidth 4 vs 16 bytes/cycle; more SMs and faster copies both help");
    let table = hpclib::stencil_table(&[]).unwrap();
    let args = diffusion_args((16, 16, 16), 4);
    for bw in [4.0f64, 16.0] {
        let mut s = Series::new(format!("{bw} B/cycle"));
        for sms in [7u32, 14, 28, 56] {
            let gpu = GpuConfig {
                n_sms: sms,
                copy_bytes_per_cycle: bw,
                ..GpuConfig::default()
            };
            let opts = Some(JitOptions::wootinj());
            let out = run(&table, opts, "invoke", &args, None, Some(gpu), |env| {
                StencilApp::compose(env, StencilPlatform::Gpu, StencilApp::default_model()).unwrap()
            });
            s.push(sms as f64, out.vtime as f64);
        }
        fig.series.push(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    /// This process's figure artifact stores.
    fn stores() -> Vec<PathBuf> {
        let prefix = format!("wootinj-repro-store-{}-", std::process::id());
        (std::fs::read_dir(std::env::temp_dir()).unwrap())
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
            .map(|e| e.path())
            .collect()
    }

    #[test]
    fn a_figure_removes_its_artifact_store_even_when_it_panics() {
        let fig = scaling(&FIG15);
        assert_eq!(fig.series.len(), 3);
        assert_eq!(stores(), Vec::<PathBuf>::new(), "after fig15");

        // A sweep whose second point fails after the first filled the store.
        let failing = Scaling {
            ranks: &[1, 4],
            point: |store, kind, ranks| {
                assert!(ranks == 1, "the point at {ranks} ranks fails");
                matmul(Some(store), kind, MatTarget::Fox, ranks, 16)
            },
            ..FIG15
        };
        assert!(std::panic::catch_unwind(|| scaling(&failing)).is_err());
        assert_eq!(stores(), Vec::<PathBuf>::new(), "after a panicking sweep");
    }
}

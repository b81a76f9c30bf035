//! One optimizer schedule serves every translation path. Across the
//! example corpus (a stencil on MPI and on a GPU, Fox matmul, a
//! reduction, and a plain table-built app), in every mode that
//! translates each program and at every optimizer setting:
//!
//! * a jit from a plain class table and a jit from the incremental
//!   query database ([`Workspace`]) emit the same artifact;
//! * translating unoptimized and then running [`nir::optimize`] over
//!   the whole program equals translating at the setting: the same
//!   bytes, and the same merged pass names and instruction counts.

use hpclib::{
    MatmulApp, MatmulBody, MatmulCalc, MatmulThread, ReduceApp, ReduceOp, ReducePlatform,
    StencilApp, StencilPlatform,
};
use jvm::Value;
use nir::PassProfile;
use translator::{Mode, TransConfig};
use wootinj::{build_table, JitOptions, OptConfig, WootinJ, Workspace};

const APP: &str = "
    @WootinJ final class Calc {
      Calc() { }
      float run(float[] a) {
        float s = 0f;
        for (int i = 0; i < a.length; i++) { s += a[i] * 2f + 1f; }
        return s;
      }
    }";

/// Composes a program in an env: the receiver, entry method and args.
type Compose = fn(&mut WootinJ<'_>) -> (Value, &'static str, Vec<Value>);

struct Program {
    name: &'static str,
    sources: Vec<(&'static str, &'static str)>,
    modes: &'static [Mode],
    compose: Compose,
}

const ALL_MODES: &[Mode] = &[Mode::Full, Mode::Devirt, Mode::Virtual];

fn stencil(env: &mut WootinJ<'_>, platform: StencilPlatform) -> (Value, &'static str, Vec<Value>) {
    let runner = StencilApp::compose(env, platform, StencilApp::default_model()).unwrap();
    (runner, "invoke", [12, 12, 12, 2].map(Value::Int).to_vec())
}

fn corpus() -> Vec<Program> {
    vec![
        Program {
            name: "stencil-cpu-mpi",
            sources: vec![("stencil.jl", hpclib::STENCIL_LIB)],
            modes: ALL_MODES,
            compose: |env| stencil(env, StencilPlatform::CpuMpi),
        },
        Program {
            name: "stencil-gpu",
            sources: vec![("stencil.jl", hpclib::STENCIL_LIB)],
            modes: &[Mode::Full, Mode::Devirt],
            compose: |env| stencil(env, StencilPlatform::Gpu),
        },
        Program {
            name: "matmul-fox-mpi",
            sources: vec![("matmul.jl", hpclib::MATMUL_LIB)],
            modes: ALL_MODES,
            compose: |env| {
                let app =
                    MatmulApp::compose(env, MatmulThread::Mpi, MatmulBody::Fox, MatmulCalc::Simple)
                        .unwrap();
                (app, "start", vec![Value::Int(16)])
            },
        },
        Program {
            name: "reduce-square-mpi",
            sources: vec![("reduce.jl", hpclib::REDUCE_LIB)],
            modes: ALL_MODES,
            compose: |env| {
                let app =
                    ReduceApp::compose(env, ReducePlatform::Mpi, ReduceOp::Square, 0.125).unwrap();
                (app, "reduce", vec![Value::Int(64)])
            },
        },
        Program {
            name: "plain-calc",
            sources: vec![("calc.jl", APP)],
            modes: ALL_MODES,
            compose: |env| {
                let c = env.new_instance("Calc", &[]).unwrap();
                let a = env.new_f32_array(&[1.0, 2.0, 3.0]);
                (c, "run", vec![a])
            },
        },
    ]
}

/// Every configuration a program is translated at: each of its modes at
/// `none`, `standard` and `aggressive`, plus the WootinJ preset.
fn configs(modes: &[Mode]) -> Vec<TransConfig> {
    let mut out = Vec::new();
    for &mode in modes {
        for opt in [
            OptConfig::none(),
            OptConfig::standard(),
            OptConfig::aggressive(),
        ] {
            out.push(TransConfig {
                mode,
                opt,
                check_rules: true,
            });
        }
    }
    out.push(JitOptions::wootinj().config);
    out
}

/// What a pass profile says apart from its wall time.
fn shape(passes: &[PassProfile]) -> Vec<(&'static str, u64, u64)> {
    (passes.iter())
        .map(|p| (p.pass, p.instrs_before, p.instrs_after))
        .collect()
}

fn jit_bytes(env: &mut WootinJ<'_>, compose: Compose, config: TransConfig) -> Vec<u8> {
    let (recv, method, args) = compose(env);
    let mut opts = JitOptions::wootinj();
    opts.config = config;
    let code = env.jit(&recv, method, &args, opts).unwrap();
    code.translated.encode()
}

#[test]
fn table_and_query_jits_emit_the_same_artifact() {
    for p in corpus() {
        let table = build_table(&p.sources).unwrap();
        let mut ws = Workspace::new();
        for (name, text) in &p.sources {
            ws.set_source(name, text).unwrap();
        }
        for config in configs(p.modes) {
            let classic = jit_bytes(&mut WootinJ::new(&table).unwrap(), p.compose, config);
            let query = jit_bytes(&mut ws.env().unwrap(), p.compose, config);
            assert!(
                classic == query,
                "{}: {config:?}: the query jit's artifact differs from the table jit's",
                p.name
            );
        }
    }
}

#[test]
fn optimizing_after_lowering_equals_optimizing_while_lowering() {
    for p in corpus() {
        let table = build_table(&p.sources).unwrap();
        let mut env = WootinJ::new(&table).unwrap();
        let (recv, method, args) = (p.compose)(&mut env);
        let translate =
            |config| translator::translate(&table, &env.jvm, &recv, method, &args, config);
        for config in configs(p.modes) {
            let direct = translate(config).unwrap();
            let mut post = translate(TransConfig {
                opt: OptConfig::none(),
                ..config
            })
            .unwrap();
            assert!(
                post.stats.passes.is_empty(),
                "{}: `none` ran a pass",
                p.name
            );
            post.stats.passes = nir::optimize(&mut post.program, config.opt);
            let what = format!("{}: {config:?}", p.name);
            assert!(
                post.encode() == direct.encode(),
                "{what}: optimizing after lowering changed the artifact"
            );
            assert_eq!(
                shape(&post.stats.passes),
                shape(&direct.stats.passes),
                "{what}: the merged pass profiles differ"
            );
            assert_eq!(
                direct.stats.passes.is_empty(),
                config.opt == OptConfig::none(),
                "{what}: a setting that runs passes must profile them"
            );
        }
    }
}

/// Both translation paths refuse an entry class without `@WootinJ`
/// when the coding rules are checked.
#[test]
fn both_paths_refuse_an_unannotated_entry_class() {
    let src = "final class Plain { Plain() { } int run() { return 1; } }";
    let table = build_table(&[("plain.jl", src)]).unwrap();
    let mut ws = Workspace::new();
    ws.set_source("plain.jl", src).unwrap();
    for mut env in [WootinJ::new(&table).unwrap(), ws.env().unwrap()] {
        let p = env.new_instance("Plain", &[]).unwrap();
        let Err(err) = env.jit(&p, "run", &[], JitOptions::wootinj()) else {
            panic!("an unannotated entry class translated");
        };
        assert!(err.to_string().contains("@WootinJ"), "{err}");
    }
}

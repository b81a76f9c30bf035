//! The corpus verifies: every program the `hpclib` tables compose, and
//! the hand-inlined *C* baselines, jitted in every translation mode at
//! every optimizer level and with the WootinJ preset, is a program
//! [`nir::Program::verify`] accepts. `exec` runs on untagged registers,
//! so a translator or optimizer change that breaks a type or a definite
//! assignment must fail here, not compute garbage in a run.
//!
//! The programs of `control_flow.rs` (loops with `break` and `continue`,
//! short-circuit operators, casts, arrays, constructor chains and
//! composite returns) are
//! jitted and pinned the same way, each on its own table.
//!
//! It also pins what every translation emits: each line of
//! `fixtures/verify_corpus.txt` is `program @ configuration: length
//! fnv64 fnv64`: the length and FNV-1a digest of the artifact's
//! unsealed payload (`nir::codec::unseal(&Translated::encode())`) and the
//! FNV-1a digest of `nir::emit_c`'s source (or `untranslated` where the
//! mode cannot translate the program). The pin covers what translation
//! decided; the container's seal belongs to the store. On a
//! mismatch the test prints each differing line as it computed it; a
//! change that is meant to move emitted code replaces those lines.

use bench::cprogs::{C_DIFFUSION, C_MATMUL};
use hpclib::{
    MatmulApp, MatmulBody, MatmulCalc, MatmulThread, ReduceApp, ReduceOp, ReducePlatform,
    Stencil1D, StencilApp, StencilModel, StencilPlatform,
};
use jlang::table::ClassTable;
use jvm::Value;
use translator::{Mode, TransConfig};
use wootinj::{JitOptions, OptConfig, WootinJ};

#[path = "support/programs.rs"]
mod programs;

/// Composes a receiver in an env: the receiver, entry method and args.
type Compose = Box<dyn Fn(&mut WootinJ<'_>) -> (Value, &'static str, Vec<Value>)>;

const FIXTURE: &str = include_str!("fixtures/verify_corpus.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Every configuration, with its name in the fixture: each mode at
/// `none`, `standard` and `aggressive`, plus the WootinJ preset.
fn configs() -> Vec<(String, JitOptions)> {
    let mut out = Vec::new();
    for mode in [Mode::Virtual, Mode::Devirt, Mode::Full] {
        for (level, opt) in [
            ("none", OptConfig::none()),
            ("standard", OptConfig::standard()),
            ("aggressive", OptConfig::aggressive()),
        ] {
            let mut o = JitOptions::wootinj();
            o.config = TransConfig {
                mode,
                opt,
                check_rules: true,
            };
            out.push((format!("{mode:?} {level}"), o));
        }
    }
    out.push(("wootinj".into(), JitOptions::wootinj()));
    out
}

fn stencil_corpus() -> Vec<(String, Compose)> {
    let grid = || [8, 8, 8, 2].map(Value::Int).to_vec();
    let mut out: Vec<(String, Compose)> = Vec::new();
    let platforms = [
        StencilPlatform::Cpu,
        StencilPlatform::CpuMpi,
        StencilPlatform::Gpu,
        StencilPlatform::GpuMpi,
    ];
    for platform in platforms {
        for model in [StencilApp::default_model(), StencilModel::Damped { k: 0.3 }] {
            out.push((
                format!("stencil {platform:?} {model:?}"),
                Box::new(move |env| {
                    let r = StencilApp::compose(env, platform, model).unwrap();
                    (r, "invoke", grid())
                }),
            ));
        }
        let class = match platform {
            StencilPlatform::Cpu => "CDiffusion",
            StencilPlatform::CpuMpi => "CDiffusionMPI",
            StencilPlatform::Gpu => "CDiffusionGPU",
            StencilPlatform::GpuMpi => "CDiffusionGPUMPI",
        };
        out.push((
            format!("C {class}"),
            Box::new(move |env| {
                let args = [Value::Float(0.4), Value::Float(0.1)];
                (env.new_instance(class, &args).unwrap(), "invoke", grid())
            }),
        ));
    }
    out.push((
        "stencil boxed".into(),
        Box::new(move |env| {
            let r = StencilApp::compose_boxed(env, 0.4, 0.1).unwrap();
            (r, "invoke", grid())
        }),
    ));
    let line = || vec![Value::Int(32), Value::Int(3)];
    out.push((
        "stencil 1d diffusion".into(),
        Box::new(move |env| {
            let r = Stencil1D::compose_diffusion(env, 0.1, 0.8).unwrap();
            (r, "invoke", line())
        }),
    ));
    out.push((
        "stencil 1d damped".into(),
        Box::new(move |env| {
            let r = Stencil1D::compose_damped(env, 0.3).unwrap();
            (r, "invoke", line())
        }),
    ));
    out
}

fn matmul_corpus() -> Vec<(String, Compose)> {
    let mut out: Vec<(String, Compose)> = Vec::new();
    let shapes = [
        (MatmulThread::CpuLoop, MatmulBody::Simple),
        (MatmulThread::Mpi, MatmulBody::Fox),
        (MatmulThread::Mpi, MatmulBody::FoxGpu),
        (MatmulThread::Gpu, MatmulBody::GpuNaive),
        (MatmulThread::Gpu, MatmulBody::GpuTiled),
    ];
    for (thread, body) in shapes {
        for calc in [MatmulCalc::Simple, MatmulCalc::Optimized] {
            out.push((
                format!("matmul {thread:?} {body:?} {calc:?}"),
                Box::new(move |env| {
                    let app = MatmulApp::compose(env, thread, body, calc).unwrap();
                    (app, "start", vec![Value::Int(8)])
                }),
            ));
        }
    }
    for class in ["CMatmul", "CMatmulFox", "CMatmulGPU", "CMatmulFoxGPU"] {
        out.push((
            format!("C {class}"),
            Box::new(move |env| {
                (
                    env.new_instance(class, &[]).unwrap(),
                    "start",
                    vec![Value::Int(8)],
                )
            }),
        ));
    }
    out
}

fn reduce_corpus() -> Vec<(String, Compose)> {
    let mut out: Vec<(String, Compose)> = Vec::new();
    for platform in [
        ReducePlatform::Cpu,
        ReducePlatform::Mpi,
        ReducePlatform::Gpu,
    ] {
        for op in [
            ReduceOp::Identity,
            ReduceOp::Square,
            ReduceOp::Abs,
            ReduceOp::Affine { a: 2.0, b: -1.0 },
        ] {
            out.push((
                format!("reduce {platform:?} {op:?}"),
                Box::new(move |env| {
                    let app = ReduceApp::compose(env, platform, op, 0.125).unwrap();
                    (app, "reduce", vec![Value::Int(64)])
                }),
            ));
        }
    }
    out
}

/// The programs of `control_flow.rs`, each composed on its own table:
/// `new P().run(INPUT)`. Returns how many translations were verified.
fn verify_programs(lines: &mut Vec<(String, String)>) -> usize {
    let mut verified = 0;
    for (name, classes, members) in programs::PROGRAMS {
        let src = programs::source(classes, members);
        let table = wootinj::build_table(&[("p.jl", &src)]).unwrap();
        let compose: Compose = Box::new(|env| {
            let p = env.new_instance("P", &[]).unwrap();
            let a = env.jvm.new_i32_array(&programs::INPUT);
            (p, "run", vec![a])
        });
        verified += verify_all(&table, vec![(name.to_string(), compose)], lines);
    }
    verified
}

/// Jit every program of `corpus` on `table` in every configuration its
/// mode can translate, and verify what comes out. Returns how many
/// programs were verified; pushes each translation's fixture key and line
/// onto `lines`.
fn verify_all(
    table: &ClassTable,
    corpus: Vec<(String, Compose)>,
    lines: &mut Vec<(String, String)>,
) -> usize {
    let mut verified = 0;
    for (name, compose) in corpus {
        for (config, options) in configs() {
            let mut env = WootinJ::new(table).unwrap();
            let (recv, method, args) = compose(&mut env);
            let mode = options.config.mode;
            let key = format!("{name} @ {config}:");
            let code = match env.jit(&recv, method, &args, options) {
                Ok(code) => code,
                // Virtual mode has no kernels: a device program does not
                // translate there, for a reason that is not a type.
                Err(e) if mode == Mode::Virtual && !e.to_string().contains("verify") => {
                    lines.push((key.clone(), format!("{key} untranslated")));
                    continue;
                }
                Err(e) => panic!("{name} in {mode:?}: {e}"),
            };
            let program = &code.translated.program;
            if let Err(e) = program.verify() {
                panic!("{name} in {mode:?}: {e}\n{program}");
            }
            let sealed = code.translated.encode();
            let payload = nir::codec::unseal(&sealed).expect("a fresh artifact unseals");
            let c = nir::emit_c(program);
            let line = format!(
                "{key} {} {:016x} {:016x}",
                payload.len(),
                fnv1a(payload),
                fnv1a(c.as_bytes())
            );
            lines.push((key, line));
            verified += 1;
        }
    }
    verified
}

#[test]
fn every_corpus_program_verifies_in_every_configuration() {
    let stencil = hpclib::stencil_table(&[("c_diffusion.jl", C_DIFFUSION)]).unwrap();
    let matmul = hpclib::matmul_table(&[("c_matmul.jl", C_MATMUL)]).unwrap();
    let reduce = hpclib::reduce_table(&[]).unwrap();
    let mut lines = Vec::new();
    let n = verify_all(&stencil, stencil_corpus(), &mut lines)
        + verify_all(&matmul, matmul_corpus(), &mut lines)
        + verify_all(&reduce, reduce_corpus(), &mut lines)
        + verify_programs(&mut lines);
    eprintln!("{n} translations verified");
    assert!(n >= 300, "only {n} translations verified");

    let mut moved = 0;
    for (key, got) in &lines {
        let want = FIXTURE.lines().find(|l| l.starts_with(key.as_str()));
        if want != Some(got.as_str()) {
            eprintln!("fixture {want:?}, got:\n{got}");
            moved += 1;
        }
    }
    assert_eq!(moved, 0, "{moved} translations moved");
    assert_eq!(
        FIXTURE.lines().count(),
        lines.len(),
        "the fixture has a line for a translation the corpus no longer makes"
    );
}

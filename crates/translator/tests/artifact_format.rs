//! On-disk artifact format coverage: a committed golden fixture decodes
//! bit-identically, and every corruption mode (truncation, bit flips,
//! version skew, bad magic) is rejected with a typed error — never a
//! panic. The fixture pins the byte layout: if an encoding change breaks
//! decoding of existing stores, these tests fail until [`nir::codec::VERSION`]
//! is bumped and the fixture regenerated (see `regenerate_golden_fixture`).

use std::path::PathBuf;

use hpclib::{MatmulApp, MatmulBody, MatmulCalc, MatmulThread, StencilApp, StencilPlatform};
use jlang::compile_str;
use jvm::{Jvm, Value};
use nir::codec::{CodecError, VERSION};
use nir::OptConfig;
use translator::{translate, TransConfig, Translated};
use wootinj::{build_table, JitOptions, WootinJ};

const APP: &str = "
    @WootinJ interface Stepper { float step(float x, int i); }
    @WootinJ final class Axpy implements Stepper {
      float a; float b;
      Axpy(float a0, float b0) { a = a0; b = b0; }
      float step(float x, int i) { return a * x + b * i; }
    }
    @WootinJ final class Fix {
      Stepper s;
      Fix(Stepper s0) { s = s0; }
      float run(float[] data, int steps) {
        for (int t = 0; t < steps; t++) {
          for (int i = 0; i < data.length; i++) { data[i] = s.step(data[i], i); }
        }
        float acc = 0f;
        for (int i = 0; i < data.length; i++) { acc += data[i]; }
        return acc;
      }
    }";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden.wjar")
}

fn translate_sample() -> Translated {
    let table = compile_str(APP).unwrap();
    let mut jvm = Jvm::new(&table).unwrap();
    let stepper = jvm
        .new_instance("Axpy", &[Value::Float(0.5), Value::Float(0.25)])
        .unwrap();
    let fix = jvm.new_instance("Fix", &[stepper]).unwrap();
    let data = jvm.new_f32_array(&[1.0, 2.0, 3.0]);
    translate(
        &table,
        &jvm,
        &fix,
        "run",
        &[data, Value::Int(2)],
        TransConfig::full(),
    )
    .unwrap()
}

/// One-time fixture (re)generation — run with
/// `cargo test -p translator -- --ignored regenerate_golden_fixture`
/// after any intentional format change (and bump `VERSION`).
#[test]
#[ignore = "writes the committed fixture; run explicitly after format changes"]
fn regenerate_golden_fixture() {
    let bytes = translate_sample().encode();
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), &bytes).unwrap();
}

#[test]
fn golden_fixture_decodes_bit_identically() {
    let bytes = std::fs::read(fixture_path()).expect(
        "missing golden fixture — run `cargo test -p translator -- --ignored regenerate_golden_fixture`",
    );
    let decoded = Translated::decode(&bytes).expect("golden artifact must decode");
    // decode → encode reproduces the committed bytes exactly; this is the
    // determinism the disk store and rank-0 broadcast rely on.
    assert_eq!(decoded.encode(), bytes, "re-encoded fixture differs");
    decoded
        .program
        .validate()
        .expect("decoded program is valid");
    // The decoded artifact is semantically the fixture workload: a fully
    // specialized entry with flattened bindings.
    let fresh = translate_sample();
    assert_eq!(decoded.mode, fresh.mode);
    assert_eq!(decoded.bindings, fresh.bindings);
    assert_eq!(decoded.program.funcs.len(), fresh.program.funcs.len());
    for (d, f) in decoded.program.funcs.iter().zip(&fresh.program.funcs) {
        assert_eq!(d.name, f.name);
        assert_eq!(d.code, f.code);
    }
    assert_eq!(decoded.entry, fresh.entry);
    assert_eq!(decoded.uses_mpi, fresh.uses_mpi);
    assert_eq!(decoded.uses_gpu, fresh.uses_gpu);
}

#[test]
fn truncated_artifacts_are_rejected_at_every_length() {
    let bytes = translate_sample().encode();
    for n in 0..bytes.len() {
        match Translated::decode(&bytes[..n]) {
            Err(CodecError::Truncated { .. }) | Err(CodecError::BadMagic) => {}
            other => panic!("prefix of {n} bytes decoded as {other:?}"),
        }
    }
}

#[test]
fn bit_flips_are_rejected_with_a_typed_error() {
    let bytes = translate_sample().encode();
    // Flip one bit in every 97th byte (cheap full-coverage sweep) — the
    // digest or a discriminant check must catch each, and none may panic.
    for i in (0..bytes.len()).step_by(97) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        match Translated::decode(&bad) {
            Ok(_) => panic!("bit flip at byte {i} decoded successfully"),
            Err(
                CodecError::Corrupt { .. }
                | CodecError::BadMagic
                | CodecError::VersionSkew { .. }
                | CodecError::Truncated { .. },
            ) => {}
        }
    }
}

#[test]
fn version_skew_is_rejected_with_found_and_expected() {
    let mut bytes = translate_sample().encode();
    bytes[4] = VERSION + 9;
    match Translated::decode(&bytes) {
        Err(CodecError::VersionSkew { found, expected }) => {
            assert_eq!(found, VERSION + 9);
            assert_eq!(expected, VERSION);
        }
        other => panic!("expected VersionSkew, got {other:?}"),
    }
}

#[test]
fn arbitrary_garbage_is_rejected_as_bad_magic() {
    assert!(matches!(
        Translated::decode(b"definitely not an artifact"),
        Err(CodecError::BadMagic)
    ));
    assert!(matches!(
        Translated::decode(&[]),
        Err(CodecError::Truncated { .. })
    ));
}

/// `bench`'s `incr_sources(8)` text (eight 192-statement stage classes
/// plus the `App` that sums them), frozen as a fixture: its bodies lower
/// to straight-line blocks thousands of instructions long, which
/// `golden.wjar` (a 4 KB program) does not have.
const PIPELINE8: &str = include_str!("fixtures/pipeline8.jl");

fn jit_options(opt: OptConfig) -> JitOptions {
    let mut opts = JitOptions::wootinj();
    opts.config.opt = opt;
    opts
}

fn digest_and_count(t: &Translated) -> (u64, usize) {
    (nir::fnv1a64(&t.encode_semantic()), t.program.instr_count())
}

fn diffusion(opt: OptConfig) -> (u64, usize) {
    let table = hpclib::stencil_table(&[]).unwrap();
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
        Value::Int(16),
        Value::Int(2),
    ];
    let code = env.jit(&runner, "invoke", &args, jit_options(opt)).unwrap();
    digest_and_count(&code.translated)
}

fn matmul_fox(opt: OptConfig) -> (u64, usize) {
    let table = hpclib::matmul_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let app = MatmulApp::compose(
        &mut env,
        MatmulThread::Mpi,
        MatmulBody::Fox,
        MatmulCalc::Simple,
    )
    .unwrap();
    let code = env
        .jit(&app, "start", &[Value::Int(32)], jit_options(opt))
        .unwrap();
    digest_and_count(&code.translated)
}

fn pipeline8(opt: OptConfig) -> (u64, usize) {
    let table = build_table(&[("pipeline8.jl", PIPELINE8)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let stages: Vec<Value> = (0..8)
        .map(|i| {
            env.new_instance(&format!("Stage{i}"), &[Value::Float(i as f32)])
                .unwrap()
        })
        .collect();
    let app = env.new_instance("App", &stages).unwrap();
    let data = env.new_f32_array(&[0.5, 1.0, 1.5, 2.0]);
    let code = env.jit(&app, "run", &[data], jit_options(opt)).unwrap();
    digest_and_count(&code.translated)
}

/// What the whole compile path produces, pinned: FNV-1a of the semantic
/// artifact bytes and the optimized instruction count of three programs
/// under the standard pipeline and under `aggressive()` (which reaches
/// inlining, `sroa` and the post-SROA fold round). A change to the front
/// end, lowering or an optimizer pass that is meant to keep its output
/// must leave all six pairs alone; one that is meant to change it
/// re-pins them here, visibly.
#[test]
fn compile_path_output_is_pinned() {
    type Pin = (u64, usize);
    type Compile = fn(OptConfig) -> Pin;
    let pinned: [(&str, Compile, Pin, Pin); 3] = [
        (
            "diffusion",
            diffusion,
            (0x2f62_8c89_073d_f17a, 254),
            (0x8a16_0aaf_0f41_be76, 385),
        ),
        (
            "matmul-fox",
            matmul_fox,
            (0x6b29_c238_f7f6_c8d5, 223),
            (0x396d_8912_379a_d029, 284),
        ),
        // Fully flattened already: `aggressive()` finds nothing to inline
        // or scalar-replace, so both levels pin the same program.
        (
            "pipeline8",
            pipeline8,
            (0x55b8_bc24_a757_3e6a, 10823),
            (0x55b8_bc24_a757_3e6a, 10823),
        ),
    ];
    let mut moved = Vec::new();
    for (name, compile, standard, aggressive) in pinned {
        for (level, opt, want) in [
            ("standard", OptConfig::standard(), standard),
            ("aggressive", OptConfig::aggressive(), aggressive),
        ] {
            let got = compile(opt);
            if got != want {
                moved.push(format!(
                    "{name} {level}: ({:#018x}, {}), pinned ({:#018x}, {})",
                    got.0, got.1, want.0, want.1
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "compile output moved:\n{}",
        moved.join("\n")
    );
}

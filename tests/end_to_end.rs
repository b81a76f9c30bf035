//! Cross-crate integration tests: the full pipeline from jlang source
//! through rules checking, translation, and execution on the simulated
//! platforms, validated against the interpreter and pure-Rust references.

use jvm::Value;
use wootinj::{build_table, GpuConfig, JitOptions, MpiCostModel, Val, WootinJ};

fn rel_close(a: f32, b: f32, tol: f32) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= scale * tol
}

/// A reduction program exercising arrays, dispatch, and math natives.
const REDUCE: &str = r#"
    @WootinJ interface Norm { double apply(double acc, float v); }
    @WootinJ final class L2 implements Norm {
      L2() { }
      double apply(double acc, float v) { return acc + v * v; }
    }
    @WootinJ final class L1 implements Norm {
      L1() { }
      double apply(double acc, float v) { return acc + Math.absd(v); }
    }
    @WootinJ final class Reducer {
      Norm norm;
      Reducer(Norm n) { norm = n; }
      double run(float[] data) {
        double acc = 0.0;
        for (int i = 0; i < data.length; i++) {
          acc = norm.apply(acc, data[i]);
        }
        return Math.sqrt(acc);
      }
    }
"#;

#[test]
fn reduction_all_modes_match_interpreter() {
    let table = build_table(&[("reduce.jl", REDUCE)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let l2 = env.new_instance("L2", &[]).unwrap();
    let reducer = env.new_instance("Reducer", &[l2]).unwrap();
    let data: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.25).collect();

    let arr = env.new_f32_array(&data);
    let expected = match env.run_interpreted(&reducer, "run", &[arr]).unwrap().result {
        Value::Double(v) => v,
        other => panic!("unexpected {other}"),
    };
    // Ground truth in Rust.
    let truth = data
        .iter()
        .map(|v| (*v as f64) * (*v as f64))
        .sum::<f64>()
        .sqrt();
    assert!((expected - truth).abs() < 1e-9);

    for opts in [
        JitOptions::wootinj(),
        JitOptions::template(),
        JitOptions::template_no_virt(),
        JitOptions::cpp(),
    ] {
        let arr = env.new_f32_array(&data);
        let code = env.jit(&reducer, "run", &[arr], opts).unwrap();
        let report = code.invoke(&env).unwrap();
        match report.result {
            Some(Val::F64(v)) => assert_eq!(v, expected, "mode {:?}", code.mode()),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn component_switch_changes_translated_code_not_call_sites() {
    // Swapping L2 -> L1 must produce a different specialized program from
    // identical client code — the framework's customizability claim.
    let table = build_table(&[("reduce.jl", REDUCE)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let l1 = env.new_instance("L1", &[]).unwrap();
    let l2 = env.new_instance("L2", &[]).unwrap();
    let r1 = env.new_instance("Reducer", &[l1]).unwrap();
    let r2 = env.new_instance("Reducer", &[l2]).unwrap();
    let data = env.new_f32_array(&[-3.0, 4.0]);
    let c1 = env
        .jit(
            &r1,
            "run",
            std::slice::from_ref(&data),
            JitOptions::wootinj(),
        )
        .unwrap();
    let c2 = env.jit(&r2, "run", &[data], JitOptions::wootinj()).unwrap();
    let s1 = c1.c_source();
    let s2 = c2.c_source();
    assert!(s1.contains("L1_apply"), "{s1}");
    assert!(s2.contains("L2_apply"), "{s2}");
    // L1: |-3| + |4| = 7, sqrt(7); L2: 9 + 16 = 25, sqrt = 5.
    let v1 = match c1.invoke(&env).unwrap().result {
        Some(Val::F64(v)) => v,
        other => panic!("{other:?}"),
    };
    let v2 = match c2.invoke(&env).unwrap().result {
        Some(Val::F64(v)) => v,
        other => panic!("{other:?}"),
    };
    assert!((v1 - 7f64.sqrt()).abs() < 1e-9);
    assert!((v2 - 5.0).abs() < 1e-9);
}

#[test]
fn stencil_full_matrix_of_platforms_and_modes() {
    let table = hpclib::stencil_table(&[]).unwrap();
    let reference = hpclib::reference_diffusion(8, 8, 8, 2, 0.4, 0.1);
    for platform in [
        hpclib::StencilPlatform::Cpu,
        hpclib::StencilPlatform::CpuMpi,
        hpclib::StencilPlatform::Gpu,
        hpclib::StencilPlatform::GpuMpi,
    ] {
        for opts in [
            JitOptions::wootinj(),
            JitOptions::template(),
            JitOptions::template_no_virt(),
        ] {
            let mut env = WootinJ::new(&table).unwrap();
            let runner = hpclib::StencilApp::compose(
                &mut env,
                platform,
                hpclib::StencilApp::default_model(),
            )
            .unwrap();
            let args = [Value::Int(8), Value::Int(8), Value::Int(8), Value::Int(2)];
            let mut code = env.jit(&runner, "invoke", &args, opts).unwrap();
            if platform.uses_mpi() {
                code.set_mpi(2, MpiCostModel::default());
            }
            if platform.uses_gpu() {
                code.set_gpu(GpuConfig::default());
            }
            let got = match code.invoke(&env).unwrap().result {
                Some(Val::F32(v)) => v,
                other => panic!("unexpected {other:?}"),
            };
            assert!(
                rel_close(got, reference, 1e-4),
                "{platform:?}: {got} vs {reference}"
            );
        }
    }
}

#[test]
fn matmul_reference_against_baselines_and_library() {
    // Three independent implementations agree: pure-Rust reference,
    // the native C-style loop, translated jlang library. (The modular
    // series as compiled C: `crates/bench/tests/emitted_c.rs`.)
    let n = 16usize;
    let reference = hpclib::reference_matmul(n);
    assert_eq!(reference, baselines::matmul::c_style::matmul_checksum(n));

    let table = hpclib::matmul_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let app = hpclib::MatmulApp::compose(
        &mut env,
        hpclib::MatmulThread::CpuLoop,
        hpclib::MatmulBody::Simple,
        hpclib::MatmulCalc::Optimized,
    )
    .unwrap();
    let code = env
        .jit(
            &app,
            "start",
            &[Value::Int(n as i32)],
            JitOptions::wootinj(),
        )
        .unwrap();
    let got = match code.invoke(&env).unwrap().result {
        Some(Val::F32(v)) => v,
        other => panic!("unexpected {other:?}"),
    };
    assert!(rel_close(got, reference, 1e-4), "{got} vs {reference}");
}

#[test]
fn deterministic_vtime_across_repeated_invocations() {
    let table = hpclib::stencil_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let runner = hpclib::StencilApp::compose(
        &mut env,
        hpclib::StencilPlatform::CpuMpi,
        hpclib::StencilApp::default_model(),
    )
    .unwrap();
    let args = [Value::Int(8), Value::Int(8), Value::Int(8), Value::Int(2)];
    let mut code = env
        .jit(&runner, "invoke", &args, JitOptions::wootinj())
        .unwrap();
    code.set_mpi(4, MpiCostModel::default());
    let a = code.invoke(&env).unwrap();
    let b = code.invoke(&env).unwrap();
    assert_eq!(a.vtime_cycles, b.vtime_cycles);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.results.len(), b.results.len());
}

#[test]
fn generated_source_matches_listing5_structure() {
    // The paper's Listing 3 -> Listing 5 translation, structurally.
    let table = hpclib::stencil_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let runner = hpclib::StencilApp::compose(
        &mut env,
        hpclib::StencilPlatform::GpuMpi,
        hpclib::StencilApp::default_model(),
    )
    .unwrap();
    let args = [Value::Int(8), Value::Int(8), Value::Int(8), Value::Int(2)];
    let code = env
        .jit(&runner, "invoke", &args, JitOptions::wootinj())
        .unwrap();
    let src = code.c_source();
    for needle in [
        "__global__", // the kernel
        "<<<dim3(",   // the launch
        "MPI_Init(&argc, &argv);",
        "MPI_Finalize();",
        "MPI_Send",
        "MPI_Recv",
        "int main(int argc, char* argv[])",
    ] {
        assert!(
            src.contains(needle),
            "missing {needle:?} in generated source"
        );
    }
    // Devirtualized: no vtable machinery anywhere.
    assert!(!src.contains("VCALL"));
}

#[test]
fn errors_surface_with_context() {
    // A rules-violating program names the rule; an incomplete object
    // graph names the hole.
    let bad = r#"
        @WootinJ final class Bad {
          Bad() { }
          int f(int n) { if (n <= 1) { return 1; } return n * f(n - 1); }
        }
    "#;
    let table = build_table(&[("bad.jl", bad)]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let b = env.new_instance("Bad", &[]).unwrap();
    let err = match env.jit(&b, "f", &[Value::Int(3)], JitOptions::wootinj()) {
        Err(e) => e,
        Ok(_) => panic!("expected a rules violation"),
    };
    assert!(err.to_string().contains("rule 6"), "{err}");
}

#[test]
fn mpi_world_size_must_divide_workload_errors_cleanly() {
    // 3 ranks on nz=8: slab size 8/3=2 leaves cells uncovered; the library
    // still runs (integer division) and produces a *different* checksum —
    // the framework is not expected to validate domain decomposition.
    // What must not happen is a crash or deadlock.
    let table = hpclib::stencil_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let runner = hpclib::StencilApp::compose(
        &mut env,
        hpclib::StencilPlatform::CpuMpi,
        hpclib::StencilApp::default_model(),
    )
    .unwrap();
    let args = [Value::Int(8), Value::Int(8), Value::Int(8), Value::Int(2)];
    let mut code = env
        .jit(&runner, "invoke", &args, JitOptions::wootinj())
        .unwrap();
    code.set_mpi(3, MpiCostModel::default());
    let report = code.invoke(&env).unwrap();
    assert!(report.result.is_some());
}

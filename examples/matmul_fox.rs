//! Matrix multiplication with the Figure-8 class library: the Fox
//! algorithm distributed over a √p × √p grid of MPI ranks, cross-checked
//! against the sequential body and the plain-Rust reference checksum.
//!
//! Run with: `cargo run --release --example matmul_fox`

use hpclib::{MatmulApp, MatmulBody, MatmulCalc, MatmulThread};
use jvm::Value;
use wootinj::{JitOptions, MpiCostModel, Val, WootinJ};

fn main() {
    let table = hpclib::matmul_table(&[]).expect("compile matmul library");
    let n = 24;
    println!("matrix multiplication, {n}x{n} (DefaultGen inputs)");
    println!(
        "reference checksum (plain Rust): {}\n",
        hpclib::reference_matmul(n as usize)
    );

    // Sequential: CPULoop + SimpleOuterBody.
    let mut env = WootinJ::new(&table).unwrap();
    let seq = MatmulApp::compose(
        &mut env,
        MatmulThread::CpuLoop,
        MatmulBody::Simple,
        MatmulCalc::Optimized,
    )
    .unwrap();
    let code = env
        .jit(&seq, "start", &[Value::Int(n)], JitOptions::wootinj())
        .unwrap();
    let report = code.invoke(&env).unwrap();
    let seq_sum = match report.result {
        Some(Val::F32(v)) => v,
        other => panic!("unexpected {other:?}"),
    };
    println!(
        "CPULoop + SimpleOuterBody:      checksum={seq_sum:<12.4} vtime={} cycles",
        report.vtime_cycles
    );

    // Distributed: MPIThread + FoxAlgorithm on 1, 4, 9 ranks.
    for ranks in [1u32, 4, 9] {
        let mut env = WootinJ::new(&table).unwrap();
        let fox = MatmulApp::compose(
            &mut env,
            MatmulThread::Mpi,
            MatmulBody::Fox,
            MatmulCalc::Optimized,
        )
        .unwrap();
        let mut code = env
            .jit(&fox, "start", &[Value::Int(n)], JitOptions::wootinj())
            .unwrap();
        code.set_mpi(ranks, MpiCostModel::default());
        let report = code.invoke(&env).unwrap();
        let sum = match report.result {
            Some(Val::F32(v)) => v,
            other => panic!("unexpected {other:?}"),
        };
        let comm: u64 = report.per_rank.iter().map(|r| r.comm_cycles).sum();
        println!(
            "MPIThread + FoxAlgorithm p={ranks:<2}: checksum={sum:<12.4} vtime={} cycles (comm {comm})",
            report.vtime_cycles
        );
    }

    // The calculator feature: per-element virtual accessors vs raw arrays.
    println!("\ncalculator feature under the C++ (virtual-dispatch) baseline:");
    for (name, calc) in [
        ("SimpleCalculator", MatmulCalc::Simple),
        ("OptimizedCalculator", MatmulCalc::Optimized),
    ] {
        let mut env = WootinJ::new(&table).unwrap();
        let app =
            MatmulApp::compose(&mut env, MatmulThread::CpuLoop, MatmulBody::Simple, calc).unwrap();
        let code = env
            .jit(&app, "start", &[Value::Int(n)], JitOptions::cpp())
            .unwrap();
        let report = code.invoke(&env).unwrap();
        println!("  {name:<22} vtime={} cycles", report.vtime_cycles);
    }
}

//! The paper's main evaluation workload: a 3-D diffusion-equation solver
//! built from the stencil class library, run on every platform the
//! feature model offers (Figure 1) and in every translation mode
//! (the Figure 17 series).
//!
//! Run with: `cargo run --release --example stencil_diffusion3d`

use hpclib::{StencilApp, StencilPlatform};
use jvm::Value;
use wootinj::{GpuConfig, JitOptions, MpiCostModel, Val, WootinJ};

fn main() {
    let table = hpclib::stencil_table(&[]).expect("compile stencil library");

    let (nx, ny, nz, steps) = (24, 24, 16, 4);
    let args = [
        Value::Int(nx),
        Value::Int(ny),
        Value::Int(nz),
        Value::Int(steps),
    ];
    println!("3-D diffusion, {nx}x{ny}x{nz}, {steps} steps");
    println!(
        "reference checksum: {}\n",
        hpclib::reference_diffusion(
            nx as usize,
            ny as usize,
            nz as usize,
            steps as usize,
            0.4,
            0.1
        )
    );

    // --- platform feature sweep (WootinJ mode) --------------------------
    println!("platform sweep (WootinJ translation):");
    for (platform, ranks) in [
        (StencilPlatform::Cpu, 1u32),
        (StencilPlatform::CpuMpi, 4),
        (StencilPlatform::Gpu, 1),
        (StencilPlatform::GpuMpi, 4),
    ] {
        let mut env = WootinJ::new(&table).unwrap();
        let runner = StencilApp::compose(&mut env, platform, StencilApp::default_model()).unwrap();
        let mut code = env
            .jit(&runner, "invoke", &args, JitOptions::wootinj())
            .unwrap();
        if platform.uses_mpi() {
            code.set_mpi(ranks, MpiCostModel::default());
        }
        if platform.uses_gpu() {
            code.set_gpu(GpuConfig::default());
        }
        let report = code.invoke(&env).unwrap();
        let result = match report.result {
            Some(Val::F32(v)) => v,
            other => panic!("unexpected {other:?}"),
        };
        println!(
            "  {:<22} ranks={ranks}  checksum={result:<12.4}  vtime={} cycles",
            format!("{:?}", platform),
            report.vtime_cycles
        );
    }

    // --- translation-mode sweep on the CPU (the Figure 17 series) -------
    println!("\ntranslation-mode sweep (CPU runner):");
    let mut env = WootinJ::new(&table).unwrap();
    let runner =
        StencilApp::compose(&mut env, StencilPlatform::Cpu, StencilApp::default_model()).unwrap();

    // Java series: the interpreter.
    let jreport = env.run_interpreted(&runner, "invoke", &args).unwrap();
    println!(
        "  {:<18} checksum={:<12}  steps={} (interpreter work metric)",
        "Java (interp)",
        match jreport.result {
            Value::Float(v) => format!("{v:.4}"),
            other => format!("{other}"),
        },
        jreport.steps
    );

    for (name, opts) in [
        ("C++ (virtual)", JitOptions::cpp()),
        ("Template", JitOptions::template()),
        ("Template w/o virt", JitOptions::template_no_virt()),
        ("WootinJ", JitOptions::wootinj()),
    ] {
        let code = env.jit(&runner, "invoke", &args, opts).unwrap();
        let report = code.invoke(&env).unwrap();
        let result = match report.result {
            Some(Val::F32(v)) => v,
            other => panic!("unexpected {other:?}"),
        };
        println!(
            "  {name:<18} checksum={result:<12.4}  vtime={:>12} cycles  (compile {:?})",
            report.vtime_cycles, code.compile_time
        );
    }
    println!("\n(lower vtime is better; Java and C++ pay the object-orientation tax)");
}

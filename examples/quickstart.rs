//! Quickstart: the paper's Listing 3 end to end.
//!
//! Write a tiny WootinJ "application" (a one-point stencil on GPU + MPI),
//! compose it on the Java side, JIT it, and invoke it — then peek at the
//! generated C/CUDA source (the Listing 5 analogue).
//!
//! Run with: `cargo run --release --example quickstart`

use jvm::Value;
use wootinj::{build_table, GpuConfig, JitOptions, MpiCostModel, Val, WootinJ};

const USER_PROGRAM: &str = r#"
    @WootinJ interface Generator { float[] make(int length, int seed); }
    @WootinJ interface Solver { float solve(float self, int index); }

    @WootinJ final class PhysDataGen implements Generator {
      PhysDataGen() { }
      float[] make(int length, int seed) {
        float[] a = new float[length];
        for (int i = 0; i < length; i++) { a[i] = i + seed * 1000; }
        return a;
      }
    }

    @WootinJ final class PhysSolver implements Solver {
      PhysSolver() { }
      float solve(float self, int index) { return self * 0.5f + index; }
    }

    @WootinJ final class StencilOnGpuAndMPI {
      Solver solver;
      Generator generator;
      StencilOnGpuAndMPI(Generator g, Solver s) { generator = g; solver = s; }

      float run(int length, int updateCnt) {
        int rank = MPI.rank();
        float[] array = generator.make(length, rank);
        float[] arrayOnGPU = CUDA.copyToGPU(array);
        CudaConfig conf = new CudaConfig(new dim3((length + 63) / 64, 1, 1),
                                         new dim3(64, 1, 1));
        for (int i = 0; i < updateCnt; i++) {
          runGPU(conf, arrayOnGPU);
        }
        CUDA.copyFromGPU(array, arrayOnGPU);
        float sum = 0f;
        for (int i = 0; i < length; i++) { sum += array[i]; }
        return MPI.allreduceSumF(sum);
      }

      @Global void runGPU(CudaConfig conf, float[] array) {
        int x = CUDA.blockIdxX() * CUDA.blockDimX() + CUDA.threadIdxX();
        if (x < array.length) {
          array[x] = solver.solve(array[x], x);
        }
      }
    }
"#;

fn main() {
    // 1. Compile the library + application sources (prelude included).
    let table = build_table(&[("quickstart.jl", USER_PROGRAM)]).expect("compile");
    let mut env = WootinJ::new(&table).expect("framework env");

    // 2. Compose the application object graph on the "Java" side —
    //    component selection happens here, via plain constructors.
    let generator = env.new_instance("PhysDataGen", &[]).unwrap();
    let solver = env.new_instance("PhysSolver", &[]).unwrap();
    let stencil = env
        .new_instance("StencilOnGpuAndMPI", &[generator, solver])
        .unwrap();

    // 3. JIT-translate `stencil.run(4096, 10)` — the framework reads the
    //    live object graph's exact types, devirtualizes every dispatch,
    //    inlines every object, and emits a flat kernel program.
    let mut code = env
        .jit(
            &stencil,
            "run",
            &[Value::Int(4096), Value::Int(10)],
            JitOptions::wootinj(),
        )
        .expect("jit");
    println!("translated in {:?}", code.compile_time);
    let stats = &code.translated.stats;
    println!(
        "stats: {} specializations, {} devirtualized calls, {} kernels",
        stats.specializations, stats.devirtualized_calls, stats.kernels
    );

    // 4. Configure the platform (4 MPI ranks, one GPU each) and invoke.
    code.set_mpi(4, MpiCostModel::default());
    code.set_gpu(GpuConfig::default());
    let report = code.invoke(&env).expect("invoke");
    match report.result {
        Some(Val::F32(v)) => println!("global checksum = {v}"),
        other => println!("unexpected result {other:?}"),
    }
    println!(
        "virtual completion time: {} cycles ({} total executed)",
        report.vtime_cycles, report.total_cycles
    );
    for (r, pr) in report.per_rank.iter().enumerate() {
        println!(
            "  rank {r}: vclock={} compute={} comm+gpu={}",
            pr.vclock, pr.compute_cycles, pr.comm_cycles
        );
    }

    // 5. The generated "C/CUDA" source, like the paper's Listing 5.
    let src = code.c_source();
    println!("\n--- generated source (first 40 lines) ---");
    for line in src.lines().take(40) {
        println!("{line}");
    }
}

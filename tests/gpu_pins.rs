//! End-to-end pins of the simulated GPU: WootinJ-translated kernels run
//! through `JitCode::invoke` with the WootinJ preset, and their result
//! bits and every cycle count they report must not move. A change to how
//! `gpu-sim` runs kernel threads, or to how `exec` answers their
//! coordinate reads, that changed virtual time would show here first.

use hpclib::{MatmulApp, MatmulBody, MatmulCalc, MatmulThread, StencilApp, StencilPlatform};
use jvm::Value;
use wootinj::{GpuConfig, JitOptions, RunReport, Val, WootinJ};

/// `(result bits, vtime_cycles, total_cycles, gpu_time)` of one invoke.
fn observed(report: &RunReport) -> (u32, u64, u64, u64) {
    let Some(Val::F32(v)) = report.result else {
        panic!("expected an f32 result, got {:?}", report.result);
    };
    (
        v.to_bits(),
        report.vtime_cycles,
        report.total_cycles,
        report.per_rank[0].gpu_time,
    )
}

/// The `stencil-gpu` benchmark's problem: 24³ diffusion, 4 steps, one
/// 13,824-thread launch per step.
#[test]
fn gpu_stencil_is_pinned() {
    let table = hpclib::stencil_table(&[]).unwrap();
    let mut env = WootinJ::new(&table).unwrap();
    let runner =
        StencilApp::compose(&mut env, StencilPlatform::Gpu, StencilApp::default_model()).unwrap();
    let args = [24, 24, 24, 4].map(Value::Int);
    let mut code = env
        .jit(&runner, "invoke", &args, JitOptions::wootinj())
        .unwrap();
    code.set_gpu(GpuConfig::default());
    let report = code.invoke(&env).unwrap();
    assert_eq!(observed(&report), (1170893375, 336748, 277968, 58780));
}

/// Naive and shared-memory-tiled matmul kernels at n = 32; the tiled one
/// allocates `__shared__` tiles and meets `__syncthreads` twice per tile.
#[test]
fn gpu_matmul_kernels_are_pinned() {
    let table = hpclib::matmul_table(&[]).unwrap();
    for (body, want) in [
        (MatmulBody::GpuNaive, (3224109056, 43319, 27300, 16019)),
        (MatmulBody::GpuTiled, (3224109056, 43714, 27300, 16414)),
    ] {
        let mut env = WootinJ::new(&table).unwrap();
        let app =
            MatmulApp::compose(&mut env, MatmulThread::Gpu, body, MatmulCalc::Optimized).unwrap();
        let mut code = env
            .jit(&app, "start", &[Value::Int(32)], JitOptions::wootinj())
            .unwrap();
        code.set_gpu(GpuConfig::default());
        let report = code.invoke(&env).unwrap();
        assert_eq!(observed(&report), want, "{body:?}");
    }
}

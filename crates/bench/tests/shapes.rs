//! Shape tests: the qualitative findings of the paper's evaluation,
//! asserted on small deterministic workloads. If a code change breaks one
//! of these, the corresponding figure no longer reproduces.

use bench::experiments::{run_matmul, run_stencil, Kind, MatTarget};
use hpclib::StencilPlatform;

const DIMS: (i32, i32, i32) = (10, 10, 6);
const STEPS: i32 = 2;

#[test]
fn figure3_ordering_java_cpp_c() {
    let java = run_stencil(Kind::Java, StencilPlatform::Cpu, 1, DIMS, STEPS, true).vtime;
    let cpp = run_stencil(Kind::Cpp, StencilPlatform::Cpu, 1, DIMS, STEPS, true).vtime;
    let c = run_stencil(Kind::C, StencilPlatform::Cpu, 1, DIMS, STEPS, true).vtime;
    assert!(java > cpp, "Java {java} must exceed C++ {cpp}");
    assert!(
        cpp > c * 5,
        "C++ {cpp} must be far above C {c} (paper: >10x)"
    );
}

#[test]
fn figure17_optimized_series_land_between_cpp_and_c() {
    let cpp = run_stencil(Kind::Cpp, StencilPlatform::Cpu, 1, DIMS, STEPS, true).vtime;
    let tmpl = run_stencil(Kind::Template, StencilPlatform::Cpu, 1, DIMS, STEPS, true).vtime;
    let tnv = run_stencil(
        Kind::TemplateNoVirt,
        StencilPlatform::Cpu,
        1,
        DIMS,
        STEPS,
        true,
    )
    .vtime;
    let wj = run_stencil(Kind::WootinJ, StencilPlatform::Cpu, 1, DIMS, STEPS, true).vtime;
    let c = run_stencil(Kind::C, StencilPlatform::Cpu, 1, DIMS, STEPS, true).vtime;
    for (name, v) in [("Template", tmpl), ("TemplateNoVirt", tnv), ("WootinJ", wj)] {
        assert!(v < cpp / 2, "{name} {v} must be well below C++ {cpp}");
        assert!(v >= c, "{name} {v} cannot beat hand-written C {c}");
        assert!(
            v < c * 3,
            "{name} {v} must be within a small factor of C {c}"
        );
    }
    // The paper finds Template w/o virt. ahead of WootinJ on diffusion.
    // Once both inline, as icc does for both, they tie here (EXPERIMENTS,
    // "Known divergences").
    assert!(
        tnv <= wj,
        "Template w/o virt. {tnv} must not trail WootinJ {wj} on diffusion"
    );
    assert!(
        wj * 10 <= c * 13,
        "WootinJ {wj} must be within 1.3x of C {c} on diffusion"
    );
}

#[test]
fn all_series_compute_the_same_checksum() {
    let kinds = [
        Kind::Java,
        Kind::Cpp,
        Kind::Template,
        Kind::TemplateNoVirt,
        Kind::WootinJ,
    ];
    let results: Vec<f32> = kinds
        .iter()
        .map(|&k| run_stencil(k, StencilPlatform::Cpu, 1, DIMS, STEPS, true).result)
        .collect();
    for w in results.windows(2) {
        assert_eq!(w[0], w[1]);
    }
    // The hand-inlined C program computes the same physics (identical
    // float operation order), so it matches exactly too.
    let c = run_stencil(Kind::C, StencilPlatform::Cpu, 1, DIMS, STEPS, true).result;
    assert_eq!(results[0], c);
}

#[test]
fn weak_scaling_is_nearly_flat() {
    // Figure 4's property: doubling ranks with fixed per-rank work adds
    // only communication.
    let per_rank = (8, 8, 4);
    let t1 = run_stencil(
        Kind::WootinJ,
        StencilPlatform::CpuMpi,
        1,
        per_rank,
        2,
        false,
    )
    .vtime;
    let t4 = run_stencil(
        Kind::WootinJ,
        StencilPlatform::CpuMpi,
        4,
        (per_rank.0, per_rank.1, per_rank.2 * 4),
        2,
        false,
    )
    .vtime;
    assert!(
        t4 < t1 * 2,
        "weak scaling 1->4 ranks must stay near flat: {t1} -> {t4}"
    );
    assert!(t4 > t1, "halo exchange must cost something: {t1} -> {t4}");
}

#[test]
fn strong_scaling_speeds_up() {
    // Figure 13's property: fixed global problem, more ranks, less time.
    // 32 planes, not 16: the cost model charges halo exchange and the
    // collective a fixed price while the optimizer keeps making compute
    // cheaper, so at 16 planes the serial share alone (Amdahl) had pulled
    // the speedup under the bar (1.80x before loop cleanup, 1.57x after;
    // 2.43x and 2.18x here).
    let dims = (8, 8, 32);
    let t1 = run_stencil(Kind::WootinJ, StencilPlatform::CpuMpi, 1, dims, 2, false).vtime;
    let t4 = run_stencil(Kind::WootinJ, StencilPlatform::CpuMpi, 4, dims, 2, false).vtime;
    // At this miniature size the halo planes are a large fraction of the
    // slab, so expect a real but sub-ideal speedup.
    assert!(
        (t4 as f64) < t1 as f64 * 0.6,
        "4 ranks must be >1.6x faster: {t1} -> {t4}"
    );
}

#[test]
fn wootinj_tracks_c_once_compile_time_is_excluded() {
    // Figures 13-16's headline: WootinJ within a modest factor of C.
    let dims = (8, 8, 16);
    for ranks in [1u32, 4] {
        let c = run_stencil(Kind::C, StencilPlatform::CpuMpi, ranks, dims, 2, false).vtime;
        let wj = run_stencil(
            Kind::WootinJ,
            StencilPlatform::CpuMpi,
            ranks,
            dims,
            2,
            false,
        )
        .vtime;
        assert!(
            (wj as f64) < c as f64 * 1.5,
            "ranks {ranks}: WootinJ {wj} must be within 50% of C {c}"
        );
    }
}

#[test]
fn gpu_offload_beats_cpu_for_the_same_workload() {
    let dims = (12, 12, 8);
    let cpu = run_stencil(Kind::WootinJ, StencilPlatform::Cpu, 1, dims, 3, false).vtime;
    let gpu = run_stencil(Kind::WootinJ, StencilPlatform::Gpu, 1, dims, 3, false).vtime;
    assert!(
        gpu < cpu,
        "the simulated GPU must accelerate the stencil: {cpu} -> {gpu}"
    );
}

#[test]
fn matmul_series_orderings() {
    let n = 16;
    let java = run_matmul(Kind::Java, MatTarget::Cpu, 1, n).vtime;
    let cpp = run_matmul(Kind::Cpp, MatTarget::Cpu, 1, n).vtime;
    let wj = run_matmul(Kind::WootinJ, MatTarget::Cpu, 1, n).vtime;
    let c = run_matmul(Kind::C, MatTarget::Cpu, 1, n).vtime;
    assert!(
        java > cpp && cpp > wj && wj > c,
        "{java} > {cpp} > {wj} > {c}"
    );
    assert!(
        wj * 10 <= c * 13,
        "WootinJ {wj} must be within 1.3x of C {c} on matmul"
    );
}

#[test]
fn fox_strong_scaling_speeds_up() {
    let n = 24;
    let t1 = run_matmul(Kind::C, MatTarget::Fox, 1, n).vtime;
    let t4 = run_matmul(Kind::C, MatTarget::Fox, 4, n).vtime;
    assert!(t4 < t1, "Fox on 4 ranks must beat 1 rank: {t1} -> {t4}");
}

#[test]
fn compile_cost_is_independent_of_problem_size() {
    // Table 3's property, checked on generated-code size: the translated
    // program is identical for different problem sizes (sizes are runtime
    // scalars, not shapes).
    let small = run_stencil(Kind::WootinJ, StencilPlatform::Cpu, 1, (8, 8, 4), 1, false);
    let large = run_stencil(
        Kind::WootinJ,
        StencilPlatform::Cpu,
        1,
        (16, 16, 12),
        5,
        false,
    );
    assert_eq!(small.instrs, large.instrs);
    assert!(large.vtime > small.vtime * 5);
}

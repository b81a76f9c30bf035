//! The benchmark's fixed plan: workloads, op counts, metric tables, and
//! the few process-level helpers both binaries need.
//!
//! `BENCHMARK.json` at the repo root states the same workloads and
//! metrics for the driver; a unit test below keeps the two in step.

use std::path::PathBuf;
use std::time::Duration;

/// Seed used when none is given (the paper's PPoPP'14 opening day).
pub const DEFAULT_SEED: u64 = 20_140_215;
/// Timed seconds per workload when none are given (`run_seconds`).
pub const DEFAULT_SECONDS: u64 = 14;
/// Child processes per workload per run; their samples are pooled, and
/// `setup_s` is the median of their set-up times.
pub const ROUNDS: u64 = 5;
/// Untimed operations each child runs before its first timed one.
pub const WARMUP_OPS: u64 = 3;
/// A child still running after this long exits by itself; its
/// operations count as failed.
pub const CHILD_WALL_LIMIT: Duration = Duration::from_secs(60);

// Problem sizes: what the workload table in `benchmark/README.md` states.
pub const STENCIL_FLAT_N: i32 = 32;
pub const STENCIL_GPU_N: i32 = 24;
pub const STENCIL_STEPS: i32 = 4;
pub const FOX_N: i32 = 64;
pub const FOX_RANKS: u32 = 4;
pub const FOX_WORKERS: u32 = 2;
pub const COLD_STAGES: usize = 8;
pub const EDIT_STAGES: usize = 24;
pub const RING_N: i32 = 1024;
pub const RING_STEPS: i32 = 48;
pub const RING_RANKS: u32 = 4;
pub const RING_CRASH_RATE: f64 = 0.01;
pub const RING_REBASE_EVERY: u32 = 8;
pub const RING_MAX_RESTARTS: u32 = 64;
pub const RING_TIMEOUT_ROUNDS: u64 = 50_000;
pub const SVC_WORKERS: usize = 2;
pub const SVC_QUEUE: usize = 8;
pub const SVC_TENANTS: [&str; 2] = ["acme", "globex"];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// What one operation costs on the 2-core host this was sized on;
    /// it only converts seconds into a fixed operation count.
    pub nominal_op_ms: f64,
    /// Closed-loop client connections (1 = the calling thread).
    pub clients: u64,
}

impl Workload {
    /// Timed operations per client per child for a run of `seconds`.
    /// Counts, not a time box, so that exact counters repeat.
    pub fn ops_per_round(&self, seconds: u64) -> u64 {
        let total = seconds as f64 * 1e3 / self.nominal_op_ms;
        ((total / ROUNDS as f64).round() as u64).max(1)
    }
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "stencil-flat",
        why: "one long exec::run slice does >95% of the op; front end, caches and scheduler do none, so exec-core work lands here",
        nominal_op_ms: 66.0,
        clients: 1,
    },
    Workload {
        name: "stencil-gpu",
        why: "same exec layer used as tens of thousands of short threads under gpu-sim; a per-run or per-thread set-up cost shows here",
        nominal_op_ms: 56.0,
        clients: 1,
    },
    Workload {
        name: "fox-ranks",
        why: "mpi-sim rounds, exec::pool batches on 2 replay threads and collectives between short slices; pool and threads work is judged here",
        nominal_op_ms: 47.0,
        clients: 1,
    },
    Workload {
        name: "compile-cold",
        why: "source text to result with every cache empty: jlang, jrules, translator, nir, artifact encode and disk insert; exec does <1%",
        nominal_op_ms: 55.0,
        clients: 1,
    },
    Workload {
        name: "edit-rejit",
        why: "seeded edits to one of 24 files then re-jit: querydb revalidation and early cutoff dominate; contrasts with compile-cold",
        nominal_op_ms: 30.0,
        clients: 1,
    },
    Workload {
        name: "ckpt-ring",
        why: "4 sim ranks, a checkpoint per collective and seeded crashes: snapshot capture, delta chains and restore are most of the op",
        nominal_op_ms: 65.0,
        clients: 1,
    },
    Workload {
        name: "service-mix",
        why: "2 closed-loop clients against an in-process jitd, 98% resident keys: per-request compile, key, disk read and decode, framing",
        nominal_op_ms: 3.0,
        clients: 2,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` is `new` worse (negative = better)?
    pub fn worse_by(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees, per workload.
pub const END_TO_END: [Metric; 5] = [
    Metric {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    Metric {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    Metric {
        name: "vcycles_per_op",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.01,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    Metric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Errors, sheds, timeouts and wrong results over operations attempted.
/// Reported and compared beside [`END_TO_END`], held absolutely (its base
/// is 0), but not in `BENCHMARK.json`: the driver's result object already
/// carries `attempted` and `failed`.
pub const FAIL_SHARE: Metric = Metric {
    name: "fail_share",
    unit: "ratio",
    better: Better::Lower,
    bound: 0.0,
};

/// Every metric `wjbench` prints: [`END_TO_END`], then [`FAIL_SHARE`].
pub fn reported() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().chain([&FAIL_SHARE])
}

/// Single-layer metrics of the traced run: `(name, unit, better)`.
/// Layers are crates. A metric reads 0 on a workload whose operation
/// never enters that layer's probe.
pub const PER_LAYER: [(&str, &str, Better); 84] = {
    use Better::{Higher as H, Lower as L};
    [
        ("coverage", "ratio", H),
        ("jlang.parse_ms", "ms", L),
        ("jlang.table_ms", "ms", L),
        ("jlang.typeck_ms", "ms", L),
        ("jlang.src_bytes", "bytes", L),
        ("jlang.kb_per_s", "KB/s", H),
        ("jrules.check_ms", "ms", L),
        ("jvm.compose_us", "us", L),
        ("jvm.oracle_ms", "ms", L),
        ("jvm.ns_per_step", "ns", L),
        ("querydb.edit_ms", "ms", L),
        ("querydb.translate_ms", "ms", L),
        ("querydb.executed_per_op", "count", L),
        ("querydb.reused_per_op", "count", H),
        ("querydb.early_cutoffs_per_op", "count", H),
        ("querydb.reuse_ratio", "ratio", H),
        ("translator.entry_spec_us", "us", L),
        ("translator.translate_ms", "ms", L),
        ("translator.self_ms", "ms", L),
        ("translator.specializations", "count", L),
        ("translator.devirtualized_calls", "count", H),
        ("translator.encode_ms", "ms", L),
        ("translator.decode_ms", "ms", L),
        ("translator.decode_mb_per_s", "MB/s", H),
        ("translator.artifact_bytes", "bytes", L),
        ("translator.bind_args_us", "us", L),
        ("nir.optimize_ms", "ms", L),
        ("nir.pass.inline_us", "us", L),
        ("nir.pass.fold_us", "us", L),
        ("nir.pass.dce_us", "us", L),
        ("nir.pass.sroa_us", "us", L),
        ("nir.instrs_before", "count", L),
        ("nir.instrs_after", "count", L),
        ("nir.shrink_ratio", "ratio", L),
        ("exec.ns_per_instr", "ns", L),
        ("exec.instrs_per_op", "count", L),
        ("exec.ns_per_instr_virtual", "ns", L),
        ("exec.slowdown_vs_native", "ratio", L),
        ("exec.snapshot_ms", "ms", L),
        ("exec.restore_ms", "ms", L),
        ("exec.snapshot_bytes", "bytes", L),
        ("exec.chain_push_ms", "ms", L),
        ("exec.chain_resolve_ms", "ms", L),
        ("exec.delta_ratio", "ratio", L),
        ("exec.pool_map_us", "us", L),
        ("gpu-sim.us_per_thread", "us", L),
        ("gpu-sim.threads_per_op", "count", L),
        ("gpu-sim.wall_x_vs_cpu", "ratio", L),
        ("mpi-sim.allreduce_us", "us", L),
        ("mpi-sim.sendrecv_us", "us", L),
        ("mpi-sim.frame_mem_us", "us", L),
        ("mpi-sim.frame_tcp_us", "us", L),
        ("mpi-sim.restarts_per_op", "count", L),
        ("mpi-sim.ckpts_per_op", "count", L),
        ("mpi-sim.rebases_per_op", "count", L),
        ("mpi-sim.ckpt_bytes_per_op", "bytes", L),
        ("mpi-sim.ckpt_share", "ratio", L),
        ("dist.setup_ms", "ms", L),
        ("dist.ring_ms", "ms", L),
        ("dist.overhead_x", "ratio", L),
        ("dist.proto_rt_us", "us", L),
        ("jitd.req_ms_p99", "ms", L),
        ("jitd.compile_us_p50", "us", L),
        ("jitd.run_us_p50", "us", L),
        ("jitd.wire_queue_us_p50", "us", L),
        ("jitd.translations", "count", L),
        ("jitd.warm_hits", "count", H),
        ("jitd.follower_serves", "count", H),
        ("jitd.sheds", "count", L),
        ("jitd.request_errors", "count", L),
        ("jitd.proto_rt_us", "us", L),
        ("platform.run_overhead_interp_us", "us", L),
        ("platform.run_overhead_mpi4_us", "us", L),
        ("platform.run_overhead_gpu_us", "us", L),
        ("wootinj.jit_cold_ms", "ms", L),
        ("wootinj.jit_hit_us", "us", L),
        ("wootinj.disk_hit_ms", "ms", L),
        ("wootinj.disk_insert_ms", "ms", L),
        ("wootinj.cache_key_us", "us", L),
        ("wootinj.invoke_overhead_us", "us", L),
        ("wootinj.translations_per_op", "count", L),
        ("wootinj.hit_ratio", "ratio", H),
        ("wootinj.op_ms_p90", "ms", L),
        ("baselines.matmul_native_ms", "ms", L),
    ]
};

// ---------------------------------------------------------------------
// process helpers
// ---------------------------------------------------------------------

/// `benchmark/out/`: run files, trace files and scratch directories. The
/// path is fixed at build time, so the benchmark writes inside its own
/// checkout whatever the working directory is.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory of this process under [`out_dir`], created empty
/// and removed again when the value is dropped, on error paths too.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let dir = out_dir().join(format!("tmp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory under out/ harms nothing.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The value following `--name` in an argument list.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// `--name <u64>`, or `default` when the flag is absent.
pub fn flag_u64(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} wants a whole number, got `{v}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn op_counts_scale_with_seconds_and_give_a_tail() {
        for w in &WORKLOADS {
            let per_child = w.ops_per_round(DEFAULT_SECONDS);
            // Linear in the seconds asked for, up to rounding.
            assert!(
                w.ops_per_round(2 * DEFAULT_SECONDS).abs_diff(2 * per_child) <= 1,
                "{}",
                w.name
            );
            // >= 110 pooled samples, so p90 has >= 10 beyond it.
            assert!(per_child * ROUNDS * w.clients >= 110, "{}", w.name);
        }
    }

    #[test]
    fn benchmark_json_states_the_same_plan() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(json::Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.0));
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS as f64)
        );
        for (m, j) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").unwrap().as_arr().unwrap())
        {
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(j.get("better").unwrap().as_str(), Some(m.better.as_str()));
            assert_eq!(j.get("bound").unwrap().as_f64(), Some(m.bound));
        }
        for (m, j) in PER_LAYER
            .iter()
            .zip(doc.get("per_layer").unwrap().as_arr().unwrap())
        {
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.1));
            assert_eq!(j.get("better").unwrap().as_str(), Some(m.2.as_str()));
        }
        for (w, j) in WORKLOADS
            .iter()
            .zip(doc.get("workloads").unwrap().as_arr().unwrap())
        {
            assert_eq!(j.get("why").unwrap().as_str(), Some(w.why));
            assert!(w.why.len() <= 200);
        }
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((Better::Lower.worse_by(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((Better::Higher.worse_by(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(Better::Lower.worse_by(100.0, 90.0) < 0.0);
    }

    #[test]
    fn flags_parse() {
        let args: Vec<String> = ["--seed", "7", "--trace", "x"].map(String::from).to_vec();
        assert_eq!(flag_u64(&args, "--seed", 1), Ok(7));
        assert_eq!(flag_u64(&args, "--seconds", 10), Ok(10));
        assert!(flag_u64(&args, "--trace", 0).is_err());
    }
}

//! Re-JIT latency after source churn: cold builds against the query
//! database's incremental rebuilds.

use std::time::Duration;

use jvm::Value;
use wootinj::JitOptions;

use crate::series::{Figure, Series};

/// One `Stage{i}` class for the incremental-churn workload: a heavy
/// straight-line float body so per-body typeck + lowering cost is
/// visible. `salt` perturbs one literal (a "value edit"); `extra_stmt`
/// adds a statement (a "body edit"); `extra_method` adds a method (a
/// "signature edit" — the item tree changes, the body does not).
pub(super) fn incr_stage(i: usize, salt: u64, extra_stmt: bool, extra_method: bool) -> String {
    let mut body = format!("    float a = x * {}.{}f + k;\n", 1 + i % 3, salt % 10);
    for j in 0..192 {
        body.push_str(&format!(
            "    a = a * 1.000{}f + {}f + x * 0.{}f;\n",
            1 + j % 4,
            (i * 31 + j * 7) % 13,
            1 + (i + j) % 9,
        ));
    }
    if extra_stmt {
        body.push_str("    a = a + a * 0.125f;\n");
    }
    let method = if extra_method {
        format!("  float probe{salt}(float x) {{ return x; }}\n")
    } else {
        String::new()
    };
    format!(
        "@WootinJ final class Stage{i} {{\n  float k;\n  Stage{i}(float k0) {{ k = k0; }}\n\
         {method}  float f(float x) {{\n{body}    return a;\n  }}\n}}\n"
    )
}

/// The `App` entry summing every stage over the data array through
/// `mix`, which returns `blend` and is small enough to be spliced into
/// `run`.
fn incr_app(k: usize, blend: &str) -> String {
    let fields: String = (0..k).map(|i| format!("  Stage{i} s{i};\n")).collect();
    let params: Vec<String> = (0..k).map(|i| format!("Stage{i} a{i}")).collect();
    let inits: String = (0..k).map(|i| format!("    s{i} = a{i};\n")).collect();
    let calls: String = (0..k)
        .map(|i| format!("      acc = mix(acc, s{i}.f(x));\n"))
        .collect();
    format!(
        "@WootinJ final class App {{\n{fields}  App({}) {{\n{inits}  }}\n\
         \x20 float mix(float acc, float v) {{ return {blend}; }}\n\
         \x20 float run(float[] data) {{\n    float acc = 0f;\n\
         \x20   for (int i = 0; i < data.length; i++) {{\n      float x = data[i];\n\
         {calls}    }}\n    return acc;\n  }}\n}}\n",
        params.join(", "),
    )
}

/// The full source set: `k` stage files plus [`incr_app`].
pub(super) fn incr_sources(k: usize) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = (0..k)
        .map(|i| (format!("stage{i}.jl"), incr_stage(i, 0, false, false)))
        .collect();
    files.push(("app.jl".into(), incr_app(k, "acc + v")));
    files
}

/// The `incremental` experiment: re-JIT latency after source churn,
/// cold vs incremental (ISSUE 6). A `Workspace` holds the memoized
/// query database; each probe edits one of `k` stage classes and
/// re-JITs through a fresh env (so the memory code-cache never helps —
/// the measured win is pure query reuse). Four churn kinds: value edit
/// (one literal), body edit (one statement added), signature edit (one
/// method added — invalidates callers), new class (trailing file).
///
/// Asserted here (and therefore by `scripts/check.sh`, which runs the
/// quick variant): the incremental body edit executes strictly fewer
/// queries than a cold build, the incremental artifact is bit-identical
/// to a from-scratch build of the same sources, and the median body-edit
/// re-JIT is ≥6× faster than cold. Both sides of that ratio leave out
/// the NIR optimizer's wall time (`TransStats::passes`): a cold build
/// optimizes every function and an edit only the re-lowered ones, so with
/// it in, the ratio tracks how fast the optimizer is rather than how much
/// front-end and lowering work the query memos save. The quick variant
/// measures 8–10× on a 2-core host; a re-JIT path twice as slow fails.
///
/// Also asserted, as a count: after a body edit, the only method and
/// constructor bodies of the new table that are new allocations are the
/// ones the edit re-checked — every other one is the previous revision's
/// (DESIGN §19, "bodies are shared, skeletons are owned"). What the
/// rebuild inside each body edit cost is printed lap by lap
/// (`querydb::RebuildLaps`).
pub(super) fn incremental(quick: bool) -> Figure {
    use wootinj::Workspace;

    let k = if quick { 24 } else { 40 };
    // Seven probes a side in both variants: each is a few milliseconds, and
    // a median of three does not outlast one burst of host noise.
    let probes = 7;
    let mut files = incr_sources(k);

    let build = |files: &[(String, String)]| -> Workspace {
        let mut ws = Workspace::new();
        for (name, text) in files {
            ws.set_source(name, text)
                .unwrap_or_else(|d| panic!("incremental: workload does not compile: {d:?}"));
        }
        ws
    };
    // JIT `App.run(data)` through a fresh env; returns the translated
    // program so callers can assert bit-identity (encoding happens
    // outside the timed regions — it is not part of re-JIT latency).
    let jit = |ws: &Workspace| -> std::sync::Arc<translator::Translated> {
        let mut env = ws.env().unwrap();
        let stages: Vec<Value> = (0..k)
            .map(|i| {
                env.new_instance(&format!("Stage{i}"), &[Value::Float(i as f32)])
                    .unwrap()
            })
            .collect();
        let app = env.new_instance("App", &stages).unwrap();
        let data = env.new_f32_array(&[0.5, 1.0, 1.5, 2.0]);
        let code = env
            .jit(&app, "run", &[data], JitOptions::wootinj())
            .unwrap();
        std::sync::Arc::clone(&code.translated)
    };
    let upsert = |files: &mut Vec<(String, String)>, name: &str, text: String| match files
        .iter_mut()
        .find(|(n, _)| n == name)
    {
        Some((_, t)) => *t = text,
        None => files.push((name.to_string(), text)),
    };
    // A build's wall time less what its optimizer passes took (they run
    // serially under `JitOptions::wootinj()`, so the sum is wall time).
    let sans_opt = |wall: Duration, t: &translator::Translated| -> Duration {
        wall.saturating_sub(t.stats.passes.iter().map(|p| p.wall).sum())
    };
    let median = |mut walls: Vec<Duration>| -> Duration {
        walls.sort();
        walls[walls.len() / 2]
    };

    // Cold baseline: median full build (parse + typeck + lower every
    // body) across fresh workspaces, and its executed-query count.
    let mut cold_walls: Vec<Duration> = Vec::new();
    let mut cold_sans_opt: Vec<Duration> = Vec::new();
    for _ in 0..probes {
        let t0 = std::time::Instant::now();
        let ws = build(&files);
        let program = jit(&ws);
        let wall = t0.elapsed();
        cold_walls.push(wall);
        cold_sans_opt.push(sans_opt(wall, &program));
    }
    cold_walls.sort();
    let cold_wall = cold_walls[cold_walls.len() / 2];
    let cold_sans_opt = median(cold_sans_opt);
    let cold_ws = build(&files);
    std::hint::black_box(jit(&cold_ws));
    let cold_executed = cold_ws.query_stats().executed();
    drop(cold_ws);

    // The persistent workspace every incremental probe edits.
    let mut ws = build(&files);
    std::hint::black_box(jit(&ws));

    let mut fig = Figure::new(
        "incremental",
        "incremental re-JIT latency after source churn (cold vs query reuse)",
        "probe index",
        "re-JIT wall time (ms)",
    );
    fig.note(format!(
        "{k} stage classes + App entry; every re-JIT goes through a fresh env, so the \
         memory code-cache never hits — the speedup is pure query-memo reuse"
    ));
    fig.note(
        "asserted: body-edit executes strictly fewer queries than cold, incremental \
         artifact is bit-identical to from-scratch, median body-edit speedup >= 6x \
         with optimizer time left out of both sides",
    );

    let mut cold_series = Series::new("cold-ms");
    for (n, w) in cold_walls.iter().enumerate() {
        cold_series.push(n as f64, w.as_secs_f64() * 1e3);
    }
    fig.series.push(cold_series);

    // One churn series per edit kind. Each probe edits a different
    // stage class (spread over the program) with a per-probe salt so
    // no two probes produce identical text.
    type EditFn = Box<dyn Fn(usize, u64) -> (String, String)>;
    let kinds: [(&str, EditFn); 4] = [
        (
            "value-edit-ms",
            Box::new(|i, salt| (format!("stage{i}.jl"), incr_stage(i, salt, false, false))),
        ),
        (
            "body-edit-ms",
            Box::new(|i, salt| (format!("stage{i}.jl"), incr_stage(i, salt, true, false))),
        ),
        (
            "signature-edit-ms",
            Box::new(|i, salt| (format!("stage{i}.jl"), incr_stage(i, salt, false, true))),
        ),
        (
            "new-class-ms",
            Box::new(|_, salt| {
                (
                    format!("extra{salt}.jl"),
                    format!(
                        "@WootinJ final class Extra{salt} {{ Extra{salt}() {{ }} \
                         float e(float x) {{ return x + {salt}f; }} }}\n"
                    ),
                )
            }),
        ),
    ];

    let mut body_edit_walls: Vec<Duration> = Vec::new();
    let mut body_edit_sans_opt: Vec<Duration> = Vec::new();
    let mut body_edit_executed: Vec<u64> = Vec::new();
    let mut body_edit_laps: Vec<wootinj::RebuildLaps> = Vec::new();
    let mut blocks = (0, 0); // in the table, of which new allocations
    let mut funcs = (0, 0); // in the program, of which new allocations
    let mut body_edit_artifacts = Vec::new(); // with the sources they came from
    for (kind_idx, (name, make)) in kinds.iter().enumerate() {
        let mut series = Series::new(*name);
        let body_edit = *name == "body-edit-ms";
        // The body edits end with one of `App.mix`, a callee spliced into
        // `run`: the memo of `run` holds its old body and must not replay.
        for n in 0..probes + usize::from(body_edit) {
            let salt = (kind_idx * probes + n + 1) as u64;
            let (file, text) = if n == probes {
                ("app.jl".to_string(), incr_app(k, "acc + v * 0.5f"))
            } else {
                make(1 + (n * 5) % k, salt)
            };
            upsert(&mut files, &file, text.clone());
            let before = ws.query_stats();
            let laps_before = ws.rebuild_laps();
            // This revision's bodies, held across the edit.
            let (held, held_funcs) = if body_edit {
                (ws.db().typed_blocks(), ws.db().lowered_functions())
            } else {
                (Vec::new(), Vec::new())
            };
            let t0 = std::time::Instant::now();
            ws.edit(&file, &text)
                .or_else(|_| ws.set_source(&file, &text))
                .unwrap();
            let program = jit(&ws);
            let wall = t0.elapsed();
            series.push(n as f64, wall.as_secs_f64() * 1e3);
            if body_edit {
                body_edit_walls.push(wall);
                body_edit_sans_opt.push(sans_opt(wall, &program));
                let delta = ws.query_stats().since(&before);
                body_edit_executed.push(delta.executed());
                body_edit_laps.push(ws.rebuild_laps().since(&laps_before));
                let now = ws.db().typed_blocks();
                let fresh = (now.iter())
                    .filter(|(bid, body)| {
                        !(held.iter()).any(|(b, old)| b == bid && std::sync::Arc::ptr_eq(body, old))
                    })
                    .count();
                assert_eq!(
                    fresh as u64,
                    delta.typeck_executed,
                    "incremental: body edit {n} re-checked {} bodies but {fresh} of the new \
                     table's {} are new allocations — an unchanged body was copied",
                    delta.typeck_executed,
                    now.len()
                );
                blocks = (now.len(), fresh);
                // Likewise a replayed NIR function is the memo's, by pointer.
                let fresh_funcs = (program.program.funcs.iter())
                    .filter(|f| !held_funcs.iter().any(|h| std::sync::Arc::ptr_eq(f, h)))
                    .count();
                assert_eq!(
                    fresh_funcs as u64,
                    delta.lower_executed,
                    "incremental: body edit {n} lowered {} functions but {fresh_funcs} of the \
                     program's {} are new allocations — a replayed function was copied",
                    delta.lower_executed,
                    program.program.funcs.len()
                );
                funcs = (program.program.funcs.len(), fresh_funcs);
                let run = &program.program.funcs[program.entry.0 as usize];
                let calls = (run.code.iter())
                    .filter(|i| matches!(i, nir::Instr::Call { .. }))
                    .count();
                assert_eq!(calls, k, "incremental: `App.mix` is not spliced into `run`");
                body_edit_artifacts.push((files.clone(), program.encode()));
            } else {
                std::hint::black_box(program);
            }
        }
        fig.series.push(series);
    }
    // Determinism contract: bit-identical to from-scratch. Checked once
    // the probes are done, against the bytes and not a kept program: a
    // probe whose predecessor's program is still alive (or that follows a
    // scratch build) lowers into memory the process has not touched yet,
    // and times the page faults — a third on top of the same work in the
    // value-edit series, which frees each program before the next probe.
    for (n, (files, artifact)) in body_edit_artifacts.iter().enumerate() {
        assert_eq!(
            *artifact,
            jit(&build(files)).encode(),
            "incremental: artifact diverged from from-scratch after body edit {n}"
        );
    }

    let body_wall = median(body_edit_walls);
    let body_sans_opt = median(body_edit_sans_opt);
    let speedup = cold_sans_opt.as_secs_f64() / body_sans_opt.as_secs_f64();
    let mut sp = Series::new("body-edit-speedup");
    sp.push(0.0, speedup);
    fig.series.push(sp);
    let mut qx = Series::new("queries-executed");
    qx.push(0.0, cold_executed as f64);
    qx.push(1.0, *body_edit_executed.iter().max().unwrap() as f64);
    fig.series.push(qx);
    fig.note(format!(
        "cold {:?} vs median body-edit re-JIT {:?}; without optimizer time {:?} vs {:?} \
         ({speedup:.1}x); queries executed cold {} vs body-edit max {}",
        cold_wall,
        body_wall,
        cold_sans_opt,
        body_sans_opt,
        cold_executed,
        body_edit_executed.iter().max().unwrap(),
    ));

    // What the rebuild inside a body edit cost, lap by lap.
    type Lap = (&'static str, fn(&wootinj::RebuildLaps) -> u64);
    let laps: [Lap; 7] = [
        ("parse", |l| l.parse_ns),
        ("item tree", |l| l.item_tree_ns),
        ("unit hand-over", |l| l.hand_over_ns),
        ("table::build", |l| l.table_build_ns),
        ("typeck loop", |l| l.typeck_ns),
        ("write-back", |l| l.write_back_ns),
        ("install", |l| l.install_ns),
    ];
    let mut lap_series = Series::new("rebuild-lap-us");
    let mut lap_note = Vec::new();
    let mut lap_sum = 0.0;
    for (i, (name, get)) in laps.iter().enumerate() {
        let ns = median(
            (body_edit_laps.iter())
                .map(|l| Duration::from_nanos(get(l)))
                .collect(),
        );
        let us = ns.as_secs_f64() * 1e6;
        lap_series.push(i as f64, us);
        lap_note.push(format!("{name} {us:.0}"));
        lap_sum += us;
    }
    fig.series.push(lap_series);
    fig.note(format!(
        "Database::rebuild per body edit, median of {} (us): {}; sum {lap_sum:.0}",
        body_edit_laps.len(),
        lap_note.join(" | "),
    ));
    fig.note(format!(
        "asserted: of the table's {} method and constructor bodies, a body edit allocates {} \
         (the ones it re-checks); the rest are the previous revision's allocations",
        blocks.0, blocks.1
    ));
    fig.note(format!(
        "asserted: of the program's {} NIR functions, a body edit allocates {} (the ones it \
         lowers); the rest are the lower_fn memos' allocations",
        funcs.0, funcs.1
    ));

    for &executed in &body_edit_executed {
        assert!(
            executed < cold_executed,
            "incremental: body edit executed {executed} queries, cold {cold_executed} — \
             incremental must do strictly less work"
        );
    }
    assert!(
        speedup >= 6.0,
        "incremental: median body-edit re-JIT must be >= 6x faster than cold, optimizer \
         time aside: cold {cold_sans_opt:?}, incremental {body_sans_opt:?} ({speedup:.1}x)"
    );
    fig
}

//! Exact query counts of the incremental pipeline on the prelude plus
//! `pipeline8.jl` (eight 200-line stage classes and an `App` that calls
//! them): a cold build and three kinds of edit, each followed by a
//! re-JIT of `App.run`. A front-end change that keeps every typed body
//! and its early-cutoff decision must leave every count alone.

use jvm::Value;
use wootinj::{JitOptions, QueryStats, Workspace};

const PIPELINE8: &str = include_str!("../../translator/tests/fixtures/pipeline8.jl");

/// `PIPELINE8` with `edit` applied to `Stage3`'s text only.
fn edit_stage3(edit: impl Fn(&str) -> String) -> String {
    let start = PIPELINE8.find("@WootinJ final class Stage3").unwrap();
    let end = PIPELINE8.find("@WootinJ final class Stage4").unwrap();
    let edited = edit(&PIPELINE8[start..end]);
    assert_ne!(
        edited,
        PIPELINE8[start..end],
        "the edit must change the text"
    );
    format!("{}{edited}{}", &PIPELINE8[..start], &PIPELINE8[end..])
}

/// JIT `App.run` at the workspace's current revision.
fn jit(ws: &Workspace) {
    let mut env = ws.env().unwrap();
    let stages: Vec<Value> = (0..8)
        .map(|i| {
            env.new_instance(&format!("Stage{i}"), &[Value::Float(i as f32)])
                .unwrap()
        })
        .collect();
    let app = env.new_instance("App", &stages).unwrap();
    let data = env.new_f32_array(&[0.5, 1.0, 1.5, 2.0]);
    env.jit(&app, "run", &[data], JitOptions::wootinj())
        .unwrap();
}

/// `(executed, typeck_executed, early_cutoffs, lower_executed)`.
type Counts = (u64, u64, u64, u64);

fn counts(s: &QueryStats) -> Counts {
    (
        s.executed(),
        s.typeck_executed,
        s.early_cutoffs,
        s.lower_executed,
    )
}

/// The counts of a cold build, then of `edited` as an edit of it.
fn cold_then(edited: &str) -> (Counts, Counts) {
    let mut ws = Workspace::new();
    ws.set_source("pipeline8.jl", PIPELINE8).unwrap();
    jit(&ws);
    let cold = ws.query_stats();
    ws.edit("pipeline8.jl", edited).unwrap();
    jit(&ws);
    (counts(&cold), counts(&ws.query_stats().since(&cold)))
}

/// A cold build: two parses, 24 bodies checked (the prelude has none),
/// one rules check, nine functions lowered for `App.run`, one translate.
const COLD: Counts = (37, 24, 0, 9);

/// A changed literal: its file re-parses, its body re-checks, the rules
/// re-run, its function re-lowers and the program re-translates.
#[test]
fn a_body_edit_rechecks_and_relowers_its_body() {
    let (cold, edit) = cold_then(&edit_stage3(|s| s.replace("x * 1.0f + k", "x * 1.5f + k")));
    assert_eq!(cold, COLD);
    assert_eq!(edit, (5, 1, 0, 1));
}

/// Slots, not names, reach the typed body: the body re-checks to the same
/// typed body, an early cutoff, and no function re-lowers.
#[test]
fn a_renamed_local_cuts_off_at_its_typed_body() {
    let (cold, edit) = cold_then(&edit_stage3(|s| {
        s.replace("a = a", "b = b")
            .replace("float a =", "float b =")
            .replace("return a;", "return b;")
    }));
    assert_eq!(cold, COLD);
    assert_eq!(edit, (4, 1, 1, 0));
}

/// The re-parsed file hashes the same: it cuts off (the one early cutoff)
/// before any body re-checks.
#[test]
fn a_whitespace_edit_rechecks_nothing() {
    let (cold, edit) = cold_then(&edit_stage3(|s| {
        s.replace("float a =", "float   a\n      =")
    }));
    assert_eq!(cold, COLD);
    assert_eq!(edit, (2, 0, 1, 0));
}

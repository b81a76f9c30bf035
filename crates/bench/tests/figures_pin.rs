//! Pins the JSON of every experiment whose output is deterministic
//! ([`bench::PINNED`]): `BENCH_figures.json` at the repository root holds
//! `Figure::to_json()` of `run_experiment_with(id, true)` for each, keyed
//! by id, one point per line (`repro figures --write` writes it). A
//! refactor of the harness must reproduce every entry byte for byte.
//!
//! On a mismatch the test prints each line of the entry that differs, so
//! the failure names the point that moved; a change that is meant to move
//! a figure rewrites the file with `repro figures --write` and commits it
//! on its own, saying why.

const FILE: &str = include_str!("../../../BENCH_figures.json");

/// The JSON of `id`'s entry in the file: from the value's opening brace
/// to its closing one, the only `}` at the start of a line inside it.
fn entry(id: &str) -> Option<&'static str> {
    let key = format!("\n\"{id}\": ");
    let start = FILE.find(&key)? + key.len();
    let len = FILE[start..].find("\n}")? + 2;
    Some(&FILE[start..start + len])
}

/// Runs each experiment and compares its JSON with the file's entry.
fn check(ids: &[&str]) {
    let mut failed = Vec::new();
    for &id in ids {
        let fig = bench::run_experiment_with(id, true)
            .unwrap_or_else(|| panic!("`{id}` is not an experiment"));
        let json = fig.to_json();
        let got = json.trim_end_matches('\n');
        let Some(want) = entry(id) else {
            eprintln!("== {id}: no entry in BENCH_figures.json; its JSON:\n{json}");
            failed.push(id);
            continue;
        };
        if want == got {
            continue;
        }
        eprintln!("== {id}: differs from BENCH_figures.json");
        let (w, g): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
        for i in 0..w.len().max(g.len()) {
            let (a, b) = (w.get(i), g.get(i));
            if a != b {
                eprintln!("   line {}: file {a:?}, got {b:?}", i + 1);
            }
        }
        failed.push(id);
    }
    assert!(failed.is_empty(), "figures moved: {failed:?}");
}

/// The pinned ids in four groups, one test each so they run in parallel.
const GROUPS: [&[&str]; 4] = [
    &["fig3", "fig17", "fig18"],
    &[
        "fig4", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
        "fig15", "fig16",
    ],
    &[
        "tab1",
        "tab2",
        "ablate-devirt",
        "ablate-inline",
        "ablate-comm",
        "ablate-gpu",
        "ext-reduce",
    ],
    &["fault-matrix", "restart-cost", "chaos", "backend-matrix"],
];

#[test]
fn serial_figures_are_pinned() {
    check(GROUPS[0]);
}

#[test]
fn scaling_figures_are_pinned() {
    check(GROUPS[1]);
}

#[test]
fn tables_ablations_and_extension_are_pinned() {
    check(GROUPS[2]);
}

#[test]
fn robustness_gates_are_pinned() {
    check(GROUPS[3]);
}

/// The file is exactly [`bench::figures_json`]'s layout over
/// [`bench::PINNED`]: one entry per pinned experiment, in order, and
/// nothing else; and the four tests above check every pinned id.
#[test]
fn the_file_has_one_entry_per_pinned_experiment() {
    assert_eq!(bench::PINNED.len(), 26, "{:?}", bench::PINNED);
    let mut grouped: Vec<&str> = GROUPS.concat();
    let mut pinned = bench::PINNED.to_vec();
    grouped.sort();
    pinned.sort();
    assert_eq!(grouped, pinned, "the test groups are not the pinned ids");
    let entries: Vec<String> = bench::PINNED
        .iter()
        .map(|id| {
            assert!(
                bench::EXPERIMENTS.iter().any(|(name, _)| name == id),
                "`{id}` is pinned but not an experiment"
            );
            let json = entry(id).unwrap_or_else(|| panic!("no entry for `{id}`"));
            bench::pin_entry(id, json)
        })
        .collect();
    assert_eq!(
        FILE,
        bench::pin_file(&entries),
        "BENCH_figures.json holds more than one entry per pinned experiment"
    );
}

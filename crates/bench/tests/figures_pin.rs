//! Pins the JSON of every experiment whose output is deterministic: each
//! line of `fixtures/figures_pin.txt` is `id length fnv64`, the length and
//! FNV-1a digest of `Figure::to_json()` for `run_experiment_with(id, true)`.
//! A refactor of the harness must reproduce every one of them byte for
//! byte.
//!
//! Left out: the experiments that report wall time (`tab3`,
//! `tab3-amortized`, `pass-profile`, `wallclock`, `incremental`,
//! `service`), whose JSON varies run to run, and `dist`,
//! which re-executes the current binary as a rank worker and so runs only
//! under `repro`.
//!
//! On a mismatch the test prints each differing id with the line it
//! computed and the JSON it got; a change that is meant to move a figure
//! replaces that id's line in the fixture.

const FIXTURE: &str = include_str!("fixtures/figures_pin.txt");

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Runs each experiment and compares its line with the fixture's.
fn check(ids: &[&str]) {
    let mut failed = Vec::new();
    for &id in ids {
        let fig = bench::run_experiment_with(id, true)
            .unwrap_or_else(|| panic!("`{id}` is not an experiment"));
        let json = fig.to_json();
        let got = format!("{id} {} {:016x}", json.len(), fnv1a(&json));
        let want = FIXTURE.lines().find(|l| l.split(' ').next() == Some(id));
        if want != Some(got.as_str()) {
            eprintln!("== {id}: fixture {want:?}, got `{got}`; its JSON:\n{json}");
            failed.push(id);
        }
    }
    assert!(failed.is_empty(), "figures moved: {failed:?}");
}

#[test]
fn serial_figures_are_pinned() {
    check(&["fig3", "fig17", "fig18"]);
}

#[test]
fn scaling_figures_are_pinned() {
    check(&[
        "fig4", "fig5", "fig6", "fig7", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
        "fig15", "fig16",
    ]);
}

#[test]
fn tables_ablations_and_extension_are_pinned() {
    check(&[
        "tab1",
        "tab2",
        "ablate-devirt",
        "ablate-inline",
        "ablate-comm",
        "ablate-gpu",
        "ext-reduce",
    ]);
}

#[test]
fn robustness_gates_are_pinned() {
    check(&["fault-matrix", "restart-cost", "chaos", "backend-matrix"]);
}

#[test]
fn the_fixture_has_one_line_per_pinned_experiment() {
    let ids: Vec<&str> = FIXTURE
        .lines()
        .map(|l| l.split(' ').next().unwrap())
        .collect();
    assert_eq!(ids.len(), 26, "{ids:?}");
    let mut unique = ids.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "an id is pinned twice: {ids:?}");
}

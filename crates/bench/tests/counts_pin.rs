//! Pins `BENCH_counts.json` at the repository root: the retired
//! instructions, virtual cycles, static size and translator, query and
//! restart counters of each ruler program ([`bench::counts_json`]; `repro counts --write`
//! writes the file). A change meant to move a count rewrites the file and
//! commits it on its own, saying why.

const FILE: &str = include_str!("../../../BENCH_counts.json");

#[test]
fn every_count_is_pinned() {
    let got = bench::counts_json();
    let (w, g): (Vec<&str>, Vec<&str>) = (FILE.lines().collect(), got.lines().collect());
    let moved: Vec<String> = (0..w.len().max(g.len()))
        .filter(|&i| w.get(i) != g.get(i))
        .map(|i| format!("line {}: file {:?}, got {:?}", i + 1, w.get(i), g.get(i)))
        .collect();
    assert!(moved.is_empty(), "counts moved:\n{}", moved.join("\n"));
}

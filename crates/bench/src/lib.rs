//! # bench — the reproduction harness for every table and figure
//!
//! * [`experiments`] — every experiment `repro` runs, one row each of
//!   [`EXPERIMENTS`]: the paper's tables and figures in virtual cycles,
//!   the DESIGN.md ablations, and the gates `scripts/check.sh` runs;
//! * [`cprogs`] — the hand-inlined *C* baseline programs;
//! * the `repro` binary — `repro fig4`, `repro all`, ... prints the series
//!   and writes `results/<id>.json`; `repro figures --write` writes
//!   `BENCH_figures.json`, the committed JSON of every [`PINNED`] figure.
//!
//! Wall time per operation and per layer is measured by `benchmark/`,
//! not here.

#![forbid(unsafe_code)]

pub mod cprogs;
pub mod experiments;
pub mod series;

pub use experiments::{
    figures_json, pin_entry, pin_file, run_experiment_with, Experiment, EXPERIMENTS, PINNED,
};
pub use series::{Figure, Point, Series};

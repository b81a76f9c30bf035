//! # wjbench support library
//!
//! What both benchmark binaries share, and nothing that names a repo
//! crate: statistics ([`stats`]), harness-side spans ([`spans`]), a small
//! JSON value with writer and reader ([`json`]), the seeded input
//! generators ([`gen`]) and the workload table plus process helpers
//! ([`plan`]). Keeping this crate free of `../crates/*` is deliberate: a
//! refactor of a layer can break a probe in `src/bin/`, never the ruler's
//! arithmetic.

#![forbid(unsafe_code)]

pub mod gen;
pub mod json;
pub mod plan;
pub mod spans;
pub mod stats;

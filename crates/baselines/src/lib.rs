//! # baselines — the paper's *C* matrix multiplication in native Rust
//!
//! What is left is [`matmul::c_style`] (hand-flattened ikj loops, the
//! paper's *C*) and the `DefaultGen` inputs it reads. The benchmark's
//! per-layer trace times it as a machine-speed anchor, and
//! `tests/end_to_end.rs` checks it against `hpclib::reference_matmul`.
//!
//! The native analogues of the *C++*, *Template* and *Template w/o virt.*
//! series, and of diffusion, are gone: the emitted C of the translated
//! series now compiles and runs, bit-identically to `exec`
//! (`crates/bench/tests/emitted_c.rs`), which checks more than a Rust
//! re-implementation could.

#![forbid(unsafe_code)]

pub mod matmul;

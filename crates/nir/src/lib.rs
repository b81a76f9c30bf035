//! # nir — the flat native IR the WootinJ translator targets
//!
//! The paper's framework emits C or CUDA source and hands it to icc/nvcc.
//! In this reproduction the equivalent artifact is a NIR [`Program`]: flat
//! functions over primitive registers and arrays (fully optimized mode),
//! plus heap-object and vtable instructions used only by the *C++* /
//! *Template* baseline configurations. The `exec` crate executes NIR; the
//! [`emit`] module renders it as readable C/CUDA text (the Listing-5
//! analogue); the [`opt`] module plays the role of the external compiler's
//! optimizer and is the knob behind the Table 1 / Table 2 reproduction.

#![forbid(unsafe_code)]

mod cfg;
pub mod codec;
pub mod emit;
pub mod hash;
pub mod intrin;
pub mod ir;
pub mod opt;
pub mod verify;

pub use codec::{seal, unseal, CodecError, CodecResult, Reader, Wire, Writer};
pub use emit::{emit_c, DIV_BY_ZERO_EXIT};
pub use hash::{digest64, fnv1a64, Fingerprint};
pub use intrin::{IntrinOp, IntrinTy, Intrinsic, Platform, INTRINSICS};
pub use ir::{
    ClassMeta, ConstVal, ElemTy, FuncBuilder, FuncId, FuncKind, Function, Global, HostFnSig, Instr,
    Label, Program, Reg, Ty,
};
pub use opt::{
    kinds_splice, merge_profiles, optimize, optimize_fn, OptConfig, PassProfile, PASS_ORDER,
};
pub use verify::VerifyError;

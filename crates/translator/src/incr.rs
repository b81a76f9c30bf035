//! Incremental lowering support: execution traces and memo replay.
//!
//! The query database (crate `querydb`) treats `lower_fn` — one
//! shape-specialized function — as a memoizable query. The [`Lowerer`]
//! cooperates through two optional attachments:
//!
//! * [`TraceState`]: while lowering, every specialization records the
//!   callee edges it emitted (in first-encounter order, i.e. the DFS
//!   order that assigns [`FuncId`]s), the typed bodies it read (its own,
//!   plus any bodies spliced by call inlining or constructor inlining),
//!   and its *exclusive* statistics delta. The database harvests these
//!   records into per-function memos after a successful translate.
//! * [`ReplayState`]: a set of still-valid memos from a previous
//!   revision. When `lower_spec` misses its session map, it first
//!   consults the replay set: a valid memo is *replayed* by recursively
//!   ensuring every recorded callee lands on its recorded [`FuncId`]
//!   (the natural DFS order), then injecting the memoized, already
//!   optimized function at its recorded id. Any mismatch — a callee
//!   re-lowered to a different id, an id drift, a callee it could have
//!   inlined that is not the memo's own body — aborts the replay and
//!   falls back to fresh lowering, so a replayed program is always
//!   bit-identical to the from-scratch program at the same revision.
//!
//! [`Lowerer`]: crate::lower::Lowerer
//! [`FuncId`]: nir::FuncId

use std::collections::HashMap;
use std::sync::Arc;

use jlang::types::ClassId;
use nir::FuncId;

use crate::shape::Shape;
use crate::sheval::SpecKey;

/// Which typed body of a class a lowering step read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemberRef {
    /// A method body, by index in the class's method list.
    Method(u32),
    /// The constructor bundle: super(...) args, field initializers, and
    /// the ctor body — always read together by `new`-site inlining.
    Ctor,
}

/// A typed body read during lowering (a `typeck_body` dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BodyRef {
    pub class: ClassId,
    pub member: MemberRef,
}

/// One recorded call edge: which specialization was demanded, and which
/// function id it resolved to when the memo was recorded.
#[derive(Debug, Clone)]
pub struct CalleeEdge {
    pub key: SpecKey,
    pub device: bool,
    pub kernel: bool,
    pub expect: FuncId,
}

/// Exclusive counter deltas, in [`TransStats`] field order:
/// specializations, devirtualized_calls, virtual_calls, inlined_ctors,
/// inlined_calls, kernels.
///
/// [`TransStats`]: crate::lower::TransStats
pub type StatsDelta = [u32; 6];

pub(crate) fn sub6(a: StatsDelta, b: StatsDelta) -> StatsDelta {
    std::array::from_fn(|i| a[i].wrapping_sub(b[i]))
}

pub(crate) fn add6(a: StatsDelta, b: StatsDelta) -> StatsDelta {
    std::array::from_fn(|i| a[i].wrapping_add(b[i]))
}

/// A memoized `lower_fn` result: everything needed to re-inject the
/// function without re-walking its typed body. The stored function is
/// already optimized, its spliced callees included, so replay skips the
/// optimizer too.
#[derive(Debug, Clone)]
pub struct FnMemo {
    pub id: FuncId,
    pub ret: Option<Shape>,
    pub func: Arc<nir::Function>,
    /// Callee edges in first-encounter (DFS) order.
    pub callees: Vec<CalleeEdge>,
    /// The earlier callees the optimizer could splice into this one (a
    /// matching kind, inlining on), each with the final body it spliced,
    /// or `None` where that body was over the limit. The memo replays
    /// only if each spliced callee is that same allocation and each other
    /// one is still over the limit: then it splices exactly what a fresh
    /// build would. Empty without inlining.
    pub inlined: Vec<(FuncId, Option<Arc<nir::Function>>)>,
    /// Typed bodies this function's lowering read.
    pub bodies: Vec<BodyRef>,
    /// Exclusive statistics delta (this function only, children removed).
    pub excl: StatsDelta,
}

/// One completed trace record, harvested into an [`FnMemo`] by the
/// query database (which adds the post-optimization function clone and
/// the fingerprinted dependency sets).
#[derive(Debug, Clone)]
pub struct FnRec {
    pub key: SpecKey,
    pub device: bool,
    pub kernel: bool,
    pub id: FuncId,
    pub ret: Option<Shape>,
    pub callees: Vec<CalleeEdge>,
    pub bodies: Vec<BodyRef>,
    pub excl: StatsDelta,
}

/// An in-flight trace frame (one per specialization being lowered).
#[derive(Debug)]
pub(crate) struct Frame {
    pub key: SpecKey,
    pub device: bool,
    pub kernel: bool,
    pub callees: Vec<CalleeEdge>,
    pub bodies: Vec<BodyRef>,
    /// Inclusive stats snapshot at frame entry.
    pub base: StatsDelta,
    /// Sum of children's inclusive deltas, for exclusive attribution.
    pub child: StatsDelta,
}

/// Dependency-trace collector attached to a [`Lowerer`].
///
/// [`Lowerer`]: crate::lower::Lowerer
#[derive(Debug, Default)]
pub struct TraceState {
    pub(crate) frames: Vec<Frame>,
    /// Completed records, in post-order (children before parents — the
    /// same order `FuncId`s are assigned).
    pub recs: Vec<FnRec>,
}

impl TraceState {
    pub fn new() -> Self {
        TraceState::default()
    }
}

/// Validated memos available for replay this translate, plus the replay
/// outcome counters the query layer reads back.
#[derive(Debug, Default)]
pub struct ReplayState {
    /// Memos whose dependencies the database verified unchanged,
    /// keyed by (spec, device, kernel).
    pub memos: HashMap<(SpecKey, bool, bool), Arc<FnMemo>>,
    /// Ids of functions injected from memos (already optimized).
    pub replayed: Vec<FuncId>,
    /// How many specializations were served by replay.
    pub reused: u64,
}

impl ReplayState {
    pub fn new(memos: HashMap<(SpecKey, bool, bool), Arc<FnMemo>>) -> Self {
        ReplayState {
            memos,
            replayed: Vec::new(),
            reused: 0,
        }
    }
}

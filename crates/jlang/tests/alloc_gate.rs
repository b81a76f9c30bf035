//! Allocation counts of the front end, as a gate that does not swing
//! with host load: a wall-clock effect below the benchmark's noise floor
//! still shows here as a count.
//!
//! The input is the prelude plus the translator's pipeline fixture
//! (≈62 KB, the shape of the sources a cold compile reads). A counting
//! global allocator tallies, per thread, the allocations and frees made
//! between two points of this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jlang::parser::parse_unit;
use jlang::{table, typeck};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments; the counters are const-initialized thread-locals without
// destructors, so touching them never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        FREES.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(allocations, frees)` made on this thread while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, f0) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let out = f();
    let (a1, f1) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    (out, a1 - a0, f1 - f0)
}

fn source() -> String {
    let pipeline8 = include_str!("../../translator/tests/fixtures/pipeline8.jl");
    format!("{}{pipeline8}", wootinj::prelude::PRELUDE)
}

/// Allocations `parse_unit` may make on the input. A tree with a `Box`
/// per operand, a `String` per name and a `Vec` per block and argument
/// list took 17,785 here; one arena per body takes a few per body.
const PARSE_ALLOCS: u64 = 1_200;

/// Frees that dropping one untyped body may take: its `Arc` and eight
/// boxed slices (nodes and spans, types, ids, names).
const FREES_PER_BODY: u64 = 9;

/// Allocations `check_member` may make over the input's 24 bodies, the
/// first growth of the builder it reuses included. A typed tree with a
/// `Box` per operand, a `Vec` per block and argument list and a cloned
/// `Type` on every node took 12,618 here; one flat body each takes 330.
const TYPECK_ALLOCS: u64 = 500;

/// Frees that dropping one typed body may take: its `Arc`, its non-empty
/// slices (ten at most) and the heap parts of its types. The 24 bodies
/// here take 166; as typed trees they took 12,440, ≈518 each.
const TYPED_FREES_PER_BODY: u64 = 12;

#[test]
fn parse_allocates_a_few_times_per_body() {
    let src = source();
    let (unit, allocs, _) = counted(|| parse_unit(0, &src).expect("the input parses"));
    assert!(
        allocs <= PARSE_ALLOCS,
        "parse_unit made {allocs} allocations (bound {PARSE_ALLOCS})"
    );
    assert!(!unit.classes.is_empty());
}

#[test]
fn installing_typed_bodies_frees_the_untyped_ones_per_body() {
    let src = source();
    let unit = parse_unit(0, &src).expect("the input parses");
    let mut t = table::build(vec![unit]).expect("the input builds");
    let mut typed = Vec::new();
    for info in t.iter() {
        for member in typeck::unchecked_members(info) {
            let body = typeck::check_member(&t, info.id, member).expect("the input checks");
            typed.push((info.id, member, body));
        }
    }
    let bodies = typed.len() as u64;
    let ((), _, frees) = counted(|| {
        for (id, member, body) in typed {
            typeck::install(&mut t, id, member, body);
        }
    });
    assert!(
        frees <= FREES_PER_BODY * bodies,
        "installing {bodies} bodies made {frees} frees (bound {FREES_PER_BODY} per body)"
    );
}

#[test]
fn typeck_allocates_a_few_times_per_body_and_frees_them_as_few() {
    let src = source();
    let unit = parse_unit(0, &src).expect("the input parses");
    let t = table::build(vec![unit]).expect("the input builds");
    let members: Vec<_> = (t.iter())
        .flat_map(|info| {
            typeck::unchecked_members(info)
                .into_iter()
                .map(|m| (info.id, m))
        })
        .collect();
    let (typed, allocs, _) = counted(|| {
        (members.iter())
            .map(|&(id, m)| typeck::check_member(&t, id, m).expect("the input checks"))
            .collect::<Vec<_>>()
    });
    let bodies = typed.len() as u64;
    assert_eq!(bodies, 24);
    assert!(
        allocs <= TYPECK_ALLOCS,
        "checking {bodies} bodies made {allocs} allocations (bound {TYPECK_ALLOCS})"
    );
    let ((), _, frees) = counted(|| drop(typed));
    assert!(
        frees <= TYPED_FREES_PER_BODY * bodies,
        "dropping {bodies} typed bodies made {frees} frees (bound {TYPED_FREES_PER_BODY} per body)"
    );
}

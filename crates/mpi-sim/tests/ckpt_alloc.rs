//! A checkpoint capture allocates each re-encoded array's section once:
//! the array is written straight into its shared `Arc<[u8]>`, not encoded
//! into a `Vec` and copied into one. A counting global allocator (the
//! one `frame_alloc.rs` uses) tallies, per thread, the bytes requested
//! by one capture of a rank that rewrote `K` of its float arrays since
//! the last one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use exec::{ArrStore, Machine, Val};
use mpi_sim::{LocalPool, RankPool, World};
use nir::{ElemTy, FuncBuilder, FuncKind, Instr, Program, Ty};

struct Counting;

thread_local! {
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments; the counter is a const-initialized thread-local without a
// destructor, so touching it never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|c| c.set(c.get() + layout.size() as u64));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|c| c.set(c.get() + new_size as u64));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Bytes requested on this thread while `f` runs.
fn requested<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

/// Float arrays the rank rewrites between captures, and one it never
/// writes.
const K: usize = 3;
/// Elements per array: big enough that its section dwarfs the rank's
/// other sections.
const N: usize = 16_384;

#[test]
fn a_capture_requests_each_rewritten_arrays_section_bytes_once() {
    let params = vec![Ty::Arr(ElemTy::F32); K + 1];
    let mut fb = FuncBuilder::new("hold", params, Some(Ty::I32), FuncKind::Host);
    let zero = fb.reg(Ty::I32);
    fb.emit(Instr::ConstI32(zero, 0));
    fb.emit(Instr::Ret(Some(zero)));
    let mut p = Program::default();
    let entry = p.add_func(fb.finish().unwrap());
    let world = World::new(&p, 1);
    let mut args = |_: u32, m: &mut Machine| {
        Ok((0..=K)
            .map(|_| Val::Arr(m.mem.alloc(ArrStore::F32(vec![0.5; N]))))
            .collect())
    };
    let mut pool = LocalPool::new(&world, entry, &mut args);
    pool.reinit().unwrap();
    pool.capture_rank(0).unwrap();
    for h in 0..K as u32 {
        pool.write_floats(0, h, 0, &[h as f32; N]).unwrap();
    }
    let (snap, bytes) = requested(|| pool.capture_rank(0).unwrap());
    let section = (5 + 4 * N) as u64;
    assert_eq!(snap.sections[1].len() as u64, section);
    let rewritten = K as u64 * section;
    assert!(
        bytes >= rewritten,
        "requested {bytes} bytes, fewer than the sections"
    );
    // Each section once, plus its reference counts, plus the thread, the
    // rest of the machine and the list of sections.
    assert!(
        bytes < rewritten + 2048,
        "requested {bytes} bytes for {K} rewritten sections of {section} bytes"
    );
}

//! The WFR1 frame reader allocates only for bytes that arrive: a header
//! may claim up to `MAX_FRAME_LEN` (256 MiB), but a client that sends
//! the 13-byte header and nothing more must not make the reader reserve
//! that much. A counting global allocator tallies, per thread, the bytes
//! requested between two points of this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpi_sim::{read_frame, TransportError, FRAME_MAGIC, MAX_FRAME_LEN, WIRE_VERSION};

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

/// What reading one hostile header may request in all.
const BOUND: u64 = 1 << 20;

fn header(len: u64) -> Vec<u8> {
    let mut head = FRAME_MAGIC.to_vec();
    head.push(WIRE_VERSION);
    head.extend_from_slice(&len.to_le_bytes());
    head
}

#[test]
fn a_header_claiming_the_bound_then_eof_fails_typed_without_reserving_it() {
    let wire = header(MAX_FRAME_LEN);
    let (got, bytes) = requested(|| read_frame(&mut &wire[..]));
    assert_eq!(got.unwrap_err(), TransportError::Disconnected);
    assert!(bytes < BOUND, "requested {bytes} bytes for 13 header bytes");

    // A few payload bytes, then the peer dies: truncated, and still
    // bounded by what arrived.
    let mut wire = header(MAX_FRAME_LEN);
    wire.extend_from_slice(&[7u8; 100]);
    let (got, bytes) = requested(|| read_frame(&mut &wire[..]));
    assert_eq!(
        got.unwrap_err(),
        TransportError::Truncated {
            wanted: MAX_FRAME_LEN as usize,
            got: 100,
        }
    );
    assert!(bytes < BOUND, "requested {bytes} bytes for 113 input bytes");
}

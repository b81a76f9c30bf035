//! The executor seam: *who* runs a batch of ready slices.
//!
//! Every backend in this reproduction executes ranks cooperatively —
//! one OS thread interleaving resumable [`Thread`]s under a seeded
//! per-round service order. That made determinism trivial but left
//! "speed" a purely virtual number. This module splits the *policy*
//! (which ranks run this round, in what order their yields are
//! serviced — still owned by the scheduler) from the *mechanism*
//! (which OS thread burns the cycles of each slice): [`run_batch`] runs
//! one round's slices on up to `workers` OS threads and hands the results
//! back in batch order — the seeded schedule the scheduler chose — so a
//! world is bit-identical whatever the worker count.
//!
//! Why batching is sound: within one scheduler round, executing a
//! rank's slice touches only that rank's own [`Thread`] and
//! [`Machine`]. Cross-rank effects (message delivery, collective
//! completion, fault draws) happen when the scheduler *services* the
//! returned yield, never during slice execution itself. So "run all
//! ready slices, possibly in parallel, then service yields in the
//! chosen order" is observably identical to the historical
//! run-one-service-one loop.
//!
//! There is one pool, [`parallel_map`]: no work arrives mid-batch, so
//! workers claim the next index from one atomic counter and results keep
//! input order.

use crate::{run, ExecError, Image, Machine, Thread, Yield};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How batch results are handed back. One variant: results always return
/// in batch (seeded-schedule) order. The enum, and the `mode` field that
/// carries it, remain only because the frozen `benchmark/` sources spell
/// `mode: ExecMode::Replay`; drop both when a benchmark PR can follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    Replay,
}

/// Executor selection, carried by world builders and run requests
/// (a config, not a trait object, so it stays `Copy` and wire-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExecutorCfg {
    /// The historical single-threaded cooperative loop.
    #[default]
    Sim,
    /// Each round's batch of slices on `workers` OS threads.
    Threads { workers: u32, mode: ExecMode },
}

impl ExecutorCfg {
    /// Read the `WJ_EXECUTOR` override: `threads` / `threads:<N>`
    /// selects OS threads (bit-identical, safe to apply to an entire
    /// test suite); anything else keeps `self`.
    pub fn from_env_or(self) -> Self {
        match std::env::var("WJ_EXECUTOR") {
            Ok(v) if v == "threads" => ExecutorCfg::Threads {
                workers: default_workers(),
                mode: ExecMode::Replay,
            },
            Ok(v) => match v.strip_prefix("threads:").and_then(|n| n.parse().ok()) {
                Some(workers) => ExecutorCfg::Threads {
                    workers,
                    mode: ExecMode::Replay,
                },
                None => self,
            },
            Err(_) => self,
        }
    }
}

/// Worker count when the override doesn't name one: the machine's
/// available parallelism, floored at 2 so "threads" always means
/// threads even on a single-core box.
pub fn default_workers() -> u32 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1)
        .max(2)
}

/// One ready slice: a rank's thread + machine, moved out of the pool
/// for the duration of the batch (slice execution owns them — that
/// exclusivity is what makes parallel batches sound).
pub struct SliceJob {
    pub rank: u32,
    pub thread: Thread,
    pub machine: Machine,
    pub slice: u64,
}

/// A finished slice: the rank's state handed back, plus how it
/// stopped. Fallible — the pool never unwraps execution errors.
pub struct SliceDone {
    pub rank: u32,
    pub thread: Thread,
    pub machine: Machine,
    pub outcome: Result<Yield, ExecError>,
}

/// Run one scheduler round's batch of ready slices on up to `workers` OS
/// threads. Results come back in batch order, which *is* the contract:
/// the scheduler services yields in the order it chose the ranks.
///
/// Workers are scoped per batch (not persistent): scoping keeps every
/// borrow safe — no `unsafe`, no channels, no external crates.
pub fn run_batch(workers: u32, image: &Image<'_>, jobs: Vec<SliceJob>) -> Vec<SliceDone> {
    parallel_map(workers, jobs, |_, job| {
        let SliceJob {
            rank,
            mut thread,
            mut machine,
            slice,
        } = job;
        let outcome = run(&mut thread, image, &mut machine, slice);
        SliceDone {
            rank,
            thread,
            machine,
            outcome,
        }
    })
}

/// Map `f` over `items` on up to `workers` OS threads, returning
/// results in input-index order regardless of completion order. One
/// worker (or one item) is a plain loop on the calling thread.
pub fn parallel_map<T, R, F>(workers: u32, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = (workers.max(1) as usize).min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = items[i].lock().unwrap().take().expect("claimed twice");
                *slots[i].lock().unwrap() = Some(f(i, item));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("worker died before filling slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        for workers in [1, 2, 4, 8] {
            let items: Vec<u64> = (0..100).collect();
            let out = parallel_map(workers, items, |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn threads_means_at_least_two_workers() {
        assert!(default_workers() >= 2);
    }
}

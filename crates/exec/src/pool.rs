//! The executor seam: *who* runs a batch of ready slices.
//!
//! Every backend in this reproduction executes ranks cooperatively —
//! one OS thread interleaving resumable [`Thread`](crate::Thread)s
//! under a seeded per-round service order. That made determinism
//! trivial but left "speed" a purely virtual number. This module splits
//! the *policy* (which ranks run this round, in what order their yields
//! are serviced — still owned by the scheduler) from the *mechanism*
//! (which OS thread burns the cycles of each slice): a [`Crew`] runs one
//! round's slices on the scheduler's thread and its helpers and hands
//! the results back in batch order — the seeded schedule the scheduler
//! chose — so a world is bit-identical whatever the worker count.
//!
//! Why batching is sound: within one scheduler round, executing a
//! rank's slice touches only that rank's own `Thread` and `Machine`.
//! Cross-rank effects (message delivery, collective completion, fault
//! draws) happen when the scheduler *services* the returned yield, never
//! during slice execution itself. So "run all ready slices, possibly in
//! parallel, then service yields in the chosen order" is observably
//! identical to the historical run-one-service-one loop.
//!
//! There is one mechanism, [`crew`]: one [`std::thread::scope`] per
//! world run whose helpers park on a condition variable between rounds,
//! so a round pays a wake-up, not a thread spawn. Jobs wait in one
//! locked queue that no one holds while a job runs or while parked;
//! results are filed under their input index. [`parallel_map`] is one
//! batch on a crew of its own.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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

/// How many helper threads a world's crew starts besides the scheduler's
/// own thread: none under [`ExecutorCfg::Sim`], and under
/// [`ExecutorCfg::Threads`] one fewer than the workers a round can use —
/// a round never has more ready slices than the world has ranks.
pub fn helpers(executor: ExecutorCfg, ranks: u32) -> u32 {
    match executor {
        ExecutorCfg::Sim => 0,
        ExecutorCfg::Threads { workers, .. } => workers.min(ranks).max(1) - 1,
    }
}

/// How long [`Crew::map`]'s caller yields for the last results of a batch
/// before it parks. The jobs it waits for are already running on helpers
/// and usually end sooner than a park and wake-up: on `fox-ranks` (2-core
/// host) parking at once read 2.12 ms per op, and a 20 µs or 100 µs
/// budget 2.04 ms.
const PARK_AFTER: Duration = Duration::from_micros(50);

/// A crew of worker threads that outlives its batches: [`crew`] opens
/// it, and every [`Crew::map`] runs one batch on the calling thread and
/// the crew's parked helpers. Once [`crew`] returns the helpers are gone
/// and `map` runs on the calling thread alone.
pub struct Crew<'f, T, R> {
    shared: Arc<Shared<'f, T, R>>,
}

struct Shared<'f, T, R> {
    f: Box<dyn Fn(T) -> R + Send + Sync + 'f>,
    helpers: u32,
    queue: Mutex<Queue<T, R>>,
    /// Helpers park here until a batch arrives or the crew closes.
    work: Condvar,
    /// The caller parks here until the batch's last result is filed.
    idle: Condvar,
}

/// One batch in flight. Jobs carry their input index; results are filed
/// under it, so a batch comes back in input order whoever ran each job.
struct Queue<T, R> {
    jobs: VecDeque<(usize, T)>,
    results: Vec<Option<R>>,
    outstanding: usize,
    /// The first panic a job of this batch raised, re-raised by `map`.
    panic: Option<Box<dyn Any + Send>>,
    closed: bool,
}

impl<T, R> Shared<'_, T, R> {
    fn lock(&self) -> MutexGuard<'_, Queue<T, R>> {
        // Jobs run outside the lock and their panics are caught, so a
        // poisoned lock only means a panic between two plain field writes.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run job `i` outside the lock and file its result (or its panic),
    /// waking the caller when it was the batch's last.
    fn run_job(&self, i: usize, job: T) -> MutexGuard<'_, Queue<T, R>> {
        let out = panic::catch_unwind(AssertUnwindSafe(|| (self.f)(job)));
        let mut q = self.lock();
        match out {
            Ok(r) => q.results[i] = Some(r),
            Err(p) => {
                q.panic.get_or_insert(p);
            }
        }
        q.outstanding -= 1;
        if q.outstanding == 0 {
            self.idle.notify_one();
        }
        q
    }

    /// A helper's life: take jobs while there are any, park while the
    /// queue is empty, leave once the crew is closed.
    fn help(&self) {
        let mut q = self.lock();
        loop {
            if let Some((i, job)) = q.jobs.pop_front() {
                drop(q);
                q = self.run_job(i, job);
            } else if q.closed {
                return;
            } else {
                q = self.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Closes the crew when [`crew`]'s scope body exits, unwinding included,
/// so the scope's join never waits on a parked helper.
struct CloseOnExit<'s, 'f, T, R>(&'s Shared<'f, T, R>);

impl<T, R> Drop for CloseOnExit<'_, '_, T, R> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.work.notify_all();
    }
}

/// Open a crew of `workers` — the calling thread plus `workers − 1`
/// helpers in one [`std::thread::scope`] — that runs `f` on every item
/// of every batch `body` maps; return what `body` returns. One worker
/// (or none) starts no thread.
pub fn crew<'f, T, R, O>(
    workers: u32,
    f: impl Fn(T) -> R + Send + Sync + 'f,
    body: impl FnOnce(Crew<'f, T, R>) -> O,
) -> O
where
    T: Send + 'f,
    R: Send + 'f,
{
    let shared = Arc::new(Shared {
        f: Box::new(f),
        helpers: workers.max(1) - 1,
        queue: Mutex::new(Queue {
            jobs: VecDeque::new(),
            results: Vec::new(),
            outstanding: 0,
            panic: None,
            closed: false,
        }),
        work: Condvar::new(),
        idle: Condvar::new(),
    });
    std::thread::scope(|s| {
        let _close = CloseOnExit(&shared);
        for _ in 0..shared.helpers {
            let shared = Arc::clone(&shared);
            s.spawn(move || shared.help());
        }
        body(Crew {
            shared: Arc::clone(&shared),
        })
    })
}

impl<T, R> Crew<'_, T, R> {
    /// Run the crew's function over `items` on this thread and the
    /// helpers; results come back in input order. A job that panics
    /// re-raises here once the rest of the batch has finished.
    pub fn map(&mut self, items: Vec<T>) -> Vec<R> {
        let s = &*self.shared;
        let n = items.len();
        let mut q = s.lock();
        if s.helpers == 0 || q.closed || n <= 1 {
            drop(q);
            return items.into_iter().map(|t| (s.f)(t)).collect();
        }
        q.results.clear();
        q.results.resize_with(n, || None);
        q.outstanding = n;
        q.jobs.extend(items.into_iter().enumerate());
        s.work.notify_all();
        // The caller is the crew's first worker: it takes jobs like a
        // helper, then waits for the jobs still running on helpers.
        let mut waiting_since = None;
        loop {
            if let Some((i, job)) = q.jobs.pop_front() {
                drop(q);
                q = s.run_job(i, job);
            } else if q.outstanding == 0 {
                break;
            } else if waiting_since.get_or_insert_with(Instant::now).elapsed() < PARK_AFTER {
                drop(q);
                std::thread::yield_now();
                q = s.lock();
            } else {
                q = s.idle.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        }
        let panic = q.panic.take();
        let results = std::mem::take(&mut q.results);
        drop(q);
        if let Some(p) = panic {
            panic::resume_unwind(p);
        }
        results
            .into_iter()
            .map(|r| r.expect("every job of a finished batch filed a result"))
            .collect()
    }
}

/// Map `f` over `items` on up to `workers` OS threads, returning
/// results in input-index order regardless of completion order: one
/// [`Crew::map`] on a crew that lives for this call. One worker (or one
/// item) is a plain loop on the calling thread.
pub fn parallel_map<T, R, F>(workers: u32, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = workers.min(u32::try_from(items.len()).unwrap_or(u32::MAX));
    crew(
        workers,
        |(i, t)| f(i, t),
        |mut crew| crew.map(items.into_iter().enumerate().collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        for workers in [1, 2, 4, 8] {
            let items: Vec<u64> = (0..100).collect();
            let out = within(move || {
                parallel_map(workers, items, |i, x| {
                    assert_eq!(i as u64, x);
                    x * x
                })
            });
            assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn threads_means_at_least_two_workers() {
        assert!(default_workers() >= 2);
    }

    /// Run `f` on a thread of its own and fail if it has not returned
    /// within `WATCHDOG`: a crew that deadlocks fails the test instead of
    /// hanging the suite. A panic in `f` re-raises here.
    fn within<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        const WATCHDOG: Duration = Duration::from_secs(60);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(f)));
        });
        match rx.recv_timeout(WATCHDOG) {
            Ok(Ok(r)) => r,
            Ok(Err(p)) => panic::resume_unwind(p),
            Err(_) => panic!("the crew did not return within {WATCHDOG:?}"),
        }
    }

    /// xorshift64*, the in-tree PRNG idiom.
    fn next(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The helper count is pure: no thread starts however large the
    /// configured worker count. Catches a cap on the wrong side (a world
    /// of 4 ranks under `threads:4294967295` would start that many
    /// helpers) and a crew that forgets the caller is a worker.
    #[test]
    fn helpers_is_one_fewer_than_the_workers_a_round_can_use() {
        let threads = |workers| ExecutorCfg::Threads {
            workers,
            mode: ExecMode::Replay,
        };
        assert_eq!(helpers(ExecutorCfg::Sim, 4), 0);
        assert_eq!(helpers(threads(1), 4), 0);
        assert_eq!(helpers(threads(0), 4), 0);
        assert_eq!(helpers(threads(2), 4), 1);
        assert_eq!(helpers(threads(4), 4), 3);
        assert_eq!(helpers(threads(8), 4), 3);
        assert_eq!(helpers(threads(u32::MAX), 4), 3);
        assert_eq!(helpers(threads(u32::MAX), 1), 0);
        assert_eq!(helpers(threads(u32::MAX), 0), 0);
        assert_eq!(helpers(threads(3), u32::MAX), 2);
    }

    /// 1,000 batches of random length and random job cost on one crew
    /// come back in input order at every worker count. Catches a helper
    /// that keeps the queue lock while it waits for work (the
    /// `Mutex<mpsc::Receiver>` design: the caller then never takes the
    /// batch's last job and the watchdog fires), and a result filed under
    /// the wrong index.
    #[test]
    fn map_keeps_input_order_over_a_thousand_batches_on_one_crew() {
        for workers in [1u32, 2, 4, 8] {
            within(move || {
                let mut rng = 0x5EED_0000 + u64::from(workers);
                let work = |(batch, i, spins): (u64, u64, u64)| {
                    let mut x = spins;
                    for _ in 0..spins {
                        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                    }
                    let _ = x;
                    batch * 1_000 + i
                };
                crew(workers, work, |mut crew| {
                    for batch in 0..1_000u64 {
                        let n = next(&mut rng) % 13;
                        let items: Vec<(u64, u64, u64)> =
                            (0..n).map(|i| (batch, i, next(&mut rng) % 4_000)).collect();
                        let want: Vec<u64> = (0..n).map(|i| batch * 1_000 + i).collect();
                        assert_eq!(crew.map(items), want, "workers {workers} batch {batch}");
                    }
                });
            });
        }
    }

    /// A batch of one armed job per worker where every armed job waits
    /// until each worker holds one, so the caller runs exactly one and
    /// each helper one. The armed jobs on the caller (`on_caller`) or on
    /// the helpers panic with `"job <i>"`; unarmed jobs return `i`.
    fn panicking_batch(workers: u32, on_caller: bool) {
        let caller = std::thread::current().id();
        let all_in = std::sync::Barrier::new(workers as usize);
        let job = |(i, armed): (usize, bool)| {
            if armed {
                all_in.wait();
                if (std::thread::current().id() == caller) == on_caller {
                    panic!("job {i}");
                }
            }
            i
        };
        crew(workers, job, |mut crew| {
            let items = (0..workers as usize).map(|i| (i, true)).collect();
            let raised = panic::catch_unwind(AssertUnwindSafe(|| crew.map(items)))
                .expect_err("a panicking job must re-raise from map");
            let msg = raised.downcast_ref::<String>().expect("panic!'s payload");
            assert!(msg.starts_with("job "), "{msg}");
            // The crew outlives the panic: the next batch runs whole.
            let out = crew.map((0..50).map(|i| (i, false)).collect());
            assert_eq!(out, (0..50).collect::<Vec<_>>());
        });
    }

    /// A job that panics on a helper, and one that panics on the caller,
    /// re-raise from `map` and the crew still returns. Catches a helper
    /// without `catch_unwind`: it dies without filing its result and the
    /// caller waits for it forever.
    #[test]
    fn a_panicking_job_re_raises_from_map_and_the_crew_returns() {
        for workers in [2u32, 4] {
            for on_caller in [false, true] {
                within(move || panicking_batch(workers, on_caller));
            }
        }
    }

    /// A body that returns early — an error, or a panic — while the
    /// helpers are parked still returns. Catches a crew without its close
    /// guard: the scope's join waits forever on a parked helper.
    #[test]
    fn a_body_that_fails_while_helpers_park_returns() {
        for workers in [2u32, 4] {
            let out: Result<(), String> = within(move || {
                crew(
                    workers,
                    |x: u32| x + 1,
                    |mut crew| {
                        assert_eq!(crew.map(vec![1, 2, 3]), vec![2, 3, 4]);
                        Err("the body failed".to_string())
                    },
                )
            });
            assert_eq!(out, Err("the body failed".to_string()));
            let raised = within(move || {
                panic::catch_unwind(|| crew(workers, |x: u32| x, |_crew| panic!("body")))
            });
            assert!(raised.is_err());
        }
    }
}

//! Scoped thread-pool shim for the PTA workspace — the parallel-execution
//! layer behind the DP row fills, the chunked CSV ingest, and the
//! Comparator fan-out.
//!
//! The build environment has no crates.io access, so this crate plays the
//! role `rayon` (or a long-lived `crossbeam` pool) would otherwise fill,
//! with the same replacement story as the `rand` shim: swap it out
//! unchanged once a registry exists (ROADMAP). Under the
//! workspace-wide `forbid(unsafe_code)` the only safe primitive for
//! borrowing worker threads is [`std::thread::scope`], so a [`Pool`] is a
//! *thread budget*, not a set of live threads: every [`Pool::map`] call
//! spawns its workers scoped to the call and joins them before
//! returning. For the millisecond-scale chunks the hot paths produce the
//! spawn cost is noise; the callers gate fan-out behind a minimum-work
//! threshold so tiny inputs never pay it.
//!
//! Guarantees:
//!
//! * **Deterministic order.** `map`/`try_map` return results in input
//!   order, and each job runs exactly once, whole, on one worker —
//!   scheduling affects only *which* worker runs a job, never the result.
//! * **Panic isolation.** Every job runs under
//!   [`std::panic::catch_unwind`]: a panicking job cannot poison pool
//!   state or take sibling jobs down with it. [`Pool::try_map`] surfaces
//!   each panic as a per-job [`JobPanic`]; [`Pool::map`] re-raises the
//!   first panicking job's original payload after the workers join.
//! * **No nested oversubscription.** A `map` issued from inside another
//!   `map`'s worker runs inline on that worker (see [`in_worker`]), so a
//!   Comparator fan-out that reaches the parallel DP does not multiply
//!   thread counts — and per-call wall-clock stamps stay honest.
//! * **One global knob.** [`default_threads`] reads `PTA_THREADS` once
//!   (falling back to [`std::thread::available_parallelism`]); a budget
//!   of 1 short-circuits to the plain sequential iterator. An invalid
//!   value (`0`, `banana`) warns once on stderr instead of being
//!   silently ignored.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use pta_failpoints::fail_point;

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True when the current thread is a pool worker; nested [`Pool::map`]
/// calls observe this and run inline instead of spawning again.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Resolves a `PTA_THREADS`-style string: `Some(n)` for an integer
/// `>= 1`, `None` (meaning "use the hardware default") otherwise.
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok()).filter(|&n| n >= 1)
}

/// The process-wide default thread budget: `PTA_THREADS` if set to an
/// integer `>= 1`, otherwise [`std::thread::available_parallelism`]
/// (1 when even that is unknown). Read once and cached; a set-but-invalid
/// `PTA_THREADS` logs one warning to stderr before falling back.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let raw = std::env::var("PTA_THREADS").ok();
        match parse_threads(raw.as_deref()) {
            Some(n) => n,
            None => {
                let fallback =
                    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
                if let Some(raw) = raw.as_deref().map(str::trim).filter(|s| !s.is_empty()) {
                    eprintln!(
                        "warning: ignoring invalid PTA_THREADS value {raw:?} \
                         (want an integer >= 1); using {fallback}"
                    );
                }
                fallback
            }
        }
    })
}

/// A job panicked inside [`Pool::try_map`]. Carries the panic payload
/// rendered as a message (`&str`/`String` payloads verbatim, anything
/// else a placeholder) so callers can degrade the job to a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload message.
    pub message: String,
}

impl JobPanic {
    /// Renders a caught panic payload into a `JobPanic`.
    pub fn from_payload(payload: &(dyn Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Self { message }
    }
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

type Payload = Box<dyn Any + Send + 'static>;

/// A thread budget for scoped fan-out. Cheap to copy; spawns nothing
/// until [`Pool::map`] runs with more than one thread's worth of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Self::global()
    }
}

impl Pool {
    /// A pool with an explicit thread budget; `0` means "use
    /// [`default_threads`]" — the conventional spelling of "default"
    /// everywhere a `threads` knob is threaded through the workspace.
    pub fn new(threads: usize) -> Self {
        Self { threads: if threads == 0 { default_threads() } else { threads } }
    }

    /// The pool at the process-wide default budget (`PTA_THREADS`).
    pub fn global() -> Self {
        Self::new(0)
    }

    /// The resolved thread budget (always `>= 1`).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A [`std::thread::scope`] escape hatch for callers that need raw
    /// scoped spawning; prefer [`Pool::map`], which adds scheduling,
    /// ordering, and the nesting guard.
    pub fn scope<'env, F, T>(&self, f: F) -> T
    where
        F: for<'scope> FnOnce(&'scope std::thread::Scope<'scope, 'env>) -> T,
    {
        std::thread::scope(f)
    }

    /// Applies `f` to every item and returns the results **in input
    /// order**. With a budget of 1, a single item, or when already on a
    /// pool worker, the jobs run on the current thread; otherwise
    /// `min(budget, items)` scoped workers drain the items via an atomic
    /// cursor (dynamic scheduling, so one slow job does not idle the
    /// rest of the pool).
    ///
    /// Items may borrow from the caller's stack — including disjoint
    /// `&mut` slices, which is how the DP row fill hands each job its
    /// own window of the output row.
    ///
    /// A panicking job is re-raised on the caller with its **original
    /// payload** — the first panicking job in input order — after the
    /// workers join; sibling jobs already in flight complete and no pool
    /// mutex is poisoned. Use [`Pool::try_map`] to observe panics
    /// per-job instead.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let mut first_panic: Option<Payload> = None;
        let mut out = Vec::with_capacity(items.len());
        for slot in self.run_caught(items, &f) {
            match slot {
                Ok(v) => out.push(v),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        out
    }

    /// Panic-isolating [`Pool::map`]: every job runs to completion (or
    /// panics) independently, and the result slot for a panicking job is
    /// `Err(JobPanic)` carrying the payload message instead of the panic
    /// unwinding through the pool. Results stay in input order.
    pub fn try_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<Result<R, JobPanic>>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.run_caught(items, &f)
            .into_iter()
            .map(|slot| slot.map_err(|payload| JobPanic::from_payload(payload.as_ref())))
            .collect()
    }

    /// Shared engine for `map`/`try_map`: runs every job under
    /// `catch_unwind` and returns per-slot outcomes in input order —
    /// deterministically, even when jobs panic, because all jobs run
    /// regardless of earlier panics. `AssertUnwindSafe` is sound here:
    /// the job owns its item, the pool holds no lock while `f` runs, and
    /// a panicking slot is reported — never read as a result.
    fn run_caught<T, R, F>(&self, items: Vec<T>, f: &F) -> Vec<Result<R, Payload>>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let run_one = |item: T| {
            catch_unwind(AssertUnwindSafe(|| {
                fail_point!("pool.worker");
                f(item)
            }))
        };
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 || in_worker() {
            return items.into_iter().map(run_one).collect();
        }
        let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<Result<R, Payload>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // `run_one` catches panics, so these mutexes never
                        // poison; recover rather than unwind if that changes.
                        let item = jobs[i].lock().unwrap_or_else(PoisonError::into_inner).take();
                        // `fetch_add` hands each index to exactly one worker,
                        // so an already-taken job only means a logic change
                        // upstream — skip it rather than crash the pool.
                        let Some(item) = item else { continue };
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) =
                            Some(run_one(item));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner().unwrap_or_else(PoisonError::into_inner).unwrap_or_else(|| {
                    // Every slot is filled before `scope` joins; report an
                    // unfilled one as a job failure instead of crashing.
                    Err(Box::new("pool job slot was never filled") as Payload)
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("banana")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("1")), Some(1));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
    }

    #[test]
    fn budgets_resolve() {
        assert!(default_threads() >= 1);
        assert_eq!(Pool::new(3).threads(), 3);
        assert_eq!(Pool::new(0).threads(), default_threads());
        assert!(Pool::global().threads() >= 1);
    }

    #[test]
    fn map_preserves_input_order() {
        for threads in [1, 2, 4, 16] {
            let pool = Pool::new(threads);
            let out = pool.map((0..100).collect::<Vec<_>>(), |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let pool = Pool::new(4);
        assert_eq!(pool.map(Vec::<i32>::new(), |i| i), Vec::<i32>::new());
        assert_eq!(pool.map(vec![7], |i| i + 1), vec![8]);
    }

    #[test]
    fn jobs_may_hold_disjoint_mutable_slices() {
        let pool = Pool::new(3);
        let mut data = vec![0u32; 10];
        let (a, rest) = data.split_at_mut(3);
        let (b, c) = rest.split_at_mut(3);
        let jobs: Vec<(usize, &mut [u32])> = vec![(0, a), (3, b), (6, c)];
        let lens = pool.map(jobs, |(base, slice)| {
            for (k, v) in slice.iter_mut().enumerate() {
                *v = (base + k) as u32;
            }
            slice.len()
        });
        assert_eq!(lens, vec![3, 3, 4]);
        assert_eq!(data, (0u32..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_map_runs_inline_on_the_worker() {
        let pool = Pool::new(4);
        let nested = pool.map(vec![0usize; 8], |_| {
            assert!(in_worker());
            // The inner map must not spawn: its jobs stay on this worker.
            let inner = Pool::new(4).map(vec![(); 4], |()| std::thread::current().id());
            inner.iter().all(|id| *id == std::thread::current().id())
        });
        assert!(nested.into_iter().all(|ok| ok));
        assert!(!in_worker(), "flag must not leak back to the caller");
    }

    #[test]
    fn try_map_isolates_panics_per_job() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let out = pool.try_map((0..16).collect::<Vec<i32>>(), |i| {
                if i % 5 == 3 {
                    panic!("job {i} exploded");
                }
                i * 2
            });
            assert_eq!(out.len(), 16, "threads={threads}");
            for (i, slot) in out.iter().enumerate() {
                if i % 5 == 3 {
                    let err = slot.as_ref().unwrap_err();
                    assert_eq!(err.message, format!("job {i} exploded"), "threads={threads}");
                } else {
                    assert_eq!(slot.as_ref().unwrap(), &((i as i32) * 2), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn try_map_renders_non_string_payloads() {
        let out = Pool::new(1).try_map(vec![0], |_| -> i32 { std::panic::panic_any(42usize) });
        assert_eq!(out[0].as_ref().unwrap_err().message, "non-string panic payload");
    }

    #[test]
    fn map_reraises_the_first_panic_payload() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.map((0..8).collect::<Vec<i32>>(), |i| {
                    if i >= 2 {
                        panic!("boom at {i}");
                    }
                    i
                })
            }));
            let payload = caught.expect_err("map must propagate the panic");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .expect("original String payload survives the pool");
            // Dynamic scheduling may reach any of jobs 2..8 first, but the
            // surfaced payload is the first *in input order* among them.
            assert_eq!(msg, "boom at 2", "threads={threads}");
        }
    }

    #[test]
    fn map_panic_leaves_no_poisoned_state_behind() {
        let pool = Pool::new(4);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0usize; 8], |_| -> usize { panic!("poison probe") })
        }));
        // The pool value itself is trivially reusable (it is only a
        // budget), and a fresh map must run clean after the panic.
        assert_eq!(pool.map(vec![1, 2, 3], |i| i + 1), vec![2, 3, 4]);
        let ok = pool.try_map(vec![5], |i| i);
        assert_eq!(ok[0].as_ref().unwrap(), &5);
    }
}

//! Scoped thread pool for intra-rank kernel parallelism.
//!
//! The paper runs multithreaded SuiteSparse:GraphBLAS kernels under every
//! MPI rank, so each processor is itself parallel. This module supplies the
//! same layer without rayon: a pool of persistent workers fed through the
//! in-house [`channel`](crate::channel), plus row-range chunking helpers
//! (even and nnz-weighted) that the matrix kernels use to split work.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** The pool never reduces or reorders anything — it only
//!    executes caller-supplied chunk closures. Kernels built on it write
//!    disjoint output ranges with the same per-row inner loops as their
//!    serial counterparts, so results are bitwise identical to serial for
//!    any thread count (asserted by `core`'s determinism suite).
//! 2. **Zero dependencies.** Workers block on [`crate::channel::Receiver`];
//!    the completion latch is a `Mutex` + `Condvar`. The workspace still
//!    builds `--offline --locked` against an empty registry.
//! 3. **Scoped borrows.** [`Pool::run`] may capture non-`'static` state:
//!    the shared job frame lives on the caller's stack and `run` does not
//!    return until every worker has finished with it.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;

use crate::channel::{unbounded, Receiver, Sender};

/// Environment variable overriding the per-rank thread count everywhere a
/// caller passes `threads = None` (CLI, benches, tests, CI).
pub const THREADS_ENV: &str = "PARGCN_THREADS";

/// A job posted to the worker queue: a type-erased pointer to the stack
/// frame shared by one [`Pool::run`] call, plus which executor this worker
/// plays. The pointer is erased to `usize` so the message is `Send`; the
/// latch in [`Shared`] guarantees the frame outlives every access.
struct Job {
    shared: usize,
    executor: usize,
}

struct Latch {
    remaining: usize,
    panic: Option<Box<dyn Any + Send>>,
}

/// Per-`run` frame shared between the caller and the workers it enlists.
struct Shared {
    /// The chunk closure. A raw fat pointer (not a reference) because the
    /// workers reconstruct it from an erased address with no lifetime.
    f: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    stride: usize,
    latch: Mutex<Latch>,
    done: Condvar,
}

// SAFETY: `f` points at a `Sync` closure on the stack of the `run` caller,
// which blocks until the latch reaches zero, so concurrent shared access
// from workers is within the closure's `Sync` contract and its lifetime.
unsafe impl Sync for Shared {}

/// Executes chunks `executor, executor + stride, executor + 2·stride, …`
/// against the shared frame, capturing panics into the latch.
fn execute(shared: &Shared, executor: usize) {
    // SAFETY: the caller of `run` keeps the closure alive until the latch
    // (which we have not yet decremented) reaches zero.
    let f = unsafe { &*shared.f };
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut c = executor;
        while c < shared.chunks {
            f(c);
            c += shared.stride;
        }
    }));
    let mut latch = shared.latch.lock().unwrap();
    if let Err(payload) = result {
        if latch.panic.is_none() {
            latch.panic = Some(payload);
        }
    }
    latch.remaining -= 1;
    if latch.remaining == 0 {
        shared.done.notify_all();
    }
}

/// A fixed-size pool of persistent worker threads.
///
/// `Pool::new(t)` serves `t`-way parallelism with `t - 1` spawned workers:
/// the thread calling [`Pool::run`] always participates as executor 0, so a
/// 1-thread pool spawns nothing and runs everything inline. Dropping the
/// pool disconnects the queue and joins all workers.
///
/// [`Pool::run`] calls must not be nested from inside a chunk closure (the
/// inner call would deadlock-wait on workers busy with the outer one);
/// kernels therefore only ever use the pool at top level.
pub struct Pool {
    injector: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool serving `threads`-way parallelism (min 1).
    pub fn new(threads: usize) -> Self {
        let spawn = threads.max(1) - 1;
        let (tx, rx) = unbounded::<Job>();
        let workers = (0..spawn)
            .map(|w| {
                let rx: Receiver<Job> = rx.clone();
                std::thread::Builder::new()
                    .name(format!("pargcn-pool-{w}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            // SAFETY: see `Shared` — the posting `run` call
                            // is blocked on the latch we decrement last.
                            let shared = unsafe { &*(job.shared as *const Shared) };
                            execute(shared, job.executor);
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            injector: Some(tx),
            workers,
        }
    }

    /// Total executors available to [`Pool::run`] (workers + caller).
    #[inline]
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f(0), f(1), …, f(chunks - 1)` across the pool and returns once
    /// all chunks are done. `f` may borrow from the caller's stack.
    ///
    /// Chunks are assigned to executors by stride (executor `e` runs chunks
    /// `e, e + n, e + 2n, …` for `n` enlisted executors), so the mapping of
    /// chunk → executor is a pure function of `chunks` and the pool size —
    /// nothing depends on scheduling. With one thread (or one chunk) this
    /// degenerates to a plain serial loop, no queue traffic at all.
    ///
    /// Panics in any chunk are propagated to the caller after every
    /// executor has finished (first panic wins).
    pub fn run<F: Fn(usize) + Sync>(&self, chunks: usize, f: F) {
        if chunks == 0 {
            return;
        }
        let helpers = self.workers.len().min(chunks - 1);
        if helpers == 0 {
            for c in 0..chunks {
                f(c);
            }
            return;
        }
        let stride = helpers + 1;
        let f_obj: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: erases the borrow's lifetime into the raw pointer; `run`
        // blocks on the latch below, so the pointer never outlives `f`.
        let f_ptr: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f_obj)
        };
        let shared = Shared {
            f: f_ptr,
            chunks,
            stride,
            latch: Mutex::new(Latch {
                remaining: helpers,
                panic: None,
            }),
            done: Condvar::new(),
        };
        let addr = &shared as *const Shared as usize;
        let injector = self.injector.as_ref().expect("pool injector alive");
        for executor in 1..stride {
            injector
                .send(Job {
                    shared: addr,
                    executor,
                })
                .expect("pool workers exited");
        }
        // The caller is executor 0. Catch its panic too: `shared` lives on
        // this stack frame, so we must wait for the helpers either way.
        let mine = catch_unwind(AssertUnwindSafe(|| {
            let mut c = 0;
            while c < shared.chunks {
                f(c);
                c += stride;
            }
        }));
        let mut latch = shared.latch.lock().unwrap();
        while latch.remaining > 0 {
            latch = shared.done.wait(latch).unwrap();
        }
        let helper_panic = latch.panic.take();
        drop(latch);
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = helper_panic {
            resume_unwind(payload);
        }
    }

    /// Runs `f(chunk, slice)` over disjoint row ranges of `data`, where row
    /// `r` spans elements `r * width .. (r + 1) * width`. The ranges must be
    /// ascending and non-overlapping (as produced by [`even_chunks`] /
    /// [`weighted_chunks`]); each invocation gets exclusive access to its
    /// rows, which is what makes parallel writes race-free.
    ///
    /// # Panics
    /// Panics if the ranges overlap, descend, or exceed `data.len()`.
    pub fn run_disjoint_rows<T, F>(
        &self,
        data: &mut [T],
        width: usize,
        ranges: &[Range<usize>],
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let mut prev_end = 0usize;
        for r in ranges {
            assert!(
                prev_end <= r.start && r.start <= r.end,
                "ranges must ascend"
            );
            prev_end = r.end;
        }
        assert!(
            prev_end.checked_mul(width).is_some_and(|n| n <= data.len()),
            "ranges exceed data"
        );
        struct SyncPtr<T>(*mut T);
        // SAFETY: each chunk touches only its own disjoint row range.
        unsafe impl<T> Sync for SyncPtr<T> {}
        impl<T> SyncPtr<T> {
            fn get(&self) -> *mut T {
                self.0
            }
        }
        let base = SyncPtr(data.as_mut_ptr());
        self.run(ranges.len(), |c| {
            let r = &ranges[c];
            // SAFETY: ranges are validated disjoint and in-bounds above, so
            // the reconstructed slices never alias across chunks.
            let slice = unsafe {
                std::slice::from_raw_parts_mut(
                    base.get().add(r.start * width),
                    (r.end - r.start) * width,
                )
            };
            f(c, slice);
        });
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Disconnect the queue; workers observe RecvError and exit.
        self.injector = None;
        for handle in self.workers.drain(..) {
            // A worker can only panic if a job closure's panic escaped
            // `catch_unwind`; surface that instead of swallowing it.
            handle.join().expect("pool worker panicked");
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads())
            .finish()
    }
}

/// Splits `0..n` into at most `max_chunks` contiguous ranges of near-equal
/// length (`⌈n / c⌉` or `⌊n / c⌋` each). Empty ranges are never produced;
/// fewer than `max_chunks` ranges come back when `n < max_chunks`.
pub fn even_chunks(n: usize, max_chunks: usize) -> Vec<Range<usize>> {
    let chunks = max_chunks.max(1).min(n.max(1));
    if n == 0 {
        return Vec::new();
    }
    (0..chunks)
        .map(|c| (n * c / chunks)..(n * (c + 1) / chunks))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Splits rows `0..prefix.len()-1` into at most `max_chunks` contiguous
/// ranges of near-equal *weight*, where `prefix` is a monotone prefix-sum
/// (a CSR `indptr`: row `i` weighs `prefix[i+1] - prefix[i]`). This is the
/// nnz-balanced split for SpMM — the paper's per-vertex computational load
/// `w(vᵢ) = |cols(A(i,:))|` aggregated per thread instead of per processor.
///
/// Every row lands in exactly one range; zero-weight rows ride along with
/// their neighbours. Empty ranges are never produced.
pub fn weighted_chunks(prefix: &[usize], max_chunks: usize) -> Vec<Range<usize>> {
    let n = prefix.len().saturating_sub(1);
    if n == 0 {
        return Vec::new();
    }
    let chunks = max_chunks.max(1).min(n);
    let total = prefix[n] as u128;
    if total == 0 || chunks == 1 {
        // One chunk spanning every row (a Vec of one Range, not 0..n
        // collected — hence the lint override).
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..n];
    }
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for c in 1..=chunks {
        if start >= n {
            break;
        }
        let end = if c == chunks {
            n
        } else {
            // First boundary where the cumulative weight reaches c/chunks of
            // the total, but always advancing by at least one row.
            let target = (total * c as u128 / chunks as u128) as usize;
            prefix.partition_point(|&x| x < target).clamp(start + 1, n)
        };
        out.push(start..end);
        start = end;
    }
    out
}

/// Resolves the per-rank thread count: an explicit `threads` wins, then the
/// `PARGCN_THREADS` environment variable (unless unset or empty), then
/// `available_parallelism / ranks` (each of `ranks` simulated processors
/// gets an equal CPU share), min 1.
///
/// # Panics
/// If `PARGCN_THREADS` is consulted and is not a whole number.
pub fn auto_threads(ranks: usize, threads: Option<usize>) -> usize {
    let env = || {
        let value = std::env::var_os(THREADS_ENV);
        threads_from_env(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
    };
    if let Some(t) = threads.or_else(env) {
        return t.max(1);
    }
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    (cores / ranks.max(1)).max(1)
}

/// The thread count a `PARGCN_THREADS` value names (`None`: unset).
fn threads_from_env(value: Option<&str>) -> Option<usize> {
    match value.map(str::trim) {
        None | Some("") => None,
        Some(v) => Some(v.parse().unwrap_or_else(|_| {
            panic!("{THREADS_ENV}={v:?} is not a thread count (a whole number)")
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_covers_every_chunk_exactly_once() {
        for threads in [1, 2, 3, 7] {
            let pool = Pool::new(threads);
            for chunks in [0, 1, 2, 7, 64] {
                let hits: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
                pool.run(chunks, |c| {
                    hits[c].fetch_add(1, Ordering::Relaxed);
                });
                for (c, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        1,
                        "chunk {c} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn run_borrows_stack_state() {
        let pool = Pool::new(4);
        let input = vec![3usize; 100];
        let sum = AtomicUsize::new(0);
        pool.run(10, |c| {
            let local: usize = input[c * 10..(c + 1) * 10].iter().sum();
            sum.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn run_disjoint_rows_writes_every_row() {
        let pool = Pool::new(3);
        let width = 4;
        let rows = 13;
        let mut data = vec![0u32; rows * width];
        let ranges = even_chunks(rows, 5);
        pool.run_disjoint_rows(&mut data, width, &ranges, |_, slice| {
            for x in slice.iter_mut() {
                *x += 1;
            }
        });
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn pool_survives_panicking_chunk() {
        let pool = Pool::new(3);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |c| {
                if c == 5 {
                    panic!("chunk 5 exploded");
                }
            });
        }));
        assert!(caught.is_err());
        // The pool is still usable afterwards.
        let n = AtomicUsize::new(0);
        pool.run(4, |_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn even_chunks_partition_exactly() {
        for n in [0usize, 1, 2, 5, 16, 1000] {
            for c in [1usize, 2, 3, 7, 50] {
                let ranges = even_chunks(n, c);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(r.end > r.start);
                    next = r.end;
                }
                assert_eq!(next, n);
                assert!(ranges.len() <= c);
            }
        }
    }

    #[test]
    fn weighted_chunks_partition_and_balance() {
        // Skewed weights: one heavy row among many light ones.
        let mut prefix = vec![0usize];
        for i in 0..100 {
            let w = if i == 3 { 1000 } else { 1 };
            prefix.push(prefix.last().unwrap() + w);
        }
        let ranges = weighted_chunks(&prefix, 4);
        let mut next = 0;
        for r in &ranges {
            assert_eq!(r.start, next);
            assert!(r.end > r.start);
            next = r.end;
        }
        assert_eq!(next, 100);
        assert!(ranges.len() <= 4);
        // The heavy row's chunk should be small in row count.
        let heavy = ranges.iter().find(|r| r.contains(&3)).unwrap();
        assert!(heavy.len() < 50, "heavy chunk spans {heavy:?}");
    }

    #[test]
    fn weighted_chunks_all_zero_weight() {
        let prefix = vec![0usize; 11];
        let ranges = weighted_chunks(&prefix, 4);
        assert_eq!(ranges, vec![0..10]);
    }

    #[test]
    fn weighted_chunks_empty() {
        assert!(weighted_chunks(&[0], 4).is_empty());
        assert!(weighted_chunks(&[], 4).is_empty());
    }

    #[test]
    fn auto_threads_explicit_wins() {
        assert_eq!(auto_threads(4, Some(3)), 3);
        assert_eq!(auto_threads(4, Some(0)), 1);
    }

    #[test]
    fn threads_env_keeps_the_default_only_when_unset() {
        assert_eq!(threads_from_env(None), None);
        assert_eq!(threads_from_env(Some(" ")), None);
        assert_eq!(threads_from_env(Some(" 4")), Some(4));
        assert_eq!(threads_from_env(Some("0")), Some(0));
    }

    #[test]
    #[should_panic(expected = "PARGCN_THREADS=\"four\" is not a thread count")]
    fn threads_env_word_panics_naming_the_value() {
        threads_from_env(Some("four"));
    }

    #[test]
    fn deterministic_chunk_assignment_is_scheduling_free() {
        // Same chunking at any thread count ⇒ per-chunk work is identical;
        // here each chunk writes a pure function of its index.
        let mut reference: Option<Vec<u64>> = None;
        for threads in [1, 2, 7] {
            let pool = Pool::new(threads);
            let mut out = vec![0u64; 64];
            let ranges = even_chunks(64, pool.threads() * 2);
            pool.run_disjoint_rows(&mut out, 1, &ranges, |_, slice| {
                for x in slice.iter_mut() {
                    *x = 41;
                }
            });
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(r, &out),
            }
        }
    }
}

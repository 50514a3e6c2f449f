//! Offline stand-in for the `rayon` crate with a **real** thread pool.
//!
//! The workspace's build environment cannot reach crates.io, so this shim
//! provides the rayon API subset the sources use — `par_iter()` and
//! `par_chunks()` on slices, optionally `enumerate`d, then `map`ped and
//! `collect`ed into a `Vec`, plus `ThreadPoolBuilder` and `ThreadPool` —
//! executed on worker threads (`std::thread::scope`) that self-schedule
//! tasks from a shared atomic cursor, a simple form of work stealing.
//!
//! # Thread count
//!
//! The worker count is, in order of precedence:
//!
//! 1. the innermost [`ThreadPool::install`] on the calling thread — a
//!    count scoped to `op`, which the call's workers inherit,
//! 2. the last [`ThreadPoolBuilder::build_global`] override (0 resets it),
//! 3. the `SPH_THREADS` environment variable,
//! 4. `std::thread::available_parallelism()`.
//!
//! Unlike real rayon there is no persistent pool — workers are scoped to
//! each parallel call — so `build_global` may be called repeatedly to
//! reconfigure the count mid-process. That override is process-global:
//! code that runs concurrently with other code (such as tests, which
//! libtest runs in parallel) names its count with `install` instead, which
//! no other thread can re-point.
//!
//! # Determinism contract
//!
//! Work is split at **fixed chunk boundaries that depend only on the input
//! length**, never on the thread count: the `par_chunks(size)` each call
//! site chooses. `collect` reassembles per-item outputs in input order, and
//! the call sites reduce chunk results in order, so every result is
//! bit-identical for any `SPH_THREADS` — which is what keeps
//! conservation-drift SDC detection meaningful when the drift is measured
//! on one thread count and checked on another.
//!
//! Swapping the real rayon back in remains a one-line change in the root
//! `Cargo.toml`; every call site is written against real rayon semantics
//! (`Fn + Sync` closures, no shared mutation).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Upper bound on elements per task for the element-wise iterator drivers.
/// Driver task granularity adapts to the input size (it cannot affect
/// results — per-item outputs are reassembled in input order); the fixed
/// chunk boundaries of the determinism contract are the ones the call
/// sites choose via `par_chunks(size)` when they fold inside a chunk.
pub const FIXED_CHUNK: usize = 256;

/// `build_global` override; 0 = unset (fall back to env / hardware).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's [`ThreadPool::install`] count; 0 = outside any pool.
    static SCOPED_THREADS: Cell<usize> = const { Cell::new(0) };
}

#[allow(
    clippy::disallowed_methods,
    reason = "the pool size is the one host input allowed: fixed chunk boundaries keep every \
              result bit-identical for any count"
)]
fn default_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("SPH_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Number of worker threads parallel calls on this thread will use,
/// truthfully.
pub fn current_num_threads() -> usize {
    match SCOPED_THREADS.get() {
        0 => match THREAD_OVERRIDE.load(Ordering::Relaxed) {
            0 => default_threads(),
            n => n,
        },
        n => n,
    }
}

/// Error type mirroring `rayon::ThreadPoolBuildError` (never produced by
/// the shim, which cannot fail to "build" scoped workers).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Mirror of `rayon::ThreadPoolBuilder`. The shim keeps no persistent
/// threads, so — unlike real rayon — `build_global` may be called again to
/// change the count; `num_threads(0)` resets to the `SPH_THREADS` /
/// hardware default.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `n` worker threads (0 = `SPH_THREADS` / hardware default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        THREAD_OVERRIDE.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }

    /// A pool of its own, which the global override does not reach; 0
    /// threads means the `SPH_THREADS` / hardware default.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let num_threads = match self.num_threads {
            0 => default_threads(),
            n => n,
        };
        Ok(ThreadPool { num_threads })
    }
}

/// Mirror of `rayon::ThreadPool`: a thread count that [`install`] applies
/// to every parallel call `op` makes, on this thread and on the workers
/// those calls start.
///
/// [`install`]: ThreadPool::install
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `op` with this pool's thread count; the count in force before
    /// is back when `op` returns or unwinds.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        /// Puts the outer count back, also when `op` unwinds.
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                SCOPED_THREADS.set(self.0);
            }
        }
        let _restore = Restore(SCOPED_THREADS.replace(self.num_threads));
        op()
    }
}

/// Items per driver task: small enough to load-balance across the workers,
/// capped at [`FIXED_CHUNK`] to bound per-item overhead on large inputs.
fn task_granularity(n: usize) -> usize {
    (n / (current_num_threads() * 8)).clamp(1, FIXED_CHUNK)
}

/// Run `ntasks` independent tasks on the pool and return their results in
/// task order. Tasks are claimed from a shared cursor so a slow task does
/// not idle the other workers.
fn run_tasks<R, F>(ntasks: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = current_num_threads().min(ntasks).max(1);
    if workers == 1 {
        return (0..ntasks).map(task).collect();
    }
    let scoped = SCOPED_THREADS.get();
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..ntasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers - 1)
            .map(|_| {
                scope.spawn(|| {
                    // Parallel calls a task makes run in the caller's pool.
                    SCOPED_THREADS.set(scoped);
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= ntasks {
                            break;
                        }
                        done.push((i, task(i)));
                    }
                    done
                })
            })
            .collect();
        // The calling thread is a worker too.
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= ntasks {
                break;
            }
            slots[i] = Some(task(i));
        }
        for h in handles {
            let done = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            for (i, r) in done {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("task not executed")).collect()
}

// --------------------------------------------------------------------------
// Parallel iterators
// --------------------------------------------------------------------------

/// A lazy, indexed parallel pipeline: every stage knows its length and how
/// to produce the item at a given index, so the driver can execute fixed
/// chunks of indices on the pool and reassemble results in order.
pub trait ParallelIterator: Sized + Sync {
    type Item: Send;

    /// Number of items the pipeline yields.
    fn pi_len(&self) -> usize;

    /// Produce the item at `index`. Called concurrently from workers.
    fn pi_get(&self, index: usize) -> Self::Item;

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }
}

/// Collection targets for [`ParallelIterator::collect`].
pub trait FromParallelIterator<T: Send>: Sized {
    fn from_par_iter<P: ParallelIterator<Item = T>>(par_iter: P) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(par_iter: P) -> Self {
        let n = par_iter.pi_len();
        let per_task = task_granularity(n);
        let chunks: Vec<Vec<T>> = run_tasks(n.div_ceil(per_task), |c| {
            let start = c * per_task;
            let end = n.min(start + per_task);
            (start..end).map(|i| par_iter.pi_get(i)).collect()
        });
        let mut out = Vec::with_capacity(n);
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }
}

/// Shared-slice source (`par_iter()`).
pub struct Iter<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> ParallelIterator for Iter<'data, T> {
    type Item = &'data T;

    fn pi_len(&self) -> usize {
        self.slice.len()
    }

    fn pi_get(&self, index: usize) -> Self::Item {
        &self.slice[index]
    }
}

/// Sub-slice source (`par_chunks()`).
pub struct Chunks<'data, T> {
    slice: &'data [T],
    chunk_size: usize,
}

impl<'data, T: Sync> ParallelIterator for Chunks<'data, T> {
    type Item = &'data [T];

    fn pi_len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk_size)
    }

    fn pi_get(&self, index: usize) -> Self::Item {
        let start = index * self.chunk_size;
        let end = self.slice.len().min(start + self.chunk_size);
        &self.slice[start..end]
    }
}

/// `map` stage.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync,
{
    type Item = R;

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    fn pi_get(&self, index: usize) -> R {
        (self.f)(self.base.pi_get(index))
    }
}

/// `enumerate` stage.
pub struct Enumerate<B> {
    base: B,
}

impl<B: ParallelIterator> ParallelIterator for Enumerate<B> {
    type Item = (usize, B::Item);

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    fn pi_get(&self, index: usize) -> Self::Item {
        (index, self.base.pi_get(index))
    }
}

// --------------------------------------------------------------------------
// Prelude traits
// --------------------------------------------------------------------------

pub mod prelude {
    use super::{Chunks, Iter};
    pub use super::{FromParallelIterator, ParallelIterator};

    /// `par_iter()` for shared slices.
    pub trait IntoParallelRefIterator<'data> {
        type Iter: ParallelIterator<Item = Self::Item>;
        type Item: Send + 'data;
        fn par_iter(&'data self) -> Self::Iter;
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
        type Iter = Iter<'data, T>;
        type Item = &'data T;
        fn par_iter(&'data self) -> Self::Iter {
            Iter { slice: self }
        }
    }

    /// Shared-slice views from `rayon::slice::ParallelSlice`.
    pub trait ParallelSlice<T: Sync> {
        fn as_parallel_slice(&self) -> &[T];

        /// Parallel iterator over `chunk_size`-sized sub-slices (the last
        /// may be shorter). Chunk boundaries depend only on the slice
        /// length — the building block of the fixed-chunk determinism
        /// contract at the SPH call sites.
        fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T> {
            assert!(chunk_size > 0, "chunk_size must be positive");
            Chunks { slice: self.as_parallel_slice(), chunk_size }
        }
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn as_parallel_slice(&self) -> &[T] {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, ThreadPoolBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Mutex};

    /// Tests that set the global thread override must not interleave.
    static POOL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn par_iter_map_collect_preserves_order() {
        let v: Vec<i64> = (0..10_000).collect();
        let doubled: Vec<i64> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_cover_slice_in_order() {
        let v: Vec<u32> = (0..1000).collect();
        let sums: Vec<u32> = v.par_chunks(64).map(|c| c.iter().sum::<u32>()).collect();
        assert_eq!(sums.len(), 1000usize.div_ceil(64));
        assert_eq!(sums.iter().sum::<u32>(), (0..1000).sum::<u32>());
        // First chunk is exactly the first 64 elements.
        assert_eq!(sums[0], (0..64).sum::<u32>());
    }

    #[test]
    fn par_chunks_enumerate_yields_chunk_indices() {
        let v: Vec<u32> = (0..100).collect();
        let firsts: Vec<(usize, u32)> =
            v.par_chunks(7).enumerate().map(|(i, c)| (i, c[0])).collect();
        assert_eq!(
            firsts,
            (0..100usize.div_ceil(7)).map(|i| (i, 7 * i as u32)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn thread_pool_builder_overrides_and_resets() {
        let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        super::ThreadPoolBuilder::new().num_threads(3).build_global().unwrap();
        assert_eq!(super::current_num_threads(), 3);
        super::ThreadPoolBuilder::new().num_threads(0).build_global().unwrap();
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn install_scopes_the_count_to_op_and_its_workers() {
        let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let outer = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let global_set = Barrier::new(2);
        let (seen, after) = std::thread::scope(|s| {
            // Another thread sets the global override while `outer` is
            // installed here.
            s.spawn(|| {
                ThreadPoolBuilder::new().num_threads(5).build_global().unwrap();
                global_set.wait();
            });
            outer.install(|| {
                global_set.wait();
                // Three chunks that each wait (bounded) for the other two,
                // so three threads, two of them workers, report their count.
                let arrivals = AtomicUsize::new(0);
                let seen: Vec<(std::thread::ThreadId, usize)> = inner.install(|| {
                    [0u8; 3]
                        .par_chunks(1)
                        .map(|_| {
                            arrivals.fetch_add(1, Ordering::SeqCst);
                            for _ in 0..10_000_000u64 {
                                if arrivals.load(Ordering::SeqCst) == 3 {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                            (std::thread::current().id(), current_num_threads())
                        })
                        .collect()
                });
                (seen, current_num_threads())
            })
        });
        assert_eq!(current_num_threads(), 5, "the global override was not set");
        ThreadPoolBuilder::new().num_threads(0).build_global().unwrap();
        let mut threads = Vec::new();
        for &(id, _) in &seen {
            if !threads.contains(&id) {
                threads.push(id);
            }
        }
        assert_eq!(threads.len(), 3, "the three chunks did not run on three threads");
        assert!(seen.iter().all(|&(_, n)| n == 3), "a worker left the scoped count: {seen:?}");
        assert_eq!(after, 2, "the outer count was not restored");

        // An unwinding `op` restores the outer count too.
        let after_panic = outer.install(|| {
            let unwound = std::panic::catch_unwind(|| inner.install(|| panic!("op unwinds")));
            assert!(unwound.is_err());
            current_num_threads()
        });
        assert_eq!(after_panic, 2, "an unwinding op left its count behind");
    }

    #[test]
    fn parallelism_actually_happens() {
        // With ≥ 2 workers, two long-running chunks must overlap in time:
        // both workers check in before either is released.
        let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        super::ThreadPoolBuilder::new().num_threads(2).build_global().unwrap();
        let arrivals = AtomicUsize::new(0);
        let v = vec![0u8; 2 * super::FIXED_CHUNK]; // exactly two chunks
        let overlapped: Vec<bool> = v
            .par_chunks(super::FIXED_CHUNK)
            .map(|_| {
                arrivals.fetch_add(1, Ordering::SeqCst);
                // Wait (bounded) for the other chunk's worker.
                for spin in 0..10_000_000u64 {
                    if arrivals.load(Ordering::SeqCst) == 2 {
                        return true;
                    }
                    if spin % 1000 == 0 {
                        std::thread::yield_now();
                    }
                    std::hint::spin_loop();
                }
                false
            })
            .collect();
        super::ThreadPoolBuilder::new().num_threads(0).build_global().unwrap();
        assert_eq!(overlapped, [true, true], "chunks never ran concurrently");
    }
}

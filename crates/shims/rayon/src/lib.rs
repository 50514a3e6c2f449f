//! Offline stand-in for the `rayon` crate with a **real** thread pool.
//!
//! The workspace's build environment cannot reach crates.io, so this shim
//! provides the rayon API subset the sources use — `par_iter()` /
//! `par_iter_mut()` on slices, `par_chunks()`, `par_sort_unstable{,_by,_by_key}()`,
//! `join`, `current_num_threads`, and `ThreadPoolBuilder` — executed on
//! worker threads (`std::thread::scope`) that self-schedule chunks of work
//! from a shared atomic cursor, a simple form of work stealing.
//!
//! # Thread count
//!
//! The worker count is, in order of precedence:
//!
//! 1. the last [`ThreadPoolBuilder::build_global`] override (0 resets it),
//! 2. the `SPH_THREADS` environment variable,
//! 3. `std::thread::available_parallelism()`.
//!
//! Unlike real rayon there is no persistent pool — workers are scoped to
//! each parallel call — so `build_global` may be called repeatedly to
//! reconfigure the count mid-process. The determinism test suite relies on
//! this to compare runs at several thread counts inside one binary.
//!
//! # Determinism contract
//!
//! Work is split at **fixed chunk boundaries that depend only on the input
//! length**, never on the thread count ([`FIXED_CHUNK`] elements for the
//! iterator drivers, [`SORT_CHUNK`] for the parallel sort, whose merge takes
//! the left run on ties). Combined with the ordered reduction the call
//! sites perform over chunk results, every result is bit-identical for any
//! `SPH_THREADS` — which is what keeps conservation-drift SDC detection
//! meaningful when the drift is measured on one thread count and checked on
//! another.
//!
//! Swapping the real rayon back in remains a one-line change in the root
//! `Cargo.toml`; every call site is written against real rayon semantics
//! (`Fn + Sync` closures, no shared mutation).

use std::cmp::Ordering as CmpOrdering;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Upper bound on elements per task for the element-wise iterator drivers.
/// Driver task granularity adapts to the input size (it cannot affect
/// results — per-item outputs are reassembled in input order); the fixed
/// chunk boundaries of the determinism contract are the ones the call
/// sites choose via `par_chunks(size)` when they fold inside a chunk.
pub const FIXED_CHUNK: usize = 256;

/// Elements per leaf run of the parallel merge sort. Fixed — the merge
/// order (and thus the permutation of equal keys) depends only on the input
/// length, never on the thread count.
pub const SORT_CHUNK: usize = 4096;

/// `build_global` override; 0 = unset (fall back to env / hardware).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

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

/// Number of worker threads parallel calls will use, truthfully.
pub fn current_num_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => default_threads(),
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

/// Mirror of `rayon::ThreadPoolBuilder` for the global pool. The shim keeps
/// no persistent threads, so — unlike real rayon — `build_global` may be
/// called again to change the count; `num_threads(0)` resets to the
/// `SPH_THREADS` / hardware default.
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
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..ntasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers - 1)
            .map(|_| {
                scope.spawn(|| {
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

/// Hand disjoint `(base_index, chunk)` pieces of `v` to the pool.
fn run_chunks_mut<T, F>(v: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let workers = current_num_threads();
    if workers == 1 || v.len() <= chunk {
        for (c, piece) in v.chunks_mut(chunk).enumerate() {
            f(c * chunk, piece);
        }
        return;
    }
    let queue: Mutex<Vec<(usize, &mut [T])>> = Mutex::new(
        v.chunks_mut(chunk).enumerate().map(|(c, piece)| (c * chunk, piece)).rev().collect(),
    );
    let nworkers = {
        let q = queue.lock().unwrap();
        workers.min(q.len()).max(1)
    };
    std::thread::scope(|scope| {
        for _ in 0..nworkers {
            scope.spawn(|| loop {
                let item = queue.lock().unwrap().pop();
                let Some((base, piece)) = item else { break };
                f(base, piece);
            });
        }
    });
}

/// `rayon::join`: run both closures, potentially in parallel, and return
/// both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(b);
        let ra = a();
        let rb = hb.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        (ra, rb)
    })
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

    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let n = self.pi_len();
        let per_task = task_granularity(n);
        run_tasks(n.div_ceil(per_task), |c| {
            let start = c * per_task;
            let end = n.min(start + per_task);
            for i in start..end {
                f(self.pi_get(i));
            }
        });
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

/// `zip` stage (length = shorter side, like `std`/rayon).
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);

    fn pi_len(&self) -> usize {
        self.a.pi_len().min(self.b.pi_len())
    }

    fn pi_get(&self, index: usize) -> Self::Item {
        (self.a.pi_get(index), self.b.pi_get(index))
    }
}

/// Exclusive-slice source (`par_iter_mut()`). Reduced API: `for_each`,
/// optionally after `enumerate` — the mutable counterpart of a gather
/// loop. Chunks of [`FIXED_CHUNK`] elements run on the pool.
pub struct IterMut<'data, T> {
    slice: &'data mut [T],
}

impl<'data, T: Send> IterMut<'data, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        run_chunks_mut(self.slice, FIXED_CHUNK, |_base, chunk| {
            for item in chunk {
                f(item);
            }
        });
    }

    pub fn enumerate(self) -> EnumerateMut<'data, T> {
        EnumerateMut { slice: self.slice }
    }
}

/// `par_iter_mut().enumerate()`.
pub struct EnumerateMut<'data, T> {
    slice: &'data mut [T],
}

impl<T: Send> EnumerateMut<'_, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut T)) + Sync,
    {
        run_chunks_mut(self.slice, FIXED_CHUNK, |base, chunk| {
            for (off, item) in chunk.iter_mut().enumerate() {
                f((base + off, item));
            }
        });
    }
}

// --------------------------------------------------------------------------
// Parallel sort
// --------------------------------------------------------------------------

/// Raw destination pointer that may cross thread boundaries; every task
/// writes a disjoint index range, which is what makes the sharing sound.
struct SendPtr<T>(*mut T);

// SAFETY: the pointer is only ever dereferenced inside `par_sort_impl`,
// where each spawned task writes the disjoint half-open index range it was
// handed — no two tasks alias, and the allocation outlives the scope that
// joins them. Sending the address itself between threads is then sound.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: sharing `&SendPtr<T>` only exposes the raw address (`get`);
// all writes through it target per-task disjoint ranges (see above), so
// concurrent access cannot produce a data race.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the `Sync`
    /// wrapper, not the raw pointer itself.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Debug-build sanitizer backing the `SendPtr` SAFETY contract: before
/// writing through the shared pointer, every task registers the half-open
/// index range it is about to touch, and any overlap with a previously
/// claimed range panics immediately instead of silently racing. Release
/// builds compile this to a zero-sized no-op.
struct DisjointClaims {
    #[cfg(debug_assertions)]
    claimed: Mutex<Vec<(usize, usize)>>,
}

impl DisjointClaims {
    fn new() -> Self {
        DisjointClaims {
            #[cfg(debug_assertions)]
            claimed: Mutex::new(Vec::new()),
        }
    }

    /// Claim `[start, end)` for exclusive writes. Panics (debug builds
    /// only) when the range intersects one already claimed this level.
    #[allow(unused_variables)]
    fn claim(&self, start: usize, end: usize) {
        #[cfg(debug_assertions)]
        {
            let mut claimed = self.claimed.lock().unwrap_or_else(|e| e.into_inner());
            for &(s, e) in claimed.iter() {
                assert!(
                    end <= s || e <= start,
                    "SendPtr range overlap: task claims [{start}, {end}) but [{s}, {e}) is \
                     already claimed — the chunk split is not disjoint"
                );
            }
            claimed.push((start, end));
        }
    }

    /// Forget all claims — the next merge level reuses the same buffers.
    fn reset(&self) {
        #[cfg(debug_assertions)]
        self.claimed.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// Merge the sorted runs `src[..mid]` and `src[mid..]` into `dst`, taking
/// the left run on ties (stable ⇒ deterministic permutation).
///
/// # Safety
///
/// `dst` must be valid for `src.len()` writes and disjoint from `src`.
/// Elements are moved bitwise; the caller must treat `src` as moved-from
/// (only sound for `!needs_drop` types, which the caller checks).
unsafe fn merge_runs<T, F>(src: &[T], mid: usize, dst: *mut T, cmp: &F)
where
    F: Fn(&T, &T) -> CmpOrdering,
{
    let (mut i, mut j, mut k) = (0usize, mid, 0usize);
    while i < mid && j < src.len() {
        let take_left = cmp(&src[i], &src[j]) != CmpOrdering::Greater;
        let from = if take_left { &src[i] } else { &src[j] };
        std::ptr::write(dst.add(k), std::ptr::read(from));
        i += usize::from(take_left);
        j += usize::from(!take_left);
        k += 1;
    }
    while i < mid {
        std::ptr::write(dst.add(k), std::ptr::read(&src[i]));
        i += 1;
        k += 1;
    }
    while j < src.len() {
        std::ptr::write(dst.add(k), std::ptr::read(&src[j]));
        j += 1;
        k += 1;
    }
}

/// Parallel merge sort: sort [`SORT_CHUNK`]-sized runs on the pool, then
/// merge pairs of runs level by level, ping-ponging between `v` and one
/// scratch buffer. Falls back to `slice::sort_unstable_by` for small
/// inputs, one thread, or element types with drop glue (the bitwise-move
/// merge would double-drop them).
fn par_merge_sort_by<T, F>(v: &mut [T], cmp: F)
where
    T: Send,
    F: Fn(&T, &T) -> CmpOrdering + Sync,
{
    let n = v.len();
    // The algorithm choice must NOT depend on the thread count: the chunked
    // merge and a monolithic sort_unstable permute equal keys differently,
    // and the determinism contract promises one permutation for any
    // `SPH_THREADS`. (With one worker the chunked path simply runs its
    // tasks sequentially.)
    if std::mem::needs_drop::<T>() || n <= SORT_CHUNK {
        v.sort_unstable_by(|a, b| cmp(a, b));
        return;
    }

    run_chunks_mut(v, SORT_CHUNK, |_base, run| run.sort_unstable_by(|a, b| cmp(a, b)));

    let mut scratch: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit<T> needs no initialisation; length ≤ capacity.
    unsafe { scratch.set_len(n) };
    let scratch_ptr = scratch.as_mut_ptr() as *mut T;
    let v_ptr = v.as_mut_ptr();

    let mut width = SORT_CHUNK;
    let mut data_in_v = true;
    let claims = DisjointClaims::new();
    while width < n {
        let (src_root, dst_root) =
            if data_in_v { (v_ptr, scratch_ptr) } else { (scratch_ptr, v_ptr) };
        let src_token = SendPtr(src_root);
        let dst_token = SendPtr(dst_root);
        let npairs = n.div_ceil(2 * width);
        run_tasks(npairs, |p| {
            let start = p * 2 * width;
            let end = n.min(start + 2 * width);
            let mid = width.min(end - start);
            // Debug builds verify the SAFETY contract the comment below
            // asserts: no two tasks may write overlapping dst ranges.
            claims.claim(start, end);
            // SAFETY: each task owns the disjoint range [start, end) of both
            // buffers; src holds initialised (sorted-run) elements from the
            // previous level; dst is valid for writes; T has no drop glue.
            unsafe {
                let src =
                    std::slice::from_raw_parts(src_token.get().add(start) as *const T, end - start);
                merge_runs(src, mid, dst_token.get().add(start), &cmp);
            }
        });
        claims.reset();
        data_in_v = !data_in_v;
        width *= 2;
    }
    if !data_in_v {
        // SAFETY: scratch holds all n initialised elements; buffers disjoint.
        unsafe { std::ptr::copy_nonoverlapping(scratch_ptr as *const T, v_ptr, n) };
    }
    // `MaybeUninit` never drops its payload, so scratch cannot double-free
    // the elements that were moved back into `v`.
}

// --------------------------------------------------------------------------
// Prelude traits
// --------------------------------------------------------------------------

pub mod prelude {
    use super::{Chunks, Iter, IterMut};
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

    /// `par_iter_mut()` for exclusive slices.
    pub trait IntoParallelRefMutIterator<'data> {
        type Iter;
        fn par_iter_mut(&'data mut self) -> Self::Iter;
    }

    impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
        type Iter = IterMut<'data, T>;
        fn par_iter_mut(&'data mut self) -> Self::Iter {
            IterMut { slice: self }
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

    /// Sorting entry points from `rayon::slice::ParallelSliceMut`.
    pub trait ParallelSliceMut<T: Send> {
        fn as_parallel_slice_mut(&mut self) -> &mut [T];

        fn par_sort_unstable(&mut self)
        where
            T: Ord,
        {
            super::par_merge_sort_by(self.as_parallel_slice_mut(), T::cmp);
        }

        fn par_sort_unstable_by<F>(&mut self, cmp: F)
        where
            F: Fn(&T, &T) -> core::cmp::Ordering + Sync,
        {
            super::par_merge_sort_by(self.as_parallel_slice_mut(), cmp);
        }

        fn par_sort_unstable_by_key<K, F>(&mut self, key: F)
        where
            K: Ord,
            F: Fn(&T) -> K + Sync,
        {
            super::par_merge_sort_by(self.as_parallel_slice_mut(), |a, b| key(a).cmp(&key(b)));
        }
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn as_parallel_slice_mut(&mut self) -> &mut [T] {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Tests that set the global thread override must not interleave.
    static POOL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn par_iter_map_collect_preserves_order() {
        let v: Vec<i64> = (0..10_000).collect();
        let doubled: Vec<i64> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_zip_enumerate() {
        let a = [1, 2, 3];
        let b = [10, 20, 30];
        let s: Vec<(usize, i32)> =
            a.par_iter().zip(b.par_iter()).enumerate().map(|(i, (x, y))| (i, x + y)).collect();
        assert_eq!(s, vec![(0, 11), (1, 22), (2, 33)]);
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
    fn par_iter_mut_for_each_touches_everything() {
        let mut v = vec![1i32; 5000];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().all(|&x| x == 2));
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i as i32);
        assert_eq!(v[4999], 4999);
    }

    #[test]
    fn for_each_runs_once_per_item() {
        let count = AtomicUsize::new(0);
        let v = vec![0u8; 3000];
        v.par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3000);
    }

    #[test]
    fn par_sort_unstable_sorts_large_input() {
        // Big enough to exercise the parallel merge path (> SORT_CHUNK).
        let mut v: Vec<(u64, u32)> =
            (0..20_000u64).map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 20, i as u32)).collect();
        let mut reference = v.clone();
        reference.sort_unstable();
        v.par_sort_unstable();
        assert_eq!(v, reference);
    }

    #[test]
    fn par_sort_is_thread_count_invariant() {
        // Duplicate keys on purpose: the fixed chunking + left-on-ties merge
        // must give one permutation regardless of worker count.
        let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let base: Vec<(u64, u32)> = (0..30_000u64).map(|i| (i % 97, i as u32)).collect();
        let mut results = Vec::new();
        for threads in [1usize, 2, 5] {
            super::ThreadPoolBuilder::new().num_threads(threads).build_global().unwrap();
            let mut v = base.clone();
            v.par_sort_unstable_by_key(|&(k, _)| k);
            results.push(v);
        }
        super::ThreadPoolBuilder::new().num_threads(0).build_global().unwrap();
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn par_sort_by_custom_comparator() {
        let mut v: Vec<u64> = (0..10_000).map(|i| (i * 7919) % 10_007).collect();
        let mut reference = v.clone();
        reference.sort_unstable_by(|a, b| b.cmp(a));
        v.par_sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(v, reference);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "SendPtr range overlap")]
    fn overlapping_chunk_split_panics() {
        // Simulate a buggy merge-level split: stride `width` but task size
        // `2 * width`, so consecutive tasks overlap by half. The sanitizer
        // must catch the first overlapping claim.
        let claims = super::DisjointClaims::new();
        let (n, width) = (4 * super::SORT_CHUNK, super::SORT_CHUNK);
        for p in 0..3 {
            let start = p * width; // BUG: should stride by 2 * width
            let end = n.min(start + 2 * width);
            claims.claim(start, end);
        }
    }

    #[test]
    fn disjoint_claims_pass_and_reset_reopens_ranges() {
        // The correct level split — disjoint pair ranges — must not trip
        // the sanitizer, and reset() must allow the next level to claim
        // the same indices again.
        let claims = super::DisjointClaims::new();
        let (n, width) = (5 * super::SORT_CHUNK, super::SORT_CHUNK);
        for p in 0..n.div_ceil(2 * width) {
            let start = p * 2 * width;
            claims.claim(start, n.min(start + 2 * width));
        }
        claims.reset();
        claims.claim(0, n); // whole buffer, legal again after reset
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = super::join(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
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
    fn parallelism_actually_happens() {
        // With ≥ 2 workers, two long-running chunks must overlap in time:
        // both workers check in before either is released.
        let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        super::ThreadPoolBuilder::new().num_threads(2).build_global().unwrap();
        let arrivals = AtomicUsize::new(0);
        let v = vec![0u8; 2 * super::FIXED_CHUNK]; // exactly two chunks
        let overlapped = AtomicUsize::new(0);
        v.par_chunks(super::FIXED_CHUNK).for_each(|_| {
            arrivals.fetch_add(1, Ordering::SeqCst);
            // Wait (bounded) for the other chunk's worker.
            for spin in 0..10_000_000u64 {
                if arrivals.load(Ordering::SeqCst) == 2 {
                    overlapped.fetch_add(1, Ordering::SeqCst);
                    break;
                }
                if spin % 1000 == 0 {
                    std::thread::yield_now();
                }
                std::hint::spin_loop();
            }
        });
        super::ThreadPoolBuilder::new().num_threads(0).build_global().unwrap();
        assert_eq!(overlapped.load(Ordering::SeqCst), 2, "chunks never ran concurrently");
    }
}

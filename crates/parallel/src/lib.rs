//! Deterministic data-parallel executor.
//!
//! Every workspace simulation promises bit-for-bit reproducible output,
//! so parallelism must never change results — only wall-clock time. This
//! crate is the one place allowed to touch `std::thread` (the root
//! `clippy.toml` forbids `spawn`/`scope` elsewhere) and it enforces a simple contract that makes thread count unobservable:
//!
//! 1. **Fixed-size chunking.** Work is split into chunks whose size is a
//!    caller-chosen constant, *independent of the thread count*. A chunk
//!    is the unit of scheduling; the computation inside a chunk runs
//!    sequentially, exactly as the single-threaded code would.
//! 2. **Slot-indexed outputs.** Each chunk's result is tagged with its
//!    chunk index and placed into a pre-determined output slot, so the
//!    assembled output is ordered by chunk, never by completion time.
//! 3. **Chunk-ordered reduction.** Folds over chunk results happen on the
//!    caller's thread, in ascending chunk order. Floating-point
//!    accumulation therefore associates identically at any thread count.
//!
//! Under this contract `threads = 1`, `threads = 8`, and
//! `ANUBIS_THREADS=3` all produce bit-identical results; the property
//! tests in `tests/proptests.rs` pin that down.
//!
//! # Scheduling
//!
//! A call with `w` workers deals its tasks cyclically into `w` buckets
//! (task `i` to bucket `i mod w`). The calling thread runs bucket 0
//! itself; buckets `1..w` go to helper threads from the caller's
//! persistent pool. Each thread that calls the executor lazily owns its
//! own pool, grown to `threads − 1` parked helpers named
//! `anubis-worker-{i}` on first use and joined when that thread exits, so
//! a service loop pays a wake-up per call, not a thread spawn. Idle
//! helpers block on a condition variable and never spin.
//!
//! An executor call made from inside executor work — on a helper, or in
//! the caller's own bucket — runs inline on that thread, in task order.
//! Nested fan-outs (fig8's policies, each running a Selector that calls
//! the executor again) therefore never oversubscribe the host.
//!
//! The same invariance extends to `anubis-obs` traces: executor work
//! never records. Helpers never enable a recorder, and the caller's
//! bucket (like the inline single-worker path) runs under an
//! `anubis_obs::suppress` guard, so a trace's bytes are independent of
//! the thread count too.
//!
//! # Examples
//!
//! ```
//! use anubis_parallel::{map_chunks, reduce_chunks};
//!
//! let xs: Vec<f64> = (0..1000).map(f64::from).collect();
//! // Chunked sum: same chunking (and therefore the same result) at any
//! // thread count.
//! let seq = reduce_chunks(&xs, 64, 1, |_, c| c.iter().sum::<f64>(), |a, b| a + b);
//! let par = reduce_chunks(&xs, 64, 8, |_, c| c.iter().sum::<f64>(), |a, b| a + b);
//! assert_eq!(seq, par);
//! let squares = map_chunks(&xs, 128, 4, |_, c| c.iter().map(|x| x * x).sum::<f64>());
//! assert_eq!(squares.len(), 8); // ceil(1000 / 128) chunk results, in chunk order
//! ```

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Hard cap on worker threads; fleets of simulated nodes parallelize well
/// past this point but the build machines rarely have more cores.
const MAX_THREADS: usize = 16;

/// Environment variable overriding the worker-thread count (`0` or unset
/// selects the hardware default). Results never depend on this value.
pub const THREADS_ENV: &str = "ANUBIS_THREADS";

/// The retired incremental-path toggle. The workspace no longer reads it:
/// CELF selection and the staged Cox-Time trainer are the only paths. The
/// name stays because perfbench's run header still prints the variable.
pub const INCREMENTAL_ENV: &str = "ANUBIS_INCREMENTAL";

/// Worker-thread count from [`THREADS_ENV`], defaulting to the machine's
/// available parallelism, clamped to `1..=16`.
///
/// Only wall-clock time depends on this; every executor entry point is
/// bit-deterministic across thread counts. The environment is read on
/// every call; the hardware default is probed once per process, because
/// the probe reads cgroup files and costs more than a pooled call.
pub fn auto_threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    let configured = anubis_config::parsed::<usize>(THREADS_ENV).unwrap_or(0);
    let threads = if configured == 0 {
        *HARDWARE.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
    } else {
        configured
    };
    threads.clamp(1, MAX_THREADS)
}

/// Resolves a caller-supplied thread count: `0` means [`auto_threads`],
/// anything else is clamped to `1..=16`.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        auto_threads()
    } else {
        threads.clamp(1, MAX_THREADS)
    }
}

/// Runs `tasks` on up to `threads` workers and returns their results in
/// task order. Tasks are assigned to workers cyclically (task `i` to
/// worker `i mod workers`) — a static schedule, so no ordering decision
/// ever depends on timing.
fn execute<T, R, F>(tasks: Vec<T>, threads: usize, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = resolve_threads(threads).min(tasks.len());
    if workers <= 1 || pool::inside() {
        // One worker, or a call nested inside executor work: run inline.
        // The guard makes this path as invisible to `anubis-obs` as a
        // helper thread, which never records, so trace content does not
        // depend on the resolved worker count.
        let _quiet = anubis_obs::suppress();
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| run(i, t))
            .collect();
    }
    let mut buckets: Vec<Mutex<Bucket<T, R>>> = (0..workers)
        .map(|_| Mutex::new(Bucket::Tasks(Vec::new())))
        .collect();
    // Task `i` goes to worker `i % workers`.
    for (task, worker) in tasks.into_iter().enumerate().zip((0..workers).cycle()) {
        if let Some(Bucket::Tasks(bucket)) = buckets
            .get_mut(worker)
            .map(|cell| cell.get_mut().unwrap_or_else(PoisonError::into_inner))
        {
            bucket.push(task);
        }
    }
    let run_bucket = |worker: usize| {
        let Some(cell) = buckets.get(worker) else {
            return;
        };
        let taken = std::mem::replace(&mut *lock(cell), Bucket::Done(Vec::new()));
        if let Bucket::Tasks(tasks) = taken {
            let done = tasks.into_iter().map(|(i, t)| (i, run(i, t))).collect();
            *lock(cell) = Bucket::Done(done);
        }
    };
    pool::dispatch(workers, &run_bucket);
    let mut tagged: Vec<(usize, R)> = buckets
        .into_iter()
        .filter_map(
            |cell| match cell.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Bucket::Done(pairs) => Some(pairs),
                Bucket::Tasks(_) => None,
            },
        )
        .flatten()
        .collect();
    tagged.sort_unstable_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// One worker's share of an [`execute`] call: its tasks until it runs,
/// then their results tagged with task indices.
enum Bucket<T, R> {
    Tasks(Vec<(usize, T)>),
    Done(Vec<(usize, R)>),
}

/// Locks `mutex`, recovering the data if a panicking thread poisoned it:
/// every critical section here is a plain move, so the data is whole.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Splits `items` into chunks of `chunk_size` (the last may be shorter),
/// maps each chunk with `f(chunk_index, chunk)` on up to `threads`
/// workers, and returns the per-chunk results **in chunk order**.
///
/// The chunking is a pure function of `items.len()` and `chunk_size`, so
/// the output is bit-identical at any thread count.
pub fn map_chunks<T, R, F>(items: &[T], chunk_size: usize, threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let tasks: Vec<&[T]> = items.chunks(chunk_size.max(1)).collect();
    execute(tasks, threads, f)
}

/// [`map_chunks`] over mutable chunks: each worker owns a disjoint
/// `&mut [T]` window, so per-item state (e.g. a simulated node's RNG)
/// advances exactly as in a sequential loop.
pub fn map_chunks_mut<T, R, F>(items: &mut [T], chunk_size: usize, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let tasks: Vec<&mut [T]> = items.chunks_mut(chunk_size.max(1)).collect();
    execute(tasks, threads, f)
}

/// Maps `f` over every item, returning results in item order.
///
/// Scheduling granularity is one item; use [`map_chunks`] when per-item
/// work is small enough that scheduling would dominate.
pub fn map_items<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let tasks: Vec<&T> = items.iter().collect();
    execute(tasks, threads, |_, item| f(item))
}

/// Maps `f` over the index range `0..n`, returning results in index
/// order. The indexed twin of [`map_items`] for work that constructs its
/// own inputs (e.g. one simulated node per fleet slot).
pub fn map_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let tasks: Vec<usize> = (0..n).collect();
    execute(tasks, threads, |_, i| f(i))
}

/// Chunk-parallel reduction: maps each fixed-size chunk with `map`, then
/// folds the per-chunk accumulators **in ascending chunk order** on the
/// calling thread. Returns `None` for empty input.
///
/// Because the chunk boundaries and the fold order are both independent
/// of the thread count, floating-point reductions associate identically
/// at any thread count.
pub fn reduce_chunks<T, A, M, F>(
    items: &[T],
    chunk_size: usize,
    threads: usize,
    map: M,
    fold: F,
) -> Option<A>
where
    T: Sync,
    A: Send,
    M: Fn(usize, &[T]) -> A + Sync,
    F: Fn(A, A) -> A,
{
    let partials = map_chunks(items, chunk_size, threads, map);
    partials.into_iter().reduce(fold)
}

/// The per-caller persistent worker pool behind [`execute`].
mod pool {
    use super::lock;
    use std::any::Any;
    use std::cell::{Cell, RefCell};
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::thread::{self, JoinHandle};

    /// One call's work: runs the bucket with the given index.
    type Job<'a> = dyn Fn(usize) + Sync + 'a;

    thread_local! {
        /// Set for the whole life of a helper, and on a caller while it
        /// runs its own bucket: executor calls made there run inline.
        static INSIDE: Cell<bool> = const { Cell::new(false) };
        /// This thread's helpers, spawned on first use and joined when
        /// the thread exits.
        static POOL: RefCell<Pool> = RefCell::new(Pool::default());
    }

    /// Whether this thread is running executor work.
    pub(super) fn inside() -> bool {
        INSIDE.try_with(Cell::get).unwrap_or(true)
    }

    /// Runs `job(0)` up to `job(buckets - 1)` and returns once every one
    /// has finished. Bucket 0 runs on this thread; the rest run on this
    /// thread's helpers (or here too, if a helper could not be spawned).
    /// A panic in any bucket is re-raised here.
    pub(super) fn dispatch(buckets: usize, job: &Job<'_>) {
        let pooled = POOL.try_with(|cell| match cell.try_borrow_mut() {
            Ok(mut pool) => {
                pool.run(buckets, job);
                true
            }
            Err(_) => false,
        });
        if pooled != Ok(true) {
            run_here(0..buckets, job);
        }
    }

    /// Runs `range` of `job`'s buckets on this thread, invisible to
    /// `anubis-obs` and with nested executor calls inline.
    fn run_here(range: std::ops::Range<usize>, job: &Job<'_>) {
        let _inside = Inside::enter();
        let _quiet = anubis_obs::suppress();
        for bucket in range {
            job(bucket);
        }
    }

    /// Marks this thread as inside executor work until dropped, unwinding
    /// included.
    struct Inside(bool);

    impl Inside {
        fn enter() -> Self {
            Self(INSIDE.try_with(|flag| flag.replace(true)).unwrap_or(true))
        }
    }

    impl Drop for Inside {
        fn drop(&mut self) {
            let previous = self.0;
            let _ = INSIDE.try_with(|flag| flag.set(previous));
        }
    }

    /// What a caller and its helpers share.
    #[derive(Default)]
    struct Shared {
        state: Mutex<State>,
        /// Wakes helpers: a call was posted, or the pool is closing.
        posted: Condvar,
        /// Wakes the caller: the call's last helper bucket finished.
        done: Condvar,
    }

    #[derive(Default)]
    struct State {
        /// Numbers the posted calls, so a helper runs each one once.
        call: u64,
        /// The current call's job, `None` once it has finished.
        job: Option<&'static Job<'static>>,
        /// Buckets of the current call handed to helpers: `1..=helpers`.
        helpers: usize,
        /// Helper buckets of the current call not yet finished.
        pending: usize,
        /// The first panic a helper caught in the current call.
        panic: Option<Box<dyn Any + Send>>,
        closing: bool,
    }

    impl Shared {
        /// Blocks until every helper bucket of the current call has
        /// finished, then retires the call's job.
        fn wait_done(&self) {
            let mut state = lock(&self.state);
            while state.pending > 0 {
                state = self
                    .done
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.job = None;
        }
    }

    /// Blocks the dispatching frame on drop until every helper is done
    /// with the call's job, so the borrowed job outlives all its uses
    /// even when the caller's own bucket unwinds.
    struct WaitGuard<'s>(&'s Shared);

    impl Drop for WaitGuard<'_> {
        fn drop(&mut self) {
            self.0.wait_done();
        }
    }

    #[derive(Default)]
    struct Pool {
        shared: Arc<Shared>,
        helpers: Vec<JoinHandle<()>>,
    }

    impl Pool {
        /// Spawns helpers until there are `n`; returns how many exist up
        /// to `n` (fewer only if the OS refused a thread).
        fn grow(&mut self, n: usize) -> usize {
            while self.helpers.len() < n {
                let bucket = self.helpers.len() + 1;
                let shared = Arc::clone(&self.shared);
                let name = format!("anubis-worker-{bucket}");
                let Ok(handle) = spawn_named(name, move || serve(&shared, bucket)) else {
                    break;
                };
                self.helpers.push(handle);
            }
            self.helpers.len().min(n)
        }

        fn run(&mut self, buckets: usize, job: &Job<'_>) {
            let helpers = self.grow(buckets.saturating_sub(1));
            // SAFETY: only the lifetime is erased. `job` outlives this
            // frame, and `wait` blocks this frame's exit, on return and on
            // unwinding alike, until every helper that can see the job has
            // counted `pending` down after its last use of it; then the
            // job is retired from the shared state. Helpers catch their
            // own panics, so each one always counts down.
            let job_static: &'static Job<'static> =
                unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
            {
                let mut state = lock(&self.shared.state);
                state.call = state.call.wrapping_add(1);
                state.job = Some(job_static);
                state.helpers = helpers;
                state.pending = helpers;
                state.panic = None;
            }
            let wait = WaitGuard(&self.shared);
            self.shared.posted.notify_all();
            run_here(0..1, job);
            run_here(helpers + 1..buckets, job);
            drop(wait);
            if let Some(payload) = lock(&self.shared.state).panic.take() {
                panic::resume_unwind(payload);
            }
        }
    }

    impl Drop for Pool {
        fn drop(&mut self) {
            lock(&self.shared.state).closing = true;
            self.shared.posted.notify_all();
            for helper in self.helpers.drain(..) {
                let _ = helper.join();
            }
        }
    }

    /// Spawns a named thread. The executor is the one sanctioned owner of
    /// raw threads, and this is its one spawn site.
    pub(super) fn spawn_named<T, F>(name: String, body: F) -> std::io::Result<JoinHandle<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        #[allow(clippy::disallowed_methods)]
        thread::Builder::new().name(name).spawn(body)
    }

    /// A helper's life: park until a call is posted, run its bucket if
    /// the call has one for it, count down, repeat until the pool closes.
    fn serve(shared: &Shared, bucket: usize) {
        let _inside = Inside::enter();
        let mut seen = 0;
        let mut state = lock(&shared.state);
        while !state.closing {
            if state.call != seen {
                seen = state.call;
                if let Some(job) = state.job.filter(|_| bucket <= state.helpers) {
                    drop(state);
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| job(bucket)));
                    state = lock(&shared.state);
                    state.pending = state.pending.saturating_sub(1);
                    if state.panic.is_none() {
                        state.panic = outcome.err();
                    }
                    if state.pending == 0 {
                        shared.done.notify_one();
                    }
                    continue;
                }
            }
            state = shared
                .posted
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_chunks_preserves_order() {
        let items: Vec<u64> = (0..103).collect();
        for threads in [1, 2, 5, 16] {
            let sums = map_chunks(&items, 10, threads, |idx, chunk| {
                (idx, chunk.iter().sum::<u64>())
            });
            assert_eq!(sums.len(), 11);
            for (slot, (idx, _)) in sums.iter().enumerate() {
                assert_eq!(slot, *idx);
            }
            assert_eq!(sums.iter().map(|(_, s)| s).sum::<u64>(), 103 * 102 / 2);
        }
    }

    #[test]
    fn map_chunks_mut_covers_every_item_once() {
        for threads in [1, 3, 8] {
            let mut items = vec![0u32; 57];
            map_chunks_mut(&mut items, 5, threads, |_, chunk| {
                for item in chunk.iter_mut() {
                    *item += 1;
                }
            });
            assert!(items.iter().all(|&v| v == 1));
        }
    }

    #[test]
    fn map_items_and_indexed_agree() {
        let items: Vec<usize> = (0..37).collect();
        let a = map_items(&items, 4, |&i| i * i);
        let b = map_indexed(items.len(), 4, |i| i * i);
        assert_eq!(a, b);
    }

    #[test]
    fn reduce_chunks_is_thread_count_invariant() {
        // A deliberately ill-conditioned float sum: any re-association
        // across chunk boundaries would change the bits.
        let items: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1e16 } else { 3.33333 })
            .collect();
        let reference = reduce_chunks(&items, 7, 1, |_, c| c.iter().sum::<f64>(), |a, b| a + b);
        for threads in [2, 3, 8, 16] {
            let parallel = reduce_chunks(
                &items,
                7,
                threads,
                |_, c| c.iter().sum::<f64>(),
                |a, b| a + b,
            );
            assert_eq!(reference, parallel);
        }
        assert_eq!(
            reduce_chunks::<f64, f64, _, _>(&[], 4, 2, |_, c| c.iter().sum(), |a, b| a + b),
            None
        );
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_chunks(&empty, 4, 8, |_, c| c.len()).is_empty());
        assert_eq!(map_chunks(&[1u8], 0, 8, |_, c| c.len()), vec![1]);
        assert!(map_indexed(0, 8, |i| i).is_empty());
    }

    #[test]
    fn resolve_threads_clamps() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(10_000), MAX_THREADS);
        assert!(auto_threads() >= 1 && auto_threads() <= MAX_THREADS);
    }

    #[test]
    fn concurrent_callers_each_get_correct_results() {
        // Four callers, each with its own pool, released together so
        // their calls overlap.
        let start = std::sync::Arc::new(std::sync::Barrier::new(4));
        let callers: Vec<_> = (0..4u64)
            .map(|k| {
                let start = std::sync::Arc::clone(&start);
                pool::spawn_named(format!("caller-{k}"), move || {
                    let items: Vec<u64> = (0..500).map(|i| i * (k + 1)).collect();
                    let expected: Vec<u64> = items.chunks(16).map(|c| c.iter().sum()).collect();
                    start.wait();
                    (0..200).all(|_| {
                        map_chunks(&items, 16, 4, |_, c| c.iter().sum::<u64>()) == expected
                    })
                })
            })
            .collect();
        for caller in callers {
            assert!(caller
                .expect("spawn caller")
                .join()
                .expect("caller panicked"));
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            map_indexed(16, 4, |i| {
                assert!(i != 9, "boom");
                i
            })
        });
        assert!(caught.is_err());
    }
}

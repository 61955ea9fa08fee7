//! The batch engine: an in-repo work-stealing thread pool.
//!
//! Batch workloads — [`Solver::solve_batch`](crate::Solver::solve_batch), the
//! experiment harness sweeping hundreds of random instances per parameter point, the
//! scaling benchmarks — fan independent problems out over threads.  The engine here is
//! a [`ThreadPool`]: items are split into cache-friendly contiguous chunks, each worker
//! starts with its own run of chunks, and a worker that drains its own queue **steals**
//! chunks from the busiest end of its siblings' queues, so uneven per-item cost (one
//! hard instance among many easy ones) cannot idle a core.  Everything is built on
//! `std::thread::scope` — no external dependencies, no unsafe code — and results are
//! always returned in input order, so a parallel map is observably identical to a
//! sequential one.
//!
//! ```
//! use busytime::par::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! assert_eq!(pool.threads(), 4);
//! let squares = pool.map_range(6, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25]);
//!
//! let words = ["busy", "time"];
//! let lens = pool.map(&words, |w| w.len());
//! assert_eq!(lens, vec![4, 4]);
//! ```
//!
//! The pool size defaults to every available core; [`set_default_threads`] (or the
//! `BUSYTIME_THREADS` environment variable, or the CLI's `--threads`) pins it
//! process-wide for every caller that uses [`ThreadPool::with_default_parallelism`].
//! Batches of solve requests go through
//! [`Solver::solve_batch`](crate::Solver::solve_batch); any other per-item work goes
//! through [`ThreadPool::map`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide thread-count override; 0 means "not set".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Pin the default pool size for every later
/// [`ThreadPool::with_default_parallelism`] (the CLI's `--threads` lands here).
/// A value of 0 clears the override.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// The pool size [`ThreadPool::with_default_parallelism`] will use: the
/// [`set_default_threads`] override if set, else the `BUSYTIME_THREADS` environment
/// variable, else one thread per available core.
pub fn default_threads() -> usize {
    let pinned = DEFAULT_THREADS.load(Ordering::Relaxed);
    if pinned > 0 {
        return pinned;
    }
    if let Some(n) = std::env::var("BUSYTIME_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Target number of chunks handed to each worker: enough slack for stealing to
/// rebalance uneven items without making the per-chunk overhead visible.
const CHUNKS_PER_WORKER: usize = 8;

/// A scoped work-stealing thread pool over index ranges.
///
/// The pool is a *policy*, not a set of live threads: each [`ThreadPool::map`] /
/// [`ThreadPool::map_range`] call spawns scoped workers, runs the batch to completion
/// and joins them, so borrows of the surrounding stack (the items, the solver, the
/// closure's captures) work without `Arc` or `'static` bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    threads: usize,
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::with_default_parallelism()
    }
}

impl ThreadPool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized by [`default_threads`]: the process-wide override when set, else
    /// one worker per available core.
    pub fn with_default_parallelism() -> Self {
        ThreadPool::new(default_threads())
    }

    /// The number of workers this pool runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item, in parallel, returning results in input order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_range(items.len(), |i| f(&items[i]))
    }

    /// Apply `f` to every index in `0..n`, in parallel, returning results in index
    /// order — the primitive the harness sweeps (`trials` repetitions of a
    /// configuration) run on.
    pub fn map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }

        // Contiguous chunks, dealt to workers as consecutive runs so each worker's
        // own queue walks memory forward; stealing takes from the *far* end of a
        // victim's queue to keep the victim's locality intact.
        let chunk_len = n.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
        let chunks: Vec<(usize, usize)> = (0..n)
            .step_by(chunk_len)
            .map(|start| (start, (start + chunk_len).min(n)))
            .collect();
        let per_worker = chunks.len().div_ceil(workers);
        let queues: Vec<Mutex<VecDeque<(usize, usize)>>> = (0..workers)
            .map(|w| {
                let lo = (w * per_worker).min(chunks.len());
                let hi = ((w + 1) * per_worker).min(chunks.len());
                Mutex::new(chunks[lo..hi].iter().copied().collect::<VecDeque<_>>())
            })
            .collect();
        let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(chunks.len()));

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queues = &queues;
                    let parts = &parts;
                    let f = &f;
                    scope.spawn(move || loop {
                        // Own queue first (front: the worker's next contiguous run).
                        // The guard must drop before stealing — holding one's own
                        // lock while probing a sibling's would deadlock two workers
                        // stealing from each other.
                        let own = queues[w].lock().unwrap().pop_front();
                        let task = own.or_else(|| {
                            // Steal, scanning siblings from the back.
                            (1..workers).find_map(|offset| {
                                queues[(w + offset) % workers].lock().unwrap().pop_back()
                            })
                        });
                        let Some((start, end)) = task else {
                            break;
                        };
                        let out: Vec<R> = (start..end).map(f).collect();
                        parts.lock().unwrap().push((start, out));
                    })
                })
                .collect();
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });

        let mut parts = parts.into_inner().unwrap();
        parts.sort_unstable_by_key(|&(start, _)| start);
        let mut out = Vec::with_capacity(n);
        for (_, part) in parts {
            out.extend(part);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Duration, Instance, Problem, Solver};

    fn instances() -> Vec<Instance> {
        vec![
            Instance::from_ticks(&[(0, 5), (0, 9), (0, 2)], 2),
            Instance::from_ticks(&[(0, 10), (2, 12), (4, 14)], 2),
            Instance::from_ticks(&[(0, 10), (2, 5), (8, 20), (15, 18)], 2),
            Instance::from_ticks(&[], 3),
        ]
    }

    #[test]
    fn pool_map_matches_sequential_at_every_width() {
        for threads in [1usize, 2, 3, 4, 16] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.threads(), threads);
            for n in [0usize, 1, 2, 7, 100, 1_000] {
                let expected: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
                assert_eq!(
                    pool.map_range(n, |i| i * 3 + 1),
                    expected,
                    "threads = {threads}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn pool_rebalances_uneven_items() {
        // A heavily skewed workload: the last item costs as much as all others
        // together.  Correctness (order, completeness) must be unaffected.
        let pool = ThreadPool::new(4);
        let out = pool.map_range(64, |i| {
            let rounds = if i == 63 { 200_000u64 } else { 100 };
            (0..rounds).fold(i as u64, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
        });
        let seq: Vec<u64> = (0..64)
            .map(|i| {
                let rounds = if i == 63 { 200_000u64 } else { 100 };
                (0..rounds).fold(i as u64, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
            })
            .collect();
        assert_eq!(out, seq);
    }

    #[test]
    fn pool_propagates_panics() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(|| {
            pool.map_range(8, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn default_threads_override_round_trips() {
        let before = default_threads();
        assert!(before >= 1);
        set_default_threads(3);
        assert_eq!(default_threads(), 3);
        assert_eq!(ThreadPool::with_default_parallelism().threads(), 3);
        set_default_threads(0);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn batch_minbusy_matches_sequential() {
        let insts = instances();
        let solver = Solver::new();
        for threads in [1usize, 2, 4] {
            let parallel = ThreadPool::new(threads).map(&insts, |i| solver.solve_min_busy(i));
            for (inst, result) in insts.iter().zip(parallel) {
                let batched = result.unwrap();
                let sequential = solver.solve_min_busy(inst).unwrap();
                assert_eq!(batched.algorithm, sequential.algorithm);
                assert_eq!(batched.schedule, sequential.schedule);
                batched.schedule.validate_complete(inst).unwrap();
            }
        }
    }

    #[test]
    fn batch_maxthroughput_respects_budgets() {
        let budget = Duration::new(12);
        let problems: Vec<Problem> = instances()
            .into_iter()
            .map(|i| Problem::max_throughput(i, budget))
            .collect();
        let results = Solver::new().solve_batch(&problems);
        assert_eq!(results.len(), problems.len());
        for (problem, result) in problems.iter().zip(results) {
            let solution = result.unwrap();
            solution
                .schedule
                .validate_budgeted(problem.instance(), budget)
                .unwrap();
        }
    }
}

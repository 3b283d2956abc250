//! A hand-rolled work-queue executor for embarrassingly parallel job sets.
//!
//! The experiment matrix of a [`crate::sweep::Sweep`] is a cross-product of
//! independent cells — exactly the shape of the paper's Section 7 evaluation
//! (protocols × deal topologies × adversary behaviours) — so it parallelizes
//! trivially: each cell builds its own world and runs to completion without
//! touching any other cell's state. The build environment has no crates.io
//! access (no rayon), so this module provides the minimal pool the sweeps
//! need, built on [`std::thread::scope`]:
//!
//! * jobs are indexed `0..jobs` and pulled from a shared atomic counter, so
//!   workers self-balance regardless of per-cell cost;
//! * results carry their index and are re-ordered before returning, so the
//!   output of [`run_indexed`] is **always in job order** — callers observe
//!   byte-identical results whether the pool ran with 1 thread or 16;
//! * `threads == 1` (or a single job) short-circuits to a plain serial loop
//!   with zero synchronization, which is what the determinism tests compare
//!   the parallel runs against.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The number of worker threads to use by default: the machine's available
/// parallelism, or 1 if it cannot be determined.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `job(0..jobs)` across `threads` scoped workers and returns the
/// results **in job-index order** (as if computed by a serial loop).
///
/// `job` must be safe to call concurrently from several threads (`Sync`); the
/// sweep satisfies this by sharing only `Sync` state between cells (its
/// engines and plans, built once per run) while each cell builds its own
/// world. Panics in a job propagate to the caller once all workers have
/// joined (the sweep catches them inside each cell first).
pub fn run_indexed<T, F>(jobs: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(jobs.max(1));
    if threads <= 1 {
        return (0..jobs).map(job).collect();
    }

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(jobs));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Claim-then-run loop; batch the lock at the end so workers
                // never serialize on the results vector mid-run.
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    local.push((i, job(i)));
                }
                results.lock().expect("executor results lock").extend(local);
            });
        }
    });

    let mut indexed = results.into_inner().expect("executor results lock");
    debug_assert_eq!(indexed.len(), jobs);
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        for threads in [1, 2, 8, 64] {
            let out = run_indexed(37, threads, |i| i * i);
            assert_eq!(
                out,
                (0..37).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let counter = AtomicU64::new(0);
        let out = run_indexed(100, 8, |_| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(out.len(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_jobs_and_degenerate_thread_counts() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
        assert_eq!(run_indexed(3, 0, |i| i), vec![0, 1, 2]);
        assert_eq!(run_indexed(1, 16, |i| i + 1), vec![1]);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}

//! Deterministic fan-out of independent shard/member timelines.
//!
//! The striped RAID group and the farm layer both run N mutually
//! independent single-disk simulations and fold the results. This module
//! owns the one primitive they share: map an index range through a worker
//! function, either serially or on `std::thread` scoped threads, and hand
//! the results back **in index order** regardless of completion order.
//!
//! Because the timelines share no mutable state and the merge order is
//! fixed, the parallel path is bit-identical to the serial one — callers
//! pick [`Parallelism`] purely on wall-clock grounds.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How [`run_indexed`] executes its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Run every index on the calling thread, in order. The reference
    /// behaviour: traced runs stay reproducible down to the event stream.
    Serial,
    /// Fan out over up to this many scoped worker threads.
    Threads(NonZeroUsize),
}

impl Parallelism {
    /// One thread per available core (serial on single-core machines or
    /// when availability cannot be determined).
    pub fn auto() -> Self {
        match std::thread::available_parallelism() {
            Ok(n) if n.get() > 1 => Parallelism::Threads(n),
            _ => Parallelism::Serial,
        }
    }

    /// `n` worker threads; `n <= 1` degrades to [`Parallelism::Serial`].
    pub fn threads(n: usize) -> Self {
        match NonZeroUsize::new(n) {
            Some(n) if n.get() > 1 => Parallelism::Threads(n),
            _ => Parallelism::Serial,
        }
    }

    /// Worker threads that would actually be spawned for `jobs` jobs.
    pub fn worker_count(self, jobs: usize) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.get().min(jobs).max(1),
        }
    }
}

/// Run `job(0..n)` under the given parallelism and return the results in
/// index order.
///
/// Workers pull indices from a shared atomic counter, so an uneven load
/// (one hot shard) does not idle the other threads. Results land in
/// per-index slots; nothing about thread scheduling can reorder them.
pub fn run_indexed<R, F>(n: usize, parallelism: Parallelism, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = parallelism.worker_count(n);
    if workers <= 1 || n <= 1 {
        return (0..n).map(job).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = job(i);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_degrade_to_serial() {
        assert_eq!(Parallelism::threads(0), Parallelism::Serial);
        assert_eq!(Parallelism::threads(1), Parallelism::Serial);
        assert!(matches!(Parallelism::threads(4), Parallelism::Threads(_)));
        assert_eq!(Parallelism::threads(4).worker_count(2), 2);
        assert_eq!(Parallelism::Serial.worker_count(8), 1);
    }

    #[test]
    fn results_come_back_in_index_order() {
        for p in [Parallelism::Serial, Parallelism::threads(4)] {
            let out = run_indexed(17, p, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_jobs() {
        assert!(run_indexed(0, Parallelism::threads(4), |i| i).is_empty());
        assert_eq!(run_indexed(1, Parallelism::threads(4), |i| i), vec![0]);
    }

    #[test]
    fn parallel_matches_serial_on_nontrivial_work() {
        let work = |i: usize| {
            // Deterministic mixing so a reordering bug shows up.
            let mut x = i as u64 + 1;
            for _ in 0..1_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            x
        };
        let serial = run_indexed(32, Parallelism::Serial, work);
        let parallel = run_indexed(32, Parallelism::threads(8), work);
        assert_eq!(serial, parallel);
    }
}

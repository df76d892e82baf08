//! Work-stealing index distribution for parallel loops.
//!
//! The sweeps and replication runners used to split their index space into
//! one static contiguous chunk per core. That is optimal only when every
//! item costs the same; LoPC sweeps are *skewed* (small-`P` simulation
//! points run an order of magnitude longer than large-`P` ones, because
//! contention stretches the simulated horizon), so static chunking
//! serializes on whichever thread drew the expensive chunk.
//!
//! [`WorkQueue`] replaces the static split with atomic index claiming over a
//! shared cursor: idle workers keep stealing the next unclaimed index (or a
//! guided-size block of indices) until the space is exhausted, so the
//! wall-clock time tracks the *sum* of item costs divided by the core count
//! instead of the slowest chunk. See DESIGN.md §6.
//!
//! # Example
//!
//! ```
//! use lopc_solver::steal::WorkQueue;
//!
//! let q = WorkQueue::new(10);
//! let mut claimed = Vec::new();
//! while let Some(i) = q.claim() {
//!     claimed.push(i);
//! }
//! assert_eq!(claimed, (0..10).collect::<Vec<_>>());
//! assert!(q.claim().is_none());
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A shared claim cursor over the index space `0..len`.
///
/// Each index is handed out exactly once across all threads. Claims are
/// wait-free (`fetch_add`); share one queue per parallel loop by reference
/// (`&WorkQueue` is `Sync`).
#[derive(Debug)]
pub struct WorkQueue {
    next: AtomicUsize,
    len: usize,
}

impl WorkQueue {
    /// Queue over the index space `0..len`.
    pub fn new(len: usize) -> Self {
        WorkQueue {
            next: AtomicUsize::new(0),
            len,
        }
    }

    /// Claim the next single index, or `None` when the space is exhausted.
    ///
    /// Use for expensive items (whole simulation runs) where per-item
    /// claiming overhead is negligible.
    #[inline]
    pub fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.len).then_some(i)
    }

    /// Claim a guided-size block of indices: roughly `remaining / (4·w)`
    /// where `w` is the worker count, never less than one index.
    ///
    /// Large blocks early amortize the atomic traffic; shrinking blocks near
    /// the tail keep the load balanced (guided self-scheduling). Use for
    /// cheap items such as single model evaluations.
    #[inline]
    pub fn claim_block(&self, workers: usize) -> Option<Range<usize>> {
        // The size estimate may be computed from a stale cursor; that only
        // changes the block size, never hands an index out twice.
        let seen = self.next.load(Ordering::Relaxed);
        let size = (self.len.saturating_sub(seen) / (4 * workers.max(1))).max(1);
        let start = self.next.fetch_add(size, Ordering::Relaxed);
        if start >= self.len {
            return None;
        }
        Some(start..(start + size).min(self.len))
    }

    /// Total size of the index space.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the index space is empty (`len == 0`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Number of worker threads for a parallel loop over `items` indices:
/// the available parallelism, never more than the item count (and at
/// least one). Shared policy for [`par_map`](crate::par_map) and the
/// simulator's replication runner.
pub fn worker_count(items: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn sequential_claims_cover_space_once() {
        let q = WorkQueue::new(5);
        let got: Vec<usize> = std::iter::from_fn(|| q.claim()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(q.claim().is_none());
        assert!(q.claim().is_none(), "stays exhausted");
    }

    #[test]
    fn blocks_cover_space_exactly_once() {
        let q = WorkQueue::new(1000);
        let mut seen = vec![false; 1000];
        while let Some(r) = q.claim_block(4) {
            for i in r {
                assert!(!seen[i], "index {i} claimed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every index claimed");
    }

    #[test]
    fn blocks_shrink_towards_tail() {
        let q = WorkQueue::new(1024);
        let first = q.claim_block(4).unwrap();
        assert!(first.len() > 1, "early blocks amortize");
        // Drain almost everything.
        while q.claim_block(4).is_some_and(|r| r.end < 1024) {}
        // The cursor is exhausted; further claims fail.
        assert!(q.claim_block(4).is_none());
    }

    #[test]
    fn concurrent_claims_are_disjoint_and_complete() {
        let n = 10_000;
        let q = WorkQueue::new(n);
        let claimed = Mutex::new(vec![0u8; n]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    while let Some(i) = q.claim() {
                        local.push(i);
                    }
                    let mut seen = claimed.lock().unwrap();
                    for i in local {
                        seen[i] += 1;
                    }
                });
            }
        });
        let seen = claimed.lock().unwrap();
        assert!(seen.iter().all(|&c| c == 1), "each index exactly once");
    }

    #[test]
    fn empty_queue() {
        let q = WorkQueue::new(0);
        assert!(q.is_empty());
        assert!(q.claim().is_none());
        assert!(q.claim_block(8).is_none());
    }

    #[test]
    fn worker_count_bounded_by_items() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1_000_000) >= 1);
    }
}

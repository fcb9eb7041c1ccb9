//! Generic content-addressed task execution.
//!
//! [`TaskCache<V>`] is the one in-memory content-addressed store of the
//! harness: a `u128 -> V` map with its lookup and insert counters. The
//! simulation cache ([`crate::SimCache`]) is this store over `f64` wall
//! times plus its own append-only disk lane; the analysis caches (e.g.
//! per-component critical-cycle enumeration, whose results are cycle
//! *sets*, not scalars) use it directly, in memory only — the store itself
//! has no disk lane.
//!
//! [`run_cached_tasks`] executes a batch through the same scoped-thread
//! scheduler as simulation jobs. Keys are computed on the pool, cache hits
//! resolve up front, misses fan out via [`crate::run_keyed`], and results
//! return **in submission order** — output is bit-identical at any worker
//! count.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::cache::CacheStats;
use crate::scheduler::run_keyed;

/// Content-addressed `u128 -> V` store with hit, miss and put counters.
pub struct TaskCache<V> {
    entries: Mutex<HashMap<u128, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
}

impl<V: Clone> Default for TaskCache<V> {
    fn default() -> Self {
        TaskCache::in_memory()
    }
}

impl<V: Clone> TaskCache<V> {
    /// Fresh in-memory cache.
    #[must_use]
    pub fn in_memory() -> Self {
        TaskCache::with_entries(HashMap::new())
    }

    /// A store holding `entries` (loaded, not put: no counter moves).
    pub(crate) fn with_entries(entries: HashMap<u128, V>) -> Self {
        TaskCache {
            entries: Mutex::new(entries),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
        }
    }

    /// Look up a result, counting the hit or miss.
    pub fn get(&self, key: u128) -> Option<V> {
        let found = self
            .entries
            .lock()
            .expect("task cache poisoned")
            .get(&key)
            .cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Insert a result unless `key` is already present (first writer
    /// wins); returns whether this call inserted it.
    pub fn put(&self, key: u128, value: &V) -> bool {
        let fresh = match self.entries.lock().expect("task cache poisoned").entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(value.clone());
                true
            }
        };
        if fresh {
            self.puts.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// First-writer inserts so far.
    pub fn puts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }

    /// Number of stored results.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("task cache poisoned").len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The counter snapshot, for metrics export (the disk fields stay 0).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len() as u64,
            hits: self.hits(),
            misses: self.misses(),
            puts: self.puts(),
            ..CacheStats::default()
        }
    }
}

/// Run `tasks` through the scoped-thread scheduler with content-addressed
/// reuse, returning results **in submission order** (bit-identical at any
/// worker count).
///
/// Keys are computed on the pool first (they can themselves be nontrivial
/// hashes of large inputs); hits resolve from `cache` without executing;
/// misses fan out together and are stored back. Without a cache every
/// task simply runs.
pub fn run_cached_tasks<T, V, K, F>(
    tasks: &[T],
    threads: usize,
    cache: Option<&TaskCache<V>>,
    key_of: K,
    run: F,
) -> Vec<V>
where
    T: Sync,
    V: Clone + Send,
    K: Fn(&T) -> u128 + Sync,
    F: Fn(&T) -> V + Sync,
{
    let Some(cache) = cache else {
        return run_keyed(tasks, threads, run);
    };
    let keys = run_keyed(tasks, threads, key_of);
    let mut slots: Vec<Option<V>> = keys.iter().map(|&k| cache.get(k)).collect();
    // One representative per distinct missing key: duplicates inside a
    // batch (repeated program shapes) compute once and fan out.
    let mut rep_idx: Vec<usize> = vec![];
    for i in (0..tasks.len()).filter(|&i| slots[i].is_none()) {
        if !rep_idx.iter().any(|&r| keys[r] == keys[i]) {
            rep_idx.push(i);
        }
    }
    let fresh = run_keyed(&rep_idx, threads, |&i| run(&tasks[i]));
    for (&r, value) in rep_idx.iter().zip(fresh) {
        cache.put(keys[r], &value);
        for i in 0..tasks.len() {
            if slots[i].is_none() && keys[i] == keys[r] {
                slots[i] = Some(value.clone());
            }
        }
    }
    slots
        .into_iter()
        .map(|v| v.expect("every task resolved or computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_submission_order_at_any_worker_count() {
        let tasks: Vec<u64> = (0..97).collect();
        let serial = run_cached_tasks(&tasks, 1, None, |&t| u128::from(t), |&t| t * 3);
        for threads in [2, 4, 7] {
            let parallel = run_cached_tasks(&tasks, threads, None, |&t| u128::from(t), |&t| t * 3);
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn cache_resolves_repeats_without_recomputing() {
        let cache = TaskCache::in_memory();
        let executed = AtomicUsize::new(0);
        let tasks: Vec<u64> = vec![1, 2, 1, 3, 2, 1];
        let run = |&t: &u64| {
            executed.fetch_add(1, Ordering::Relaxed);
            t + 100
        };
        // Duplicate keys within one batch compute once and fan out; across
        // batches every repeat is a hit.
        let first = run_cached_tasks(&tasks, 2, Some(&cache), |&t| u128::from(t), run);
        assert_eq!(first, vec![101, 102, 101, 103, 102, 101]);
        assert_eq!(executed.load(Ordering::Relaxed), 3);
        let second = run_cached_tasks(&tasks, 2, Some(&cache), |&t| u128::from(t), run);
        assert_eq!(second, first);
        assert_eq!(executed.load(Ordering::Relaxed), 3);
        assert_eq!(cache.hits(), 6);
        assert_eq!(cache.len(), 3);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.puts), (3, 3));
        assert_eq!((stats.hits, stats.misses), (6, 6));
        assert_eq!(stats.disk_appends, 0, "in-memory cache never appends");
    }
}

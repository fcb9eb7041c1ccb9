//! Generic content-addressed task execution for analysis workloads.
//!
//! The simulation path pairs [`crate::ParallelExecutor`] with the
//! [`crate::SimCache`], both specialised to `SimJob -> f64`. Static
//! analysis wants the same discipline — deterministic keyed fan-out plus
//! content-addressed reuse — for arbitrary task and result types (e.g.
//! per-component critical-cycle enumeration, whose results are cycle
//! *sets*, not scalars). This module provides that seam:
//!
//! - [`TaskCache<V>`]: a `u128 -> V` store keyed by a two-lane FNV hash
//!   ([`crate::cache::Fnv128`]), with an optional append-only disk lane
//!   sitting alongside the sim results.
//! - [`run_cached_tasks`]: batch execution through the same scoped-thread
//!   scheduler as simulation jobs. Keys are computed on the pool, cache
//!   hits resolve up front, misses fan out via [`crate::run_keyed`], and
//!   results return **in submission order** — output is bit-identical at
//!   any worker count.
//!
//! The disk lane stores one task per line as `key payload|` (32 hex key
//! digits, one space, a caller-encoded single-line payload, a trailing
//! `|` terminator). A torn final line from a killed process fails either
//! the width check, the terminator check or the caller's decoder, and is
//! simply re-computed — the lane is an optimisation, never a correctness
//! input.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::cache::CacheStats;
use crate::scheduler::run_keyed;

/// Single-line payload codec for a [`TaskCache`] disk lane. `encode` must
/// emit no newlines or `|`; `decode` returns `None` on any malformed
/// payload (the entry is then treated as a miss).
pub struct TaskCodec<V> {
    /// Render a value as a single-line payload.
    pub encode: fn(&V) -> String,
    /// Parse a payload back; `None` rejects the line.
    pub decode: fn(&str) -> Option<V>,
}

// Manual impls: the fields are fn pointers, Copy for every V (the derive
// would demand `V: Copy`).
impl<V> Clone for TaskCodec<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for TaskCodec<V> {}

/// Content-addressed `u128 -> V` task store with hit/miss counters and an
/// optional append-only disk lane.
pub struct TaskCache<V> {
    mem: Mutex<HashMap<u128, V>>,
    disk: Option<(PathBuf, Mutex<()>, TaskCodec<V>)>,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    disk_appends: AtomicU64,
    disk_append_bytes: AtomicU64,
    lock_wait_ns: AtomicU64,
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
        TaskCache {
            mem: Mutex::new(HashMap::new()),
            disk: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            disk_appends: AtomicU64::new(0),
            disk_append_bytes: AtomicU64::new(0),
            lock_wait_ns: AtomicU64::new(0),
        }
    }

    /// Cache backed by an append-only file at `path`, loading any entries
    /// a previous process left there. Malformed lines (torn writes) are
    /// skipped.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the parent directory or
    /// reading an existing store.
    pub fn with_disk(path: &Path, codec: TaskCodec<V>) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let cache = TaskCache {
            mem: Mutex::new(HashMap::new()),
            disk: Some((path.to_path_buf(), Mutex::new(()), codec)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            disk_appends: AtomicU64::new(0),
            disk_append_bytes: AtomicU64::new(0),
            lock_wait_ns: AtomicU64::new(0),
        };
        if path.exists() {
            let text = std::fs::read_to_string(path)?;
            let mut mem = cache.mem.lock().expect("task cache poisoned");
            for line in text.lines() {
                if let Some((key, value)) = parse_task_line(line, &codec) {
                    mem.entry(key).or_insert(value);
                }
            }
        }
        Ok(cache)
    }

    /// Look up a result, counting the hit or miss.
    pub fn get(&self, key: u128) -> Option<V> {
        let found = self
            .mem
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

    /// Insert a result (first writer wins) and append it to the disk lane
    /// if one is configured. Disk append failures are ignored: the lane
    /// is an optimisation.
    pub fn put(&self, key: u128, value: &V) {
        let fresh = {
            let mut mem = self.mem.lock().expect("task cache poisoned");
            match mem.entry(key) {
                std::collections::hash_map::Entry::Occupied(_) => false,
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(value.clone());
                    true
                }
            }
        };
        if !fresh {
            return;
        }
        self.puts.fetch_add(1, Ordering::Relaxed);
        if let Some((path, append, codec)) = &self.disk {
            let wait = std::time::Instant::now();
            let _guard = append.lock().expect("task cache disk lane poisoned");
            self.lock_wait_ns
                .fetch_add(wait.elapsed().as_nanos() as u64, Ordering::Relaxed);
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let line = format!("{key:032x} {}|", (codec.encode)(value));
                if writeln!(f, "{line}").is_ok() {
                    self.disk_appends.fetch_add(1, Ordering::Relaxed);
                    self.disk_append_bytes
                        .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of stored results.
    #[must_use]
    pub fn len(&self) -> usize {
        self.mem.lock().expect("task cache poisoned").len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full counter snapshot, for metrics export.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len() as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            disk_appends: self.disk_appends.load(Ordering::Relaxed),
            disk_append_bytes: self.disk_append_bytes.load(Ordering::Relaxed),
            lock_wait_ns: self.lock_wait_ns.load(Ordering::Relaxed),
        }
    }
}

fn parse_task_line<V>(line: &str, codec: &TaskCodec<V>) -> Option<(u128, V)> {
    let (key_hex, rest) = line.split_at_checked(32)?;
    let key = u128::from_str_radix(key_hex, 16).ok()?;
    let payload = rest.strip_prefix(' ')?.strip_suffix('|')?;
    Some((key, (codec.decode)(payload)?))
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

    fn double_codec() -> TaskCodec<u64> {
        TaskCodec {
            encode: |v| format!("{v:x}"),
            decode: |s| u64::from_str_radix(s, 16).ok(),
        }
    }

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

    #[test]
    fn disk_lane_round_trips_and_rejects_torn_lines() {
        let dir = std::env::temp_dir().join(format!("wmm-task-cache-{}", std::process::id()));
        let path = dir.join("tasks.txt");
        let _ = std::fs::remove_file(&path);
        {
            let cache = TaskCache::with_disk(&path, double_codec()).expect("create");
            cache.put(7, &49);
            cache.put(8, &64);
        }
        // Simulate a torn final line from a killed process.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("open");
            write!(f, "{:032x} dead", 9u128).expect("write");
        }
        let reloaded = TaskCache::with_disk(&path, double_codec()).expect("reload");
        assert_eq!(reloaded.get(7), Some(49));
        assert_eq!(reloaded.get(8), Some(64));
        assert_eq!(reloaded.get(9), None);
        let _ = std::fs::remove_file(&path);
    }
}

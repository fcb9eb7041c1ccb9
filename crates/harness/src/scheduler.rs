//! The deterministic parallel scheduler.
//!
//! A batch of independent jobs is drained by `std::thread::scope` workers
//! claiming indices off a shared atomic counter; each result is recorded
//! under the index (the *key*) of the job that produced it, and the batch
//! returns results in job order. Because every job is deterministic in its
//! own inputs and keys restore submission order, the output of a batch is
//! bit-identical whether it ran on one worker or sixteen.
//!
//! Beyond results, the executor keeps the one count of batches, jobs,
//! cache hits and misses (per batch, on the calling thread), and it
//! aggregates the simulator's own statistics: every freshly simulated
//! job's [`ExecStats`] is folded — in job order, so float sums are
//! bit-identical across worker counts — into a campaign-wide
//! [`SimTotals`], which an attached metrics registry receives as `sim.*`
//! entries; per-batch/per-job wall timings can be recorded as
//! [`TraceEvent`]s for Chrome-trace export.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wmm_obs::{Class, Counter, Gauge, Histogram, MetricsRegistry};
use wmm_sim::stats::ExecStats;
use wmm_sim::MachineScratch;
use wmmbench::exec::{Executor, JobOutcome, SimCell};

use crate::artifact::{SimTotals, Telemetry, Timing};
use crate::cache::{cell_key, CacheStats, SimCache};
use crate::trace::TraceEvent;

/// Resolve the worker-thread count: an explicit request wins, then the
/// `WMM_THREADS` environment variable, then the machine's available
/// parallelism. A resolved count is always at least 1.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    let n = requested
        .or_else(|| {
            std::env::var("WMM_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    n.max(1)
}

/// Run `f` over every item, on up to `threads` scoped workers, and return
/// the results **in item order** — the keyed-queue primitive underneath
/// [`ParallelExecutor`].
///
/// Workers claim item indices from a shared counter and push `(index,
/// result)` pairs; the pairs are re-keyed into submission order before
/// returning, so the caller cannot observe scheduling.
pub fn run_keyed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_keyed_indexed(items, threads, |_, item| f(item))
}

/// [`run_keyed`], with the claiming worker's index (0-based) passed to `f`
/// alongside each item — used to attribute trace slices to worker tracks.
pub fn run_keyed_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().map(|item| f(0, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let keyed: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        let (next, keyed, f) = (&next, &keyed, &f);
        for worker in 0..threads.min(n) {
            scope.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let result = f(worker, &items[idx]);
                keyed
                    .lock()
                    .expect("collector poisoned")
                    .push((idx, result));
            });
        }
    });
    let mut keyed = keyed.into_inner().expect("collector poisoned");
    keyed.sort_by_key(|(idx, _)| *idx);
    debug_assert_eq!(keyed.len(), n);
    keyed.into_iter().map(|(_, r)| r).collect()
}

thread_local! {
    /// Per-worker-thread simulation scratch: every job a worker claims
    /// resets this arena in place instead of reallocating core/memory/heap
    /// state. Results are bit-identical to fresh-state runs (see
    /// `MachineScratch`), so reuse is invisible to the determinism contract.
    static SIM_SCRATCH: RefCell<MachineScratch> = RefCell::new(MachineScratch::new());
}

/// Aggregate counters across every batch an executor has run.
///
/// The four counts — batches, jobs, hits (cells answered from the cache)
/// and misses (cells simulated, sited ones included) — are kept once, per
/// batch, on the calling thread. They are shared [`Counter`]s so that
/// [`ParallelExecutor::with_metrics`] can hand the registry the very
/// handles the executor counts with: telemetry, the `harness.exec.*`
/// metrics and the run summary then read one set of numbers.
#[derive(Debug, Default)]
struct BatchCounters {
    batches: Arc<Counter>,
    jobs: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    sim_ns: AtomicU64,
    wall_ns: AtomicU64,
    max_batch_ns: AtomicU64,
    max_batch_jobs: AtomicU64,
}

impl BatchCounters {
    /// Count through `registry`'s `harness.exec.*` counters from now on,
    /// carrying over whatever was counted before.
    fn share(&mut self, registry: &MetricsRegistry) {
        for (name, slot) in [
            ("harness.exec.batches", &mut self.batches),
            ("harness.exec.jobs", &mut self.jobs),
            ("harness.exec.cache_hits", &mut self.cache_hits),
            ("harness.exec.cache_misses", &mut self.cache_misses),
        ] {
            let shared = registry.counter(name, Class::Structural);
            shared.add(slot.get());
            *slot = shared;
        }
    }
}

/// Registered metric handles for an instrumented executor, beyond the
/// counts [`BatchCounters`] shares with the registry.
///
/// Structural metrics (queue depth, the cache gauges, the `sim.*` totals)
/// are updated only on the calling thread from count-derived values, so
/// their values — and therefore the registry's structural snapshot — are
/// byte-identical across worker counts. Observational metrics (the
/// job-latency histogram, the per-worker counters and the timings) carry
/// wall-clock readings; the first two are updated from worker threads.
struct ExecMetrics {
    registry: MetricsRegistry,
    queue_depth: Arc<Gauge>,
    job_latency_ns: Arc<Histogram>,
    worker_jobs: Vec<Arc<Counter>>,
    worker_busy_ns: Vec<Arc<Counter>>,
    sim_cache_entries: Arc<Gauge>,
    sim_cache_puts: Arc<Gauge>,
    sim_cache_disk_append_bytes: Arc<Gauge>,
    sim_cache_lock_wait_ns: Arc<Gauge>,
}

impl ExecMetrics {
    fn register(registry: &MetricsRegistry, threads: usize) -> Self {
        ExecMetrics {
            registry: registry.clone(),
            queue_depth: registry.gauge("harness.exec.queue_depth", Class::Structural),
            job_latency_ns: registry.histogram(
                "harness.exec.job_latency_ns",
                Class::Observational,
                &[1e3, 1e4, 1e5, 1e6, 1e7, 1e8],
            ),
            worker_jobs: (0..threads)
                .map(|w| {
                    registry.counter(&format!("harness.worker.{w}.jobs"), Class::Observational)
                })
                .collect(),
            worker_busy_ns: (0..threads)
                .map(|w| {
                    registry.counter(&format!("harness.worker.{w}.busy_ns"), Class::Observational)
                })
                .collect(),
            sim_cache_entries: registry.gauge("harness.cache.sim.entries", Class::Structural),
            sim_cache_puts: registry.gauge("harness.cache.sim.puts", Class::Structural),
            sim_cache_disk_append_bytes: registry
                .gauge("harness.cache.sim.disk_append_bytes", Class::Structural),
            sim_cache_lock_wait_ns: registry
                .gauge("harness.cache.sim.lock_wait_ns", Class::Observational),
        }
    }

    /// Mirror the cache's counter snapshot into the registry gauges
    /// (called on the calling thread after each batch, so the structural
    /// gauges only ever see deterministic values).
    fn sync_cache(&self, stats: CacheStats) {
        self.sim_cache_entries.set(stats.entries as f64);
        self.sim_cache_puts.set(stats.puts as f64);
        self.sim_cache_disk_append_bytes
            .set(stats.disk_append_bytes as f64);
        self.sim_cache_lock_wait_ns.set(stats.lock_wait_ns as f64);
    }
}

/// The parallel, caching [`Executor`].
///
/// Wraps the scheduler around an optional content-addressed [`SimCache`]:
/// each batch first resolves cache hits on the calling thread, fans the
/// misses out across workers, then stores the fresh results. Alongside the
/// results the executor aggregates how the campaign ran — batch/job counts,
/// wall and simulated time, and the [`SimTotals`] merged from every freshly
/// simulated job's [`ExecStats`] — into its [`Telemetry`] snapshot and an
/// attached metrics registry, and (when enabled) a Chrome-trace timeline of
/// batches and jobs.
pub struct ParallelExecutor {
    threads: usize,
    cache: Option<SimCache>,
    progress: bool,
    tracing: bool,
    epoch: Instant,
    counters: BatchCounters,
    sim_totals: Mutex<SimTotals>,
    trace: Mutex<Vec<TraceEvent>>,
    metrics: Option<ExecMetrics>,
}

impl ParallelExecutor {
    /// An executor with `threads` workers (see [`resolve_threads`]) and no
    /// cache.
    pub fn new(threads: Option<usize>) -> Self {
        ParallelExecutor {
            threads: resolve_threads(threads),
            cache: None,
            progress: false,
            tracing: false,
            epoch: Instant::now(),
            counters: BatchCounters::default(),
            sim_totals: Mutex::new(SimTotals::default()),
            trace: Mutex::new(Vec::new()),
            metrics: None,
        }
    }

    /// Attach a result cache.
    pub fn with_cache(mut self, cache: SimCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Enable progress/ETA lines on stderr for long batches.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Enable Chrome-trace event collection (see [`Self::trace_events`]).
    pub fn with_trace(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Attach a metrics registry: the executor counts batches, jobs, hits
    /// and misses through the registry's `harness.exec.*` counters, and
    /// registers and updates its `harness.worker.*` and
    /// `harness.cache.sim.*` metrics, the `sim.*` totals and its timings
    /// per batch. Without this call the executor touches no registry, and
    /// the hot path pays nothing extra (an `Option` check per batch, not
    /// per job). The executor's telemetry reads the shared counters, so
    /// give each executor a registry of its own.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.counters.share(registry);
        self.metrics = Some(ExecMetrics::register(registry, self.threads));
        self
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Counter snapshot of the attached cache, if any.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(SimCache::stats)
    }

    /// Whether the result cache persists to disk, so which jobs simulate
    /// depends on what the file already held.
    pub fn disk_cache(&self) -> bool {
        self.cache.as_ref().is_some_and(|c| c.disk_path().is_some())
    }

    /// Telemetry snapshot for the campaign so far: executor counters, the
    /// aggregated simulator totals, and observational timings.
    pub fn telemetry(&self) -> Telemetry {
        Telemetry {
            batches: self.counters.batches.get(),
            jobs: self.counters.jobs.get(),
            cache_hits: self.counters.cache_hits.get(),
            cache_misses: self.counters.cache_misses.get(),
            sim: self.sim_totals.lock().expect("totals poisoned").clone(),
            timing: self.timing(),
        }
    }

    fn timing(&self) -> Timing {
        let ms = |ns: &AtomicU64| ns.load(Ordering::Relaxed) as f64 / 1e6;
        Timing {
            threads: self.threads,
            sim_ms: ms(&self.counters.sim_ns),
            wall_ms: ms(&self.counters.wall_ns),
            max_batch_ms: ms(&self.counters.max_batch_ns),
            max_batch_jobs: self.counters.max_batch_jobs.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the trace events collected so far (empty unless
    /// [`Self::with_trace`] enabled collection).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.lock().expect("trace poisoned").clone()
    }

    /// One-line campaign summary (jobs, hit rate, speed-up proxy).
    pub fn summary(&self) -> String {
        let t = self.telemetry();
        format!(
            "{} jobs in {} batches on {} threads: {:.0} ms wall, {:.0} ms simulated, {:.0}% cache hits",
            t.jobs,
            t.batches,
            t.timing.threads,
            t.timing.wall_ms,
            t.timing.sim_ms,
            100.0 * t.hit_rate()
        )
    }
}

impl Executor for ParallelExecutor {
    fn run_cells(&self, cells: Vec<SimCell<'_>>) -> Vec<JobOutcome> {
        let start = Instant::now();
        let batch_ts_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let batch_id = self.counters.batches.get();
        let n = cells.len();
        let mut outcomes: Vec<Option<JobOutcome>> = (0..n).map(|_| None).collect();

        // Resolve cache hits up front. An image cell's key is composed
        // from digests, a linked cell's hashed from its stream. They are computed on the worker pool (in submission
        // order) and the hits then resolve on the calling thread.
        let mut misses: Vec<usize> = Vec::with_capacity(n);
        let keys: Option<Vec<u128>> = self.cache.as_ref().map(|cache| {
            let keys = run_keyed(&cells, self.threads, cell_key);
            for (i, (cell, &key)) in cells.iter().zip(&keys).enumerate() {
                // Sited cells must surface their per-site stall map, which
                // the wall-time-only cache cannot answer — always simulate
                // them (their wall times are identical, so the result is
                // still stored for non-sited consumers).
                if cell.sited {
                    misses.push(i);
                    continue;
                }
                match cache.get(key) {
                    Some(t) => outcomes[i] = Some(JobOutcome::cached(t)),
                    None => misses.push(i),
                }
            }
            keys
        });
        if keys.is_none() {
            misses = (0..n).collect();
        }

        // Fan the misses out across workers — an image cell is simulated
        // in place — observing progress and (optionally) recording one
        // trace slice per simulated cell.
        let done = AtomicUsize::new(0);
        let sim_ns = AtomicU64::new(0);
        let total = misses.len();
        let stats: Vec<ExecStats> = run_keyed_indexed(&misses, self.threads, |worker, &slot| {
            let ts_us = self.epoch.elapsed().as_secs_f64() * 1e6;
            let t0 = Instant::now();
            let cell = &cells[slot];
            let stats = SIM_SCRATCH.with(|s| cell.run_stats_with(&mut s.borrow_mut()));
            let dur = t0.elapsed();
            sim_ns.fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
            if let Some(m) = &self.metrics {
                // Observational side only: worker attribution and latency
                // are wall-clock facts, never part of the structural
                // snapshot.
                let ns = dur.as_nanos() as u64;
                m.job_latency_ns.observe(ns as f64);
                if let Some(w) = m.worker_jobs.get(worker) {
                    w.inc();
                }
                if let Some(w) = m.worker_busy_ns.get(worker) {
                    w.add(ns);
                }
            }
            if self.tracing {
                self.trace.lock().expect("trace poisoned").push(TraceEvent {
                    name: format!("job {slot}"),
                    cat: "job",
                    ts_us,
                    dur_us: dur.as_secs_f64() * 1e6,
                    tid: worker as u64 + 1,
                });
            }
            let d = done.fetch_add(1, Ordering::Relaxed) + 1;
            if self.progress && (d.is_multiple_of(16) || d == total) {
                let elapsed = start.elapsed().as_secs_f64();
                let eta = elapsed / d as f64 * (total - d) as f64;
                eprintln!(
                    "[wmm-harness] {d}/{total} jobs ({} queued), {elapsed:.1}s elapsed, ETA {eta:.1}s",
                    total - d
                );
            }
            stats
        });

        // Fold the fresh statistics into the campaign totals in job order
        // (run_keyed_indexed restored submission order), so the aggregated
        // float sums are bit-identical across worker counts.
        {
            let mut totals = self.sim_totals.lock().expect("totals poisoned");
            for s in &stats {
                totals.merge_stats(s);
            }
            if let Some(m) = &self.metrics {
                totals.publish(&m.registry);
            }
        }
        for (&slot, s) in misses.iter().zip(stats) {
            if let (Some(cache), Some(keys)) = (&self.cache, &keys) {
                cache.put(keys[slot], s.wall_ns);
            }
            outcomes[slot] = Some(JobOutcome::observed(s));
        }

        // The batch's counts, once, on the calling thread: identical
        // whatever the worker count.
        self.counters.batches.inc();
        self.counters.jobs.add(n as u64);
        self.counters.cache_hits.add((n - total) as u64);
        self.counters.cache_misses.add(total as u64);

        let batch_ns = start.elapsed().as_nanos() as u64;
        self.counters
            .sim_ns
            .fetch_add(sim_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.counters.wall_ns.fetch_add(batch_ns, Ordering::Relaxed);
        self.counters
            .max_batch_ns
            .fetch_max(batch_ns, Ordering::Relaxed);
        self.counters
            .max_batch_jobs
            .fetch_max(n as u64, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.queue_depth.set(n as f64);
            if let Some(cache) = &self.cache {
                m.sync_cache(cache.stats());
            }
            self.timing().publish(&m.registry);
        }
        if self.tracing {
            self.trace.lock().expect("trace poisoned").push(TraceEvent {
                name: format!("batch {batch_id} ({total}/{n} simulated)"),
                cat: "batch",
                ts_us: batch_ts_us,
                dur_us: batch_ns as f64 / 1e3,
                tid: 0,
            });
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every job slot resolved"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_sim::arch::armv8_xgene1;
    use wmm_sim::isa::{FenceKind, Instr};
    use wmm_sim::machine::{Program, WorkloadCtx};
    use wmm_sim::Machine;
    use wmmbench::exec::{SerialExecutor, SimJob};

    fn jobs(machine: &Machine, n: usize) -> Vec<SimJob<'_>> {
        (0..n)
            .map(|i| SimJob {
                machine,
                program: Program::new(vec![vec![
                    Instr::Compute {
                        cycles: 100 + (i as u32 % 7) * 900,
                    },
                    Instr::Fence(FenceKind::DmbIsh),
                ]]),
                ctx: WorkloadCtx::default(),
                seed: i as u64,
                sited: false,
            })
            .collect()
    }

    #[test]
    fn run_keyed_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 5, 16] {
            assert_eq!(run_keyed(&items, threads, |x| x * x), serial);
        }
    }

    #[test]
    fn run_keyed_indexed_reports_valid_workers() {
        let items: Vec<u64> = (0..64).collect();
        let workers = run_keyed_indexed(&items, 4, |worker, _| worker);
        assert!(workers.iter().all(|&w| w < 4));
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let machine = Machine::new(armv8_xgene1());
        let serial = SerialExecutor.run_batch(jobs(&machine, 37));
        for threads in [1, 3, 8] {
            let par = ParallelExecutor::new(Some(threads)).run_batch(jobs(&machine, 37));
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn sim_totals_identical_across_worker_counts() {
        let machine = Machine::new(armv8_xgene1());
        let base = ParallelExecutor::new(Some(1));
        base.run_batch(jobs(&machine, 37));
        let base_t = base.telemetry();
        assert_eq!(base_t.sim.jobs_observed, 37);
        assert!(base_t.sim.counters.fence_counts[&FenceKind::DmbIsh] >= 37);
        for threads in [2, 8] {
            let exec = ParallelExecutor::new(Some(threads));
            exec.run_batch(jobs(&machine, 37));
            let t = exec.telemetry();
            // Bit-identical, including the f64 stall-cycle sums.
            assert_eq!(t.sim, base_t.sim, "threads = {threads}");
        }
    }

    #[test]
    fn cached_executor_matches_and_hits() {
        let machine = Machine::new(armv8_xgene1());
        let exec = ParallelExecutor::new(Some(4)).with_cache(SimCache::in_memory());
        let first = exec.run_batch(jobs(&machine, 20));
        let second = exec.run_batch(jobs(&machine, 20));
        assert_eq!(first, second);
        let t = exec.telemetry();
        assert_eq!(t.cache_hits, 20);
        assert_eq!(t.cache_misses, 20);
        assert_eq!(t.jobs, 40);
        assert_eq!(t.batches, 2);
        // Only the simulated jobs contribute to the totals.
        assert_eq!(t.sim.jobs_observed, 20);
        assert_eq!(t.timing.max_batch_jobs, 20);
    }

    fn sited_jobs(machine: &Machine, n: usize) -> Vec<SimJob<'_>> {
        jobs(machine, n)
            .into_iter()
            .map(|mut j| {
                j.sited = true;
                j
            })
            .collect()
    }

    #[test]
    fn sited_jobs_simulate_even_on_warm_cache() {
        // Regression: the cache stores wall times only, so a cache hit
        // cannot answer a sited job's per-site stall query. Sited jobs must
        // bypass the hit path and carry full stats even when an identical
        // program's result is already cached.
        let machine = Machine::new(armv8_xgene1());
        let exec = ParallelExecutor::new(Some(2)).with_cache(SimCache::in_memory());
        let cold = exec.run_batch_stats(jobs(&machine, 6));
        let warm_sited = exec.run_batch_stats(sited_jobs(&machine, 6));
        for (c, s) in cold.iter().zip(&warm_sited) {
            let stats = s.stats.as_ref().expect("sited job simulated, not cached");
            assert!(stats.per_site.is_some(), "sited stats carry the site map");
            // Sited and unsited runs of the same program agree on time.
            assert_eq!(c.wall_ns, s.wall_ns);
        }
        // The unsited batch populated the cache; the sited batch neither
        // hit it nor corrupted it.
        assert_eq!(exec.telemetry().cache_hits, 0);
    }

    #[test]
    fn warm_cache_sited_profile_matches_cold_run() {
        let machine = Machine::new(armv8_xgene1());
        // Cold: sited campaign on a fresh executor.
        let cold_exec = ParallelExecutor::new(Some(2)).with_cache(SimCache::in_memory());
        let cold = cold_exec.run_batch_stats(sited_jobs(&machine, 5));
        // Warm: same sited campaign after the cache saw the same programs.
        let warm_exec = ParallelExecutor::new(Some(2)).with_cache(SimCache::in_memory());
        warm_exec.run_batch_stats(jobs(&machine, 5));
        let warm = warm_exec.run_batch_stats(sited_jobs(&machine, 5));
        for (c, w) in cold.iter().zip(&warm) {
            let (cs, ws) = (c.stats.as_ref().unwrap(), w.stats.as_ref().unwrap());
            // Bit-identical per-site profiles: cache warmth is invisible.
            assert_eq!(cs.per_site, ws.per_site);
            assert_eq!(c.wall_ns, w.wall_ns);
        }
    }

    #[test]
    fn cache_hits_carry_no_stats() {
        let machine = Machine::new(armv8_xgene1());
        let exec = ParallelExecutor::new(Some(2)).with_cache(SimCache::in_memory());
        let first = exec.run_batch_stats(jobs(&machine, 5));
        assert!(first.iter().all(|o| o.stats.is_some()));
        let second = exec.run_batch_stats(jobs(&machine, 5));
        assert!(second.iter().all(|o| o.stats.is_none()));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.wall_ns, b.wall_ns);
        }
    }

    #[test]
    fn trace_collects_batch_and_job_slices() {
        let machine = Machine::new(armv8_xgene1());
        let exec = ParallelExecutor::new(Some(2)).with_trace(true);
        exec.run_batch(jobs(&machine, 6));
        let events = exec.trace_events();
        assert_eq!(events.iter().filter(|e| e.cat == "batch").count(), 1);
        assert_eq!(events.iter().filter(|e| e.cat == "job").count(), 6);
        assert!(events.iter().all(|e| e.dur_us >= 0.0));
        // Tracing off by default: no events collected.
        let silent = ParallelExecutor::new(Some(2));
        silent.run_batch(jobs(&machine, 3));
        assert!(silent.trace_events().is_empty());
    }

    #[test]
    fn exec_metrics_count_batches_jobs_and_cache_traffic() {
        let machine = Machine::new(armv8_xgene1());
        let reg = MetricsRegistry::new();
        let exec = ParallelExecutor::new(Some(2))
            .with_cache(SimCache::in_memory())
            .with_metrics(&reg);
        exec.run_batch(jobs(&machine, 20));
        exec.run_batch(jobs(&machine, 20));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("harness.exec.batches"), Some(2));
        assert_eq!(snap.counter("harness.exec.jobs"), Some(40));
        assert_eq!(snap.counter("harness.exec.cache_hits"), Some(20));
        assert_eq!(snap.counter("harness.exec.cache_misses"), Some(20));
        assert_eq!(snap.gauge("harness.exec.queue_depth"), Some(20.0));
        assert_eq!(snap.gauge("harness.cache.sim.entries"), Some(20.0));
        assert_eq!(snap.gauge("harness.cache.sim.puts"), Some(20.0));
        // The simulator totals and timings ride along, by class.
        assert_eq!(snap.gauge("sim.jobs_observed"), Some(20.0));
        assert_eq!(snap.gauge("sim.fence.dmb_ish.count"), Some(20.0));
        let class = |name: &str| snap.get(name).expect("published").class;
        assert_eq!(class("sim.fence.dmb_ish.stall_cycles"), Class::Structural);
        assert_eq!(class("harness.exec.wall_ms"), Class::Observational);
        assert_eq!(snap.gauge("harness.exec.max_batch_jobs"), Some(20.0));
        // Every simulated job landed in the latency histogram and on some
        // worker track.
        let lat = snap.get("harness.exec.job_latency_ns").expect("registered");
        match &lat.value {
            wmm_obs::MetricValue::Histogram { count, .. } => assert_eq!(*count, 20),
            other => panic!("latency should be a histogram, got {other:?}"),
        }
        let worker_jobs: u64 = (0..2)
            .map(|w| {
                snap.counter(&format!("harness.worker.{w}.jobs"))
                    .expect("worker track registered")
            })
            .sum();
        assert_eq!(worker_jobs, 20);
        assert_eq!(exec.cache_stats().expect("cache attached").puts, 20);
    }

    #[test]
    fn every_cell_is_counted_once_as_a_hit_or_a_miss() {
        // A warm cached executor runs a batch that mixes sited cells (which
        // skip the lookup and always simulate) with unsited ones (which hit).
        let machine = Machine::new(armv8_xgene1());
        let reg = MetricsRegistry::new();
        let exec = ParallelExecutor::new(Some(2))
            .with_cache(SimCache::in_memory())
            .with_metrics(&reg);
        exec.run_batch(jobs(&machine, 8));
        let mut mixed = jobs(&machine, 8);
        mixed.extend(sited_jobs(&machine, 5));
        exec.run_batch_stats(mixed);
        let t = exec.telemetry();
        assert_eq!((t.jobs, t.cache_hits, t.cache_misses), (21, 8, 13));
        assert_eq!(t.cache_hits + t.cache_misses, t.jobs);
        assert_eq!(t.cache_misses, t.sim.jobs_observed);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("harness.exec.batches"), Some(t.batches));
        assert_eq!(snap.counter("harness.exec.jobs"), Some(t.jobs));
        assert_eq!(snap.counter("harness.exec.cache_hits"), Some(t.cache_hits));
        assert_eq!(
            snap.counter("harness.exec.cache_misses"),
            Some(t.cache_misses)
        );
        assert_eq!(
            snap.gauge("sim.jobs_observed"),
            Some(t.sim.jobs_observed as f64)
        );
    }

    #[test]
    fn metrics_structural_snapshot_is_identical_across_worker_counts() {
        let machine = Machine::new(armv8_xgene1());
        let structural_json = |threads: usize| {
            let reg = MetricsRegistry::new();
            let exec = ParallelExecutor::new(Some(threads))
                .with_cache(SimCache::in_memory())
                .with_metrics(&reg);
            exec.run_batch(jobs(&machine, 24));
            exec.run_batch(jobs(&machine, 24));
            use wmmbench::json::ToJson as _;
            reg.snapshot().structural().to_json().to_string_pretty()
        };
        let base = structural_json(1);
        for threads in [2, 4] {
            assert_eq!(structural_json(threads), base, "threads = {threads}");
        }
    }

    #[test]
    fn thread_resolution_prefers_explicit() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }
}

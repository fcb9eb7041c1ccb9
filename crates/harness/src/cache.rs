//! Content-addressed result caching.
//!
//! `Machine::run` is deterministic in `(arch, program, ctx, seed)`, so a
//! simulation result can be reused whenever those inputs recur — across
//! batches, campaigns and (with the on-disk store) processes.
//!
//! # Keys
//!
//! A key is the two-lane polynomial [`Digest`] (mod `2^61 − 1`, see
//! [`wmmbench::digest`]) of one canonical word stream: the linked program
//! (a tag, the thread count, then per thread its length and instructions),
//! followed by the architecture label, the workload context and the seed.
//! The encoding is prefix-free, so distinct inputs are distinct streams,
//! and two distinct streams of at most `n` words collide in one lane only
//! if the lane's base is a root of their nonzero difference polynomial —
//! at most `n` of the `2^61 − 1` residues. For `n ≤ 2^20` words that is
//! below `2^-41` per lane, about `2^-82` for the pair, so even a cache of
//! millions of entries stays far from an accidental collision.
//!
//! The digest composes: `D(A ‖ B) = D(A) · x^|B| + D(B)`. [`job_key`]
//! hashes a linked program's stream; [`cell_key`] computes the same value
//! for a cell that was never linked, from the image's per-segment digests
//! (computed once per image) and the rewriter's per-path site digests
//! (computed once per rewriter). A sweep therefore never hashes a
//! stream, cold or warm.
//!
//! # The disk store
//!
//! The on-disk store is an append-only text file: a [`DISK_HEADER`] line
//! naming the key scheme, then `key result` records, results stored as
//! `f64::to_bits` hex so a reloaded value is bit-identical to the freshly
//! simulated one — caching never changes experiment output. Each record is
//! one `write` call, so processes sharing the file never interleave within
//! a line; files of another key scheme, or with a corrupt record before
//! the last, are refused rather than silently missed.

use std::collections::HashMap;
use std::fs::File;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use wmm_sim::machine::WorkloadCtx;
use wmm_sim::Machine;
use wmmbench::digest::{encode_bytes, encode_u64, program_digest, Digest};
use wmmbench::exec::{SimCell, SimJob};

use crate::jobs::TaskCache;

/// One 64-bit FNV-1a lane.
struct Fnv(u64);

impl Fnv {
    fn new(basis: u64) -> Self {
        Fnv(basis)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        // Word-wise fold: finalize the word through the SplitMix64 mixer,
        // then one FNV-style xor-multiply round. Equivalent dispersion to
        // the byte loop at a sixteenth of the work.
        let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = (self.0 ^ (z ^ (z >> 31))).wrapping_mul(0x100_0000_01b3);
    }
    fn bytes(&mut self, bs: &[u8]) {
        self.u64(bs.len() as u64);
        for &b in bs {
            self.byte(b);
        }
    }
}

/// Two independent lanes (distinct offset bases) hashed in lockstep: the
/// 128-bit content hash of the analysis caches ([`crate::jobs`]) and of
/// checksums over results. Simulation keys use the composable
/// [`Digest`] instead (see the module docs).
pub struct Fnv128(Fnv, Fnv);

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

impl Fnv128 {
    /// Fresh hasher over both lanes.
    #[must_use]
    pub fn new() -> Self {
        // Lane 0: the standard FNV-1a offset basis; lane 1: an arbitrary
        // odd constant so the lanes decorrelate.
        Fnv128(
            Fnv::new(0xcbf2_9ce4_8422_2325),
            Fnv::new(0x9e37_79b9_7f4a_7c15),
        )
    }
    /// Fold one word into both lanes.
    pub fn u64(&mut self, v: u64) {
        self.0.u64(v);
        self.1.u64(v ^ 0xa5a5_a5a5_a5a5_a5a5);
    }
    /// Fold one float (by bit pattern) into both lanes.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Fold a length-prefixed byte string into both lanes.
    pub fn bytes(&mut self, bs: &[u8]) {
        self.0.bytes(bs);
        self.1.bytes(bs);
    }
    /// The 128-bit digest.
    #[must_use]
    pub fn finish(self) -> u128 {
        ((self.0 .0 as u128) << 64) | self.1 .0 as u128
    }
}

/// The content address of one simulation cell: the [`Digest`] of the
/// canonical word stream of everything `Machine::run` depends on — the
/// linked program, then architecture label, workload context and seed —
/// as one `u128` (two 61-bit lanes).
pub fn job_key(job: &SimJob<'_>) -> u128 {
    key_of(
        job.machine,
        &job.ctx,
        job.seed,
        program_digest(&job.program),
    )
}

/// [`job_key`] of the cell's linked job, computed without linking it: an
/// image cell composes its digest from the image's code digests and its
/// rewriter's site digests.
pub fn cell_key(cell: &SimCell<'_>) -> u128 {
    key_of(cell.machine, &cell.ctx, cell.seed, cell.digest())
}

fn key_of(machine: &Machine, ctx: &WorkloadCtx, seed: u64, program: Digest) -> u128 {
    let mut w = Vec::with_capacity(32);
    encode_bytes(machine.spec().arch.label().as_bytes(), &mut w);
    encode_bytes(ctx.name.as_bytes(), &mut w);
    for f in [
        ctx.bp_pressure,
        ctx.load_pressure,
        ctx.l1_miss_rate,
        ctx.dram_frac,
        ctx.noise_amp,
    ] {
        encode_u64(f.to_bits(), &mut w);
    }
    encode_u64(seed, &mut w);
    program.then(Digest::of_words(&w)).to_u128()
}

/// The on-disk lane of a [`SimCache`]: the backing file behind its own
/// append lock, so disk I/O never holds up readers of the in-memory store,
/// and the lane's append accounting.
struct DiskLane {
    path: PathBuf,
    file: Mutex<File>,
    appends: AtomicU64,
    append_bytes: AtomicU64,
    lock_wait_ns: AtomicU64,
}

impl DiskLane {
    /// Append one record as a single `write_all`: two processes appending
    /// to the same file can then never interleave within a line.
    fn append(&self, key: u128, value: f64) {
        let line = format!("{key:032x} {:016x}\n", value.to_bits());
        let wait = std::time::Instant::now();
        let mut file = self.file.lock().expect("disk lane poisoned");
        self.lock_wait_ns
            .fetch_add(wait.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if file.write_all(line.as_bytes()).is_ok() {
            self.appends.fetch_add(1, Ordering::Relaxed);
            self.append_bytes
                .fetch_add(line.len() as u64, Ordering::Relaxed);
        }
    }
}

/// The first line of every disk-store file: the key scheme its records
/// are keyed by. A file without it was keyed differently and is refused.
pub const DISK_HEADER: &str = "wmm-sim-cache keys=poly61x2-v1";

/// Operational counters of a content-addressed cache: the one stats type
/// of the [`TaskCache`] store and of the [`SimCache`] built on it.
///
/// Everything except `lock_wait_ns` is deterministic given the cache state
/// and the batch sequence (entries, hit/miss/put counts, and the disk
/// lane's append accounting); `lock_wait_ns` is a wall-clock measurement
/// of time spent waiting for the disk lane's append lock and is
/// observational. `hits` and `misses` count lookups; an executor that
/// skips the lookup for a cell (a sited one) counts that cell itself.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently held in the in-memory map.
    pub entries: u64,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// First-writer inserts (repeat puts of a key count nothing).
    pub puts: u64,
    /// Lines appended to the disk lane.
    pub disk_appends: u64,
    /// Bytes appended to the disk lane (newlines included).
    pub disk_append_bytes: u64,
    /// Wall nanoseconds spent waiting on the disk lane's append lock
    /// (observational — never on the `get` hot path).
    pub lock_wait_ns: u64,
}

/// A content-addressed simulation-result cache: the [`TaskCache`] store
/// over wall times, with an optional append-only on-disk lane shared
/// across processes.
pub struct SimCache {
    store: TaskCache<f64>,
    disk: Option<DiskLane>,
}

impl SimCache {
    /// A purely in-memory cache.
    pub fn in_memory() -> Self {
        SimCache {
            store: TaskCache::in_memory(),
            disk: None,
        }
    }

    /// A cache backed by `path`: existing entries are loaded eagerly and
    /// new results are appended as they are produced.
    ///
    /// A new or empty file starts with the [`DISK_HEADER`] line. An
    /// existing file is refused with an [`std::io::ErrorKind::InvalidData`]
    /// error when its first line is not that header (a file keyed by
    /// another scheme would silently miss on every lookup) or when any
    /// record but the last is malformed. A last record that is torn or
    /// malformed — a killed run's partial append — is dropped and cut from
    /// the file, so later appends start on a fresh line. Duplicate records
    /// of a key (two processes that simulated the same cell) load as one
    /// entry.
    pub fn with_disk(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let mut text = String::new();
        file.read_to_string(&mut text)?;
        let mem = if text.is_empty() {
            file.write_all(format!("{DISK_HEADER}\n").as_bytes())?;
            HashMap::new()
        } else {
            let (mem, valid) = load_records(&path, &text)?;
            if valid < text.len() {
                file.set_len(valid as u64)?;
            }
            mem
        };
        Ok(SimCache {
            store: TaskCache::with_entries(mem),
            disk: Some(DiskLane {
                path,
                file: Mutex::new(file),
                appends: AtomicU64::new(0),
                append_bytes: AtomicU64::new(0),
                lock_wait_ns: AtomicU64::new(0),
            }),
        })
    }

    /// Look up a result.
    pub(crate) fn get(&self, key: u128) -> Option<f64> {
        self.store.get(key)
    }

    /// Store a result (and append it to the disk store, if any).
    ///
    /// The in-memory insert decides, under the store's lock, whether this
    /// call is the first writer of `key`; the disk append then happens
    /// *outside* that lock, on the disk lane's own lock, so file I/O never
    /// blocks concurrent `get`/`put` traffic on other keys.
    pub(crate) fn put(&self, key: u128, value: f64) {
        if self.store.put(key, &value) {
            if let Some(lane) = &self.disk {
                lane.append(key, value);
            }
        }
    }

    /// The full counter snapshot, for metrics export.
    pub(crate) fn stats(&self) -> CacheStats {
        let store = self.store.stats();
        match &self.disk {
            None => store,
            Some(lane) => CacheStats {
                disk_appends: lane.appends.load(Ordering::Relaxed),
                disk_append_bytes: lane.append_bytes.load(Ordering::Relaxed),
                lock_wait_ns: lane.lock_wait_ns.load(Ordering::Relaxed),
                ..store
            },
        }
    }

    /// The backing file, if this cache persists to disk.
    pub(crate) fn disk_path(&self) -> Option<&Path> {
        self.disk.as_ref().map(|lane| lane.path.as_path())
    }
}

/// The records of a disk-store file's `text`, and the length of its valid
/// prefix: everything but a torn or malformed last record.
fn load_records(path: &Path, text: &str) -> std::io::Result<(HashMap<u128, f64>, usize)> {
    let refuse = |why: String| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: {why}; delete the file", path.display()),
        )
    };
    let mut lines = text.split_inclusive('\n').peekable();
    let header = lines.next().unwrap_or_default();
    if header.strip_suffix('\n') != Some(DISK_HEADER) {
        let found: String = header.trim_end().chars().take(48).collect();
        return Err(refuse(format!(
            "not a cache file of key scheme {DISK_HEADER:?} (first line {found:?})"
        )));
    }
    let mut mem = HashMap::new();
    let mut valid = header.len();
    let mut number = 1;
    while let Some(line) = lines.next() {
        number += 1;
        match line.strip_suffix('\n').and_then(parse_line) {
            Some((key, value)) => {
                mem.insert(key, value);
                valid += line.len();
            }
            None if lines.peek().is_none() => break,
            None => return Err(refuse(format!("malformed record on line {number}"))),
        }
    }
    Ok((mem, valid))
}

/// Parse one disk-store line. The writer always emits exactly 32 hex chars
/// of key and 16 of value, so anything narrower is a torn line from a
/// killed run — it must be rejected, not parsed: a truncated value like
/// `3ff` is still valid hex and would otherwise load as a silently wrong
/// result under a valid key prefix.
fn parse_line(line: &str) -> Option<(u128, f64)> {
    let (key, val) = line.split_once(' ')?;
    if key.len() != 32 || val.len() != 16 {
        return None;
    }
    Some((
        u128::from_str_radix(key, 16).ok()?,
        f64::from_bits(u64::from_str_radix(val, 16).ok()?),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_sim::arch::armv8_xgene1;
    use wmm_sim::isa::{AccessOrd, Instr, Loc};
    use wmm_sim::machine::Program;

    fn job(machine: &Machine, cycles: u32, seed: u64) -> SimJob<'_> {
        SimJob {
            machine,
            program: Program::new(vec![vec![Instr::Compute { cycles }]]),
            ctx: WorkloadCtx::default(),
            seed,
            sited: false,
        }
    }

    #[test]
    fn key_is_stable_and_input_sensitive() {
        let machine = Machine::new(armv8_xgene1());
        let a = job_key(&job(&machine, 100, 7));
        assert_eq!(a, job_key(&job(&machine, 100, 7)), "stable");
        assert_ne!(a, job_key(&job(&machine, 101, 7)), "program-sensitive");
        assert_ne!(a, job_key(&job(&machine, 100, 8)), "seed-sensitive");
        let mut noisy = job(&machine, 100, 7);
        noisy.ctx.noise_amp = 0.5;
        assert_ne!(a, job_key(&noisy), "ctx-sensitive");
    }

    #[test]
    fn instr_encoding_distinguishes_variants() {
        let machine = Machine::new(armv8_xgene1());
        let mk = |instr: Instr| SimJob {
            machine: &machine,
            program: Program::new(vec![vec![instr]]),
            ctx: WorkloadCtx::default(),
            seed: 0,
            sited: false,
        };
        let keys: Vec<u128> = [
            Instr::Nop,
            Instr::StackPush,
            Instr::Load {
                loc: Loc::Private(0),
                ord: AccessOrd::Plain,
            },
            Instr::Load {
                loc: Loc::SharedRw(0),
                ord: AccessOrd::Plain,
            },
            Instr::Load {
                loc: Loc::Private(0),
                ord: AccessOrd::Acquire,
            },
            Instr::Store {
                loc: Loc::Private(0),
                ord: AccessOrd::Plain,
            },
        ]
        .into_iter()
        .map(|i| job_key(&mk(i)))
        .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn memory_cache_round_trips() {
        let cache = SimCache::in_memory();
        assert_eq!(cache.get(42), None);
        cache.put(42, 1.5);
        assert_eq!(cache.get(42), Some(1.5));
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
        // Repeat puts of a key are not first-writer inserts.
        cache.put(42, 1.5);
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.hits, stats.misses, stats.puts),
            (1, 1, 1, 1)
        );
        assert_eq!(
            (stats.disk_appends, stats.disk_append_bytes),
            (0, 0),
            "no disk lane, no append accounting"
        );
    }

    #[test]
    fn disk_stats_count_appended_lines_and_bytes() {
        let dir = std::env::temp_dir().join("wmm-harness-cache-stats-test");
        let path = dir.join("stats.cache");
        let _ = std::fs::remove_file(&path);
        let cache = SimCache::with_disk(&path).unwrap();
        cache.put(1, 0.5);
        cache.put(2, 1.5);
        cache.put(1, 0.5); // duplicate: no new line
        let stats = cache.stats();
        assert_eq!((stats.puts, stats.disk_appends), (2, 2));
        // Each line is 32 hex key + space + 16 hex value + newline = 50.
        assert_eq!(stats.disk_append_bytes, 100);
        assert_eq!(
            DISK_HEADER.len() as u64 + 1 + stats.disk_append_bytes,
            std::fs::metadata(&path).unwrap().len(),
            "byte accounting matches the file after its header line"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disk_cache_persists_bit_exact() {
        let dir = std::env::temp_dir().join("wmm-harness-cache-test");
        let path = dir.join("sim.cache");
        let _ = std::fs::remove_file(&path);
        let value = 1_234.000_000_001_f64;
        {
            let cache = SimCache::with_disk(&path).unwrap();
            cache.put(7, value);
            cache.put(u128::MAX, -0.0);
        }
        let cache = SimCache::with_disk(&path).unwrap();
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.get(7).map(f64::to_bits), Some(value.to_bits()));
        assert_eq!(
            cache.get(u128::MAX).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_final_line_is_rejected_not_misparsed() {
        // A killed run can tear the last append anywhere. Every prefix of a
        // valid line must parse to nothing — never to a wrong (key, value).
        let full = format!("{:032x} {:016x}", 0xdead_beef_u128, 1.5f64.to_bits());
        assert!(parse_line(&full).is_some());
        for cut in 0..full.len() {
            assert_eq!(
                parse_line(&full[..cut]),
                None,
                "prefix of {cut} chars must not parse"
            );
        }
        // A torn-then-appended reload drops only the torn line.
        let dir = std::env::temp_dir().join("wmm-harness-cache-torn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.cache");
        let good = format!("{:032x} {:016x}\n", 7_u128, 2.5f64.to_bits());
        let torn = &full[..40]; // full key, space, truncated value
        std::fs::write(&path, format!("{DISK_HEADER}\n{good}{torn}")).unwrap();
        let cache = SimCache::with_disk(&path).unwrap();
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.get(7), Some(2.5));
        assert_eq!(cache.get(0xdead_beef), None);
        // The torn tail is cut, so the next append starts a fresh line and
        // the file reloads cleanly.
        cache.put(8, 3.5);
        drop(cache);
        let reloaded = SimCache::with_disk(&path).unwrap();
        assert_eq!((reloaded.get(7), reloaded.get(8)), (Some(2.5), Some(3.5)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_puts_stay_consistent() {
        let dir = std::env::temp_dir().join("wmm-harness-cache-mt-test");
        let path = dir.join("concurrent.cache");
        let _ = std::fs::remove_file(&path);
        let cache = SimCache::with_disk(&path).unwrap();
        // 8 threads hammer 256 keys; every key is written by several
        // threads with the same (deterministic) value, interleaved with
        // reads. The map and the disk store must both end up with exactly
        // one entry per key, bit-exact.
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..256u128 {
                        let key = (i * 0x9e37) % 256;
                        cache.put(key, key as f64 * 0.125 + 1.0);
                        if t % 2 == 0 {
                            let got = cache.get(key).expect("just put");
                            assert_eq!(got, key as f64 * 0.125 + 1.0);
                        }
                    }
                });
            }
        });
        assert_eq!(cache.stats().entries, 256);
        // Reload from disk: append-only file must hold every key exactly
        // once (first-writer-wins under the map lock) and parse cleanly.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().next(), Some(DISK_HEADER));
        assert_eq!(
            text.lines().count(),
            1 + 256,
            "one disk line per unique key"
        );
        let reloaded = SimCache::with_disk(&path).unwrap();
        assert_eq!(reloaded.stats().entries, 256);
        for i in 0..256u128 {
            assert_eq!(reloaded.get(i), Some(i as f64 * 0.125 + 1.0));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn two_handles_append_whole_lines_to_one_file() {
        // Two caches on one file stand in for two processes sharing
        // `results/cache/sim.cache`: their appends must never interleave
        // within a line.
        let dir = std::env::temp_dir().join("wmm-harness-cache-two-handles-test");
        let path = dir.join("shared.cache");
        let _ = std::fs::remove_file(&path);
        let a = SimCache::with_disk(&path).unwrap();
        let b = SimCache::with_disk(&path).unwrap();
        std::thread::scope(|scope| {
            for (h, cache) in [&a, &b].into_iter().enumerate() {
                for t in 0..4u128 {
                    scope.spawn(move || {
                        for i in 0..200u128 {
                            let key = ((h as u128) << 64) | ((i * 4 + t) % 400);
                            cache.put(key, key as f64);
                        }
                    });
                }
            }
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(DISK_HEADER));
        let keys: std::collections::HashSet<u128> = lines
            .map(|l| parse_line(l).expect("every appended line parses").0)
            .collect();
        assert_eq!(keys.len(), 800);
        assert_eq!(text.lines().count(), 1 + 800, "one line per unique key");
        assert_eq!(SimCache::with_disk(&path).unwrap().stats().entries, 800);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_records_load_as_one_entry_and_appends_continue() {
        // Two processes that simulate the same cell each append its record:
        // the file then holds the key twice, with the same value.
        let dir = std::env::temp_dir().join("wmm-harness-cache-duplicates-test");
        let path = dir.join("dup.cache");
        let _ = std::fs::remove_file(&path);
        let a = SimCache::with_disk(&path).unwrap();
        let b = SimCache::with_disk(&path).unwrap();
        a.put(7, 2.5);
        b.put(7, 2.5);
        a.put(8, 3.5);
        drop((a, b));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1 + 3, "key 7 recorded twice");
        let cache = SimCache::with_disk(&path).unwrap();
        assert_eq!(cache.stats().entries, 2, "one entry per key");
        assert_eq!((cache.get(7), cache.get(8)), (Some(2.5), Some(3.5)));
        cache.put(9, 4.5);
        assert_eq!(cache.stats().disk_appends, 1);
        drop(cache);
        let reloaded = SimCache::with_disk(&path).unwrap();
        assert_eq!(reloaded.stats().entries, 3);
        assert_eq!(reloaded.get(9), Some(4.5));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn files_of_another_key_scheme_are_refused() {
        // A file written before the header existed: bare records keyed by
        // the previous hash. Loading it would miss on every lookup.
        let dir = std::env::temp_dir().join("wmm-harness-cache-old-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.cache");
        let record = format!("{:032x} {:016x}\n", 7_u128, 2.5f64.to_bits());
        for text in [
            record.clone(),
            format!("wmm-sim-cache keys=fnv128\n{record}"),
            DISK_HEADER.to_string(),
        ] {
            std::fs::write(&path, &text).unwrap();
            let err = SimCache::with_disk(&path).err().expect("refused");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("key scheme"), "{err}");
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                text,
                "left untouched"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_corrupt_middle_record_is_refused() {
        let dir = std::env::temp_dir().join("wmm-harness-cache-bitflip-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flipped.cache");
        let line = |k: u128| format!("{k:032x} {:016x}\n", (k as f64).to_bits());
        let good = format!("{DISK_HEADER}\n{}{}{}", line(1), line(2), line(3));
        let middle = DISK_HEADER.len() + 1 + 50 + 10;
        for bit in [0x01u8, 0x10, 0x40] {
            let mut bytes = good.clone().into_bytes();
            bytes[middle] ^= bit;
            std::fs::write(&path, &bytes).unwrap();
            match SimCache::with_disk(&path) {
                Err(err) => {
                    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
                    assert!(err.to_string().contains("line 3"), "{err}");
                }
                // A flip can land on another valid hex digit: a different
                // but well-formed key, which only ever misses.
                Ok(cache) => assert_eq!(cache.stats().entries, 3),
            }
        }
        // The same corruption in the last record drops just that record.
        let mut bytes = good.into_bytes();
        let last = bytes.len() - 20;
        bytes[last] = b'#';
        std::fs::write(&path, &bytes).unwrap();
        let cache = SimCache::with_disk(&path).unwrap();
        assert_eq!((cache.stats().entries, cache.get(3)), (2, None));
        let _ = std::fs::remove_file(&path);
    }
}

//! The multicore machine: interleaves per-core execution through the
//! shared memory system, ordering in global time every instruction another
//! core can observe.

use crate::arch::ArchSpec;
use crate::exec::CoreState;
use crate::isa::Instr;
use crate::mem::{is_shared, MemSys};
use crate::probe::{NullProbe, Probe, SiteStallProbe};
use crate::rng::SplitMix64;
use crate::sched::CoreHeap;
use crate::stats::{Counters, ExecStats};

/// A multithreaded program: one instruction stream per simulated thread.
/// Threads beyond the machine's core count are rejected — the platforms and
/// workload generators handle scheduling decisions above this layer.
#[derive(Debug, Clone)]
pub struct Program {
    /// One instruction stream per thread.
    pub threads: Vec<Vec<Instr>>,
}

impl Program {
    /// Build a program from per-thread instruction streams.
    pub fn new(threads: Vec<Vec<Instr>>) -> Self {
        assert!(!threads.is_empty(), "program needs at least one thread");
        Program { threads }
    }
}

/// A program as the run loop reads it: per thread, an ordered list of
/// instruction *parts* whose concatenation is the thread's stream.
///
/// The run loop steps each thread through a cursor over its parts, so a
/// caller can hand it code assembled from shared pieces — an image's
/// literal code slices and one rewriter's site lowerings — without first
/// copying them into one stream per thread. Parts may be empty. Probes and
/// statistics see the linear instruction index into the concatenated
/// stream, so a run over any split of a program is bit-identical to the
/// run over the program itself. A [`Program`] is one part per thread.
pub trait Code {
    /// The number of threads.
    fn threads(&self) -> usize;

    /// Part `part` of `thread`'s stream, or `None` past its last part.
    fn part(&self, thread: usize, part: usize) -> Option<&[Instr]>;
}

impl Code for Program {
    fn threads(&self) -> usize {
        self.threads.len()
    }

    fn part(&self, thread: usize, part: usize) -> Option<&[Instr]> {
        (part == 0).then(|| self.threads[thread].as_slice())
    }
}

/// Where a core is in its thread's parts: the part being executed, its
/// index, and the linear instruction index of its first instruction.
struct Cursor<'c> {
    instrs: &'c [Instr],
    part: usize,
    base: usize,
}

impl<'c> Cursor<'c> {
    /// The first non-empty part at or after `part`, starting at linear
    /// index `base`; `None` once the thread's parts are exhausted.
    fn seek<C: Code + ?Sized>(
        code: &'c C,
        thread: usize,
        mut part: usize,
        base: usize,
    ) -> Option<Self> {
        loop {
            let instrs = code.part(thread, part)?;
            if !instrs.is_empty() {
                return Some(Cursor { instrs, part, base });
            }
            part += 1;
        }
    }
}

/// Workload-level execution context: locality and pipeline-pressure
/// characteristics that belong to the *application*, not the machine.
///
/// These are the knobs through which the synthetic workloads reproduce the
/// paper's observed micro/macro divergences (see `wmm-workloads`).
#[derive(Debug, Clone)]
pub struct WorkloadCtx {
    /// Descriptive name (propagated into reports).
    pub name: String,
    /// Mispredict probability of `Mispredict::Workload` branches — the
    /// branch-predictor pressure of the surrounding application. The paper
    /// speculates exactly this effect for the kernel `ctrl` strategy (§4.3.1).
    pub bp_pressure: f64,
    /// Load-queue pressure observed by `dmb ishld` at fence sites (0..1):
    /// lmbench-style syscall-dense code keeps the load queue hot; most
    /// macrobenchmarks do not.
    pub load_pressure: f64,
    /// L1 miss rate of private/read-only data.
    pub l1_miss_rate: f64,
    /// Fraction of those misses that go all the way to DRAM.
    pub dram_frac: f64,
    /// Per-run multiplicative noise amplitude (scheduling, SMT, frequency):
    /// the workload "stability" of the paper. Applied once per run.
    pub noise_amp: f64,
}

impl Default for WorkloadCtx {
    fn default() -> Self {
        WorkloadCtx {
            name: "default".to_string(),
            bp_pressure: 0.05,
            load_pressure: 0.15,
            l1_miss_rate: 0.02,
            dram_frac: 0.1,
            noise_amp: 0.0,
        }
    }
}

impl WorkloadCtx {
    /// Check that every numeric field is finite and non-negative.
    ///
    /// A NaN or negative pressure/rate would poison core clocks mid-run and
    /// detonate deep inside a batch; [`Machine::run_probed`] rejects
    /// such contexts up front with the offending field named instead.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let fields = [
            ("bp_pressure", self.bp_pressure),
            ("load_pressure", self.load_pressure),
            ("l1_miss_rate", self.l1_miss_rate),
            ("dram_frac", self.dram_frac),
            ("noise_amp", self.noise_amp),
        ];
        for (field, value) in fields {
            if !value.is_finite() || value < 0.0 {
                return Err(format!(
                    "workload ctx `{}`: {field} must be finite and non-negative, got {value}",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

/// Reusable per-run simulation state: core states (including their
/// store-buffer queues), per-core RNG streams, the memory system's line
/// maps, and the scheduler heap.
///
/// `Machine::run` rebuilds all of this per run; executors that drain
/// thousands of jobs instead keep one scratch per worker thread and call
/// [`Machine::run_with`] / [`Machine::run_sited_with`], which reset the
/// state in place and reuse every allocation. A scratch is freely reusable
/// across machines and architectures — each run fully re-initialises the
/// spec-dependent fields — and results are bit-identical to the
/// allocate-fresh path.
#[derive(Debug, Default)]
pub struct MachineScratch {
    cores: Vec<CoreState>,
    rngs: Vec<SplitMix64>,
    mem: MemSys,
    heap: CoreHeap,
}

impl MachineScratch {
    /// An empty scratch arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A simulated multicore machine.
#[derive(Debug, Clone)]
pub struct Machine {
    spec: ArchSpec,
}

impl Machine {
    /// Build a machine from an architecture spec.
    pub fn new(spec: ArchSpec) -> Self {
        Machine { spec }
    }

    /// The architecture spec this machine models.
    pub fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// Execute `program` to completion and return timing statistics.
    ///
    /// Deterministic: the same `(program, ctx, seed)` triple always produces
    /// identical results. Different seeds vary the stochastic components
    /// (cache misses on private data, branch mispredicts, run-level noise) —
    /// one seed corresponds to one of the paper's benchmark samples.
    pub fn run<C: Code + ?Sized>(&self, program: &C, ctx: &WorkloadCtx, seed: u64) -> ExecStats {
        self.run_probed(program, ctx, seed, &mut NullProbe)
    }

    /// [`Machine::run`] reusing a [`MachineScratch`] arena instead of
    /// allocating fresh per-run state — the executor hot path.
    pub fn run_with<C: Code + ?Sized>(
        &self,
        program: &C,
        ctx: &WorkloadCtx,
        seed: u64,
        scratch: &mut MachineScratch,
    ) -> ExecStats {
        // Monomorphized over NullProbe: every probe call compiles away.
        self.run_loop(program, ctx, seed, &mut NullProbe, scratch)
    }

    /// [`Machine::run`] with per-site stall attribution: the run is driven
    /// through a `SiteStallProbe` and the returned statistics carry
    /// `per_site: Some(..)`. Every other field — wall time, core cycles,
    /// counters, store-buffer stalls — is bit-identical to [`Machine::run`]
    /// on the same inputs: the probe observes, it never perturbs. Like
    /// [`Machine::run_with`], it reuses a [`MachineScratch`] arena.
    pub fn run_sited_with<C: Code + ?Sized>(
        &self,
        program: &C,
        ctx: &WorkloadCtx,
        seed: u64,
        scratch: &mut MachineScratch,
    ) -> ExecStats {
        let mut probe = SiteStallProbe::new();
        let mut stats = self.run_loop(program, ctx, seed, &mut probe, scratch);
        stats.per_site = Some(probe.finish());
        stats
    }

    /// [`Machine::run`] driving execution events through `probe` (the
    /// observability seam; see [`crate::probe`]). Results are bit-identical
    /// regardless of the probe attached.
    pub fn run_probed<C: Code + ?Sized>(
        &self,
        program: &C,
        ctx: &WorkloadCtx,
        seed: u64,
        probe: &mut dyn Probe,
    ) -> ExecStats {
        self.run_loop(program, ctx, seed, probe, &mut MachineScratch::new())
    }

    /// The run loop, generic over the probe so statically-known probes
    /// monomorphize (a [`NullProbe`] run carries zero observation overhead
    /// — no virtual dispatch per instruction), with every per-run
    /// allocation drawn from (and returned to) `scratch`.
    ///
    /// Scheduling is discrete-event, but only over *shared* instructions
    /// ([`is_shared`]: directory accesses and fences). Each core runs ahead
    /// through its local instructions until it reaches its next shared one,
    /// then parks in a [`CoreHeap`] under the key `(clock, core)`. The loop
    /// executes the parked instruction of the least key, runs that core
    /// ahead again and re-keys it. A step-by-step loop that always steps
    /// the core with the least `(clock, core)` executes instructions in
    /// non-decreasing key order, since clocks never fall; so its shared
    /// instructions run in exactly the order this loop runs them, and
    /// local instructions cannot see the order. Results are bit-identical
    /// to that loop's; probes see local instructions earlier.
    fn run_loop<C: Code + ?Sized, P: Probe + ?Sized>(
        &self,
        program: &C,
        ctx: &WorkloadCtx,
        seed: u64,
        probe: &mut P,
        scratch: &mut MachineScratch,
    ) -> ExecStats {
        let noise = self.start_run(program, ctx, seed, scratch);
        let MachineScratch {
            cores,
            rngs,
            mem,
            heap,
        } = scratch;
        let mut counters = Counters::default();

        // Every core with code enters the heap at its start clock, so its
        // first instruction runs in key order whether or not it is shared.
        // A thread with no instructions never enters the heap.
        let mut cursors: Vec<Option<Cursor<'_>>> = (0..program.threads())
            .map(|t| Cursor::seek(program, t, 0, 0))
            .collect();
        heap.clear();
        for (i, core) in cores.iter().enumerate() {
            if cursors[i].is_some() {
                heap.push(core.clock, i);
            }
        }
        while let Some(idx) = heap.peek() {
            let core = &mut cores[idx];
            let cursor = cursors[idx].as_mut().expect("a queued core has code left");
            let rng = &mut rngs[idx];
            // Execute the parked instruction, then run ahead to the next
            // shared one. Within a part the walk is a flat slice walk; only
            // a part boundary moves the cursor.
            loop {
                let instr = &cursor.instrs[core.pc - cursor.base];
                probe.begin(idx, core.pc, instr);
                let before = core.clock;
                core.step_probed(instr, &self.spec, ctx, mem, rng, &mut counters, probe);
                probe.retire(idx, core.pc, core.clock - before, core.clock);
                core.pc += 1;
                if core.pc - cursor.base == cursor.instrs.len() {
                    match Cursor::seek(program, idx, cursor.part + 1, core.pc) {
                        Some(next) => *cursor = next,
                        None => {
                            heap.pop_root();
                            break;
                        }
                    }
                }
                if is_shared(&cursor.instrs[core.pc - cursor.base]) {
                    heap.update_root(core.clock);
                    break;
                }
            }
        }
        self.finish_run(cores, counters, noise)
    }

    /// Check a run of `program` under `ctx` and reset `scratch` for it:
    /// one core, store buffer and RNG stream per thread, a cold memory
    /// system, and core clocks at their staggered start times. Returns the
    /// run-level and SMT noise factors of the wall time.
    fn start_run<C: Code + ?Sized>(
        &self,
        program: &C,
        ctx: &WorkloadCtx,
        seed: u64,
        scratch: &mut MachineScratch,
    ) -> (f64, f64) {
        let n = program.threads();
        // The same refusal `Program::new` makes, for code of any shape.
        assert!(n > 0, "program needs at least one thread");
        assert!(
            n <= self.spec.cores * self.spec.smt as usize,
            "program has {n} threads but machine exposes {} hardware contexts",
            self.spec.cores * self.spec.smt as usize
        );
        // Reject hostile contexts before any simulation: a NaN or negative
        // rate would otherwise poison clocks mid-run, failing an entire
        // campaign batch from deep inside the hot loop.
        if let Err(why) = ctx.validate() {
            panic!("rejected before simulation: {why}");
        }
        let mut root = SplitMix64::new(seed ^ 0x5DEE_CE66_D1CE_5EED);
        // Run-level noise factor: models scheduling/SMT/frequency jitter that
        // shifts a whole sample, the dominant term in unstable benchmarks.
        let run_noise = root.jitter(ctx.noise_amp);
        // SMT contention: when more threads run than physical cores, or the
        // machine time-slices SMT contexts, cores interfere. POWER7's 4-way
        // SMT adds extra jitter even for modest thread counts.
        let smt_noise = if self.spec.smt > 1 {
            root.jitter(ctx.noise_amp * 0.5)
        } else {
            1.0
        };

        let MachineScratch {
            cores, rngs, mem, ..
        } = scratch;
        mem.clear();
        cores.truncate(n);
        for (id, core) in cores.iter_mut().enumerate() {
            core.reset(id, &self.spec);
        }
        for id in cores.len()..n {
            cores.push(CoreState::new(id, &self.spec));
        }
        rngs.clear();
        rngs.extend((0..n).map(|_| root.split()));
        // Stagger thread start times slightly, as a real scheduler would.
        // Each core lands in its own disjoint range [i*20, i*20+10], so
        // initial clocks never tie.
        for (i, core) in cores.iter_mut().enumerate() {
            core.clock = (i as f64) * 20.0 + rngs[i].next_f64() * 10.0;
        }
        (run_noise, smt_noise)
    }

    /// The statistics of a finished run on `cores`.
    fn finish_run(&self, cores: &[CoreState], counters: Counters, noise: (f64, f64)) -> ExecStats {
        let (run_noise, smt_noise) = noise;
        let mut sb_stall_cycles = 0.0;
        let mut sb_stalls = 0;
        for core in cores {
            sb_stall_cycles += core.sbuf.stall_cycles;
            sb_stalls += core.sbuf.stalls;
        }
        let max_cycles = cores.iter().map(|c| c.clock).fold(0.0_f64, f64::max);
        ExecStats {
            wall_ns: self.spec.ns(max_cycles) * run_noise * smt_noise,
            core_cycles: cores.iter().map(|c| c.clock).collect(),
            counters,
            sb_stall_cycles,
            sb_stalls,
            per_site: None,
        }
    }

    /// Convenience micro-harness: time a tight loop of `n` repetitions of
    /// `body` on a single core, returning mean nanoseconds per repetition.
    ///
    /// This is the "basic microbenchmarking" of §4.2.1 (e.g. measuring
    /// `sync` at 18.9 ns and `lwsync` at 6.1 ns) — and it demonstrates the
    /// limits the paper highlights: run it on `dmb ish` vs `dmb ishst` and
    /// you will see no difference, because the machine is otherwise idle.
    pub fn time_sequence_ns(&self, body: &[Instr], n: usize, seed: u64) -> f64 {
        let ctx = WorkloadCtx {
            name: "micro".to_string(),
            bp_pressure: 0.0,
            load_pressure: 0.0,
            l1_miss_rate: 0.0,
            dram_frac: 0.0,
            noise_amp: 0.0,
        };
        let stats = self.run(&Repeat { body, n }, &ctx, seed);
        stats.wall_ns / n as f64
    }
}

/// One thread whose code is `body` repeated `n` times, as `n` parts, so a
/// long loop is timed without copying `body` into one stream.
struct Repeat<'b> {
    body: &'b [Instr],
    n: usize,
}

impl Code for Repeat<'_> {
    fn threads(&self) -> usize {
        1
    }

    fn part(&self, _thread: usize, part: usize) -> Option<&[Instr]> {
        (part < self.n).then_some(self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{armv8_xgene1, power7};
    use crate::isa::{AccessOrd, FenceKind, Loc, Mispredict};
    use proptest::prelude::*;

    fn store(line: u64) -> Instr {
        Instr::Store {
            loc: Loc::SharedRw(line),
            ord: AccessOrd::Plain,
        }
    }

    fn load(line: u64) -> Instr {
        Instr::Load {
            loc: Loc::SharedRw(line),
            ord: AccessOrd::Plain,
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let m = Machine::new(armv8_xgene1());
        let prog = Program::new(vec![
            vec![store(1), Instr::Fence(FenceKind::DmbIsh), load(2)],
            vec![store(2), Instr::Fence(FenceKind::DmbIsh), load(1)],
        ]);
        let ctx = WorkloadCtx::default();
        let a = m.run(&prog, &ctx, 99);
        let b = m.run(&prog, &ctx, 99);
        assert_eq!(a.wall_ns, b.wall_ns);
        assert_eq!(a.core_cycles, b.core_cycles);
    }

    #[test]
    fn different_seeds_vary_with_noise() {
        let m = Machine::new(armv8_xgene1());
        let prog = Program::new(vec![vec![load(1); 100]]);
        let ctx = WorkloadCtx {
            l1_miss_rate: 0.3,
            noise_amp: 0.02,
            ..WorkloadCtx::default()
        };
        let a = m.run(&prog, &ctx, 1);
        let b = m.run(&prog, &ctx, 2);
        assert_ne!(a.wall_ns, b.wall_ns);
    }

    #[test]
    fn rejects_too_many_threads() {
        let m = Machine::new(armv8_xgene1()); // 8 cores, no SMT
        let threads = vec![vec![Instr::Nop]; 9];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run(&Program::new(threads), &WorkloadCtx::default(), 0)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn power7_smt_accepts_many_threads() {
        let m = Machine::new(power7()); // 12 cores x 4 SMT
        let threads = vec![vec![Instr::Nop]; 16];
        let stats = m.run(&Program::new(threads), &WorkloadCtx::default(), 0);
        assert_eq!(stats.core_cycles.len(), 16);
    }

    #[test]
    fn micro_timing_of_power_fences_matches_paper() {
        // §4.2.1: "Basic microbenchmarking of sync and lwsync determines
        // their execution times to be 6.1ns and 18.9ns respectively."
        let m = Machine::new(power7());
        let lw = m.time_sequence_ns(&[Instr::Fence(FenceKind::LwSync)], 2000, 1);
        let hw = m.time_sequence_ns(&[Instr::Fence(FenceKind::HwSync)], 2000, 1);
        assert!((lw - 6.1).abs() < 0.5, "lwsync micro {lw} ns");
        assert!((hw - 18.9).abs() < 1.0, "sync micro {hw} ns");
    }

    #[test]
    fn micro_timing_cannot_distinguish_dmb_variants() {
        let m = Machine::new(armv8_xgene1());
        let ish = m.time_sequence_ns(&[Instr::Fence(FenceKind::DmbIsh)], 2000, 1);
        let ishst = m.time_sequence_ns(&[Instr::Fence(FenceKind::DmbIshSt)], 2000, 1);
        let ishld = m.time_sequence_ns(&[Instr::Fence(FenceKind::DmbIshLd)], 2000, 1);
        assert!((ish - ishst).abs() / ish < 0.05, "{ish} vs {ishst}");
        assert!((ish - ishld).abs() / ish < 0.05, "{ish} vs {ishld}");
    }

    #[test]
    fn contended_line_slower_than_private() {
        let m = Machine::new(armv8_xgene1());
        let ctx = WorkloadCtx::default();
        // Paced ping-pong keeps both threads concurrently active so the
        // line genuinely bounces between caches.
        let paced = |line: u64, tid: u64| -> Vec<Instr> {
            (0..150)
                .flat_map(|i| {
                    vec![
                        Instr::Compute { cycles: 40 },
                        if (i + tid).is_multiple_of(2) {
                            store(line)
                        } else {
                            load(line)
                        },
                    ]
                })
                .collect()
        };
        let contended = Program::new(vec![paced(7, 0), paced(7, 1)]);
        let disjoint = Program::new(vec![paced(8, 0), paced(9, 1)]);
        let c = m.run(&contended, &ctx, 3);
        let d = m.run(&disjoint, &ctx, 3);
        assert!(
            c.wall_ns > d.wall_ns,
            "contention should cost: {} vs {}",
            c.wall_ns,
            d.wall_ns
        );
        assert!(c.counters.coherence_transfers > d.counters.coherence_transfers);
    }

    #[test]
    fn wall_time_is_max_core_time() {
        let m = Machine::new(armv8_xgene1());
        let prog = Program::new(vec![
            vec![Instr::Compute { cycles: 10_000 }],
            vec![Instr::Compute { cycles: 10 }],
        ]);
        let stats = m.run(&prog, &WorkloadCtx::default(), 0);
        let max_c = stats.core_cycles.iter().cloned().fold(0.0, f64::max);
        assert!((stats.wall_ns - m.spec().ns(max_c)).abs() < 1e-9);
    }

    #[test]
    fn workload_ctx_validation_names_the_offending_field() {
        let mut ctx = WorkloadCtx::default();
        assert!(ctx.validate().is_ok());
        ctx.noise_amp = f64::NAN;
        let err = ctx.validate().unwrap_err();
        assert!(err.contains("noise_amp"), "{err}");
        ctx.noise_amp = 0.0;
        ctx.l1_miss_rate = -0.5;
        let err = ctx.validate().unwrap_err();
        assert!(err.contains("l1_miss_rate"), "{err}");
        ctx.l1_miss_rate = f64::INFINITY;
        assert!(ctx.validate().is_err());
    }

    #[test]
    fn hostile_ctx_is_rejected_up_front_not_mid_run() {
        // A NaN noise amplitude used to detonate mid-batch at the scheduler's
        // `partial_cmp(..).expect("clocks are finite")`; now the run refuses
        // to start, naming the poisoned field.
        let m = Machine::new(armv8_xgene1());
        let prog = Program::new(vec![vec![load(1); 50], vec![store(1); 50]]);
        let ctx = WorkloadCtx {
            noise_amp: f64::NAN,
            ..WorkloadCtx::default()
        };
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run(&prog, &ctx, 0)));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("rejected before simulation"), "{msg}");
        assert!(msg.contains("noise_amp"), "{msg}");
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_state() {
        // One scratch across dissimilar jobs — different thread counts,
        // shapes, architectures — must reproduce the allocate-fresh results
        // exactly, including stats populated from reused buffers.
        let arm = Machine::new(armv8_xgene1());
        let pow = Machine::new(power7());
        let progs = [
            Program::new(vec![vec![
                store(1),
                Instr::Fence(FenceKind::DmbIsh),
                load(2),
            ]]),
            Program::new(vec![
                vec![store(1); 40],
                vec![load(1); 40],
                vec![store(2), load(2), store(2), load(2)],
            ]),
            Program::new(vec![
                vec![Instr::Compute { cycles: 500 }],
                vec![load(9); 10],
            ]),
        ];
        let ctx = WorkloadCtx {
            l1_miss_rate: 0.2,
            noise_amp: 0.01,
            ..WorkloadCtx::default()
        };
        let mut scratch = MachineScratch::new();
        for round in 0..3 {
            for (i, prog) in progs.iter().enumerate() {
                for machine in [&arm, &pow] {
                    let seed = (round * 10 + i) as u64;
                    let fresh = machine.run(prog, &ctx, seed);
                    let reused = machine.run_with(prog, &ctx, seed, &mut scratch);
                    assert_eq!(fresh.wall_ns, reused.wall_ns);
                    assert_eq!(fresh.core_cycles, reused.core_cycles);
                    assert_eq!(fresh.sb_stall_cycles, reused.sb_stall_cycles);
                    assert_eq!(fresh.sb_stalls, reused.sb_stalls);
                    assert_eq!(fresh.counters, reused.counters);
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_for_sited_runs() {
        let m = Machine::new(armv8_xgene1());
        let prog = Program::new(vec![
            vec![store(1), Instr::Fence(FenceKind::DmbIsh), load(2)],
            vec![store(2), Instr::Fence(FenceKind::DmbIsh), load(1)],
        ]);
        let ctx = WorkloadCtx::default();
        let mut scratch = MachineScratch::new();
        // Warm the scratch with an unrelated job first.
        m.run_with(
            &Program::new(vec![vec![load(5); 30]; 4]),
            &ctx,
            1,
            &mut scratch,
        );
        let fresh = m.run_sited_with(&prog, &ctx, 42, &mut MachineScratch::new());
        let reused = m.run_sited_with(&prog, &ctx, 42, &mut scratch);
        assert_eq!(fresh.wall_ns, reused.wall_ns);
        assert_eq!(fresh.per_site, reused.per_site);
    }

    /// The step-by-step run loop that run-ahead scheduling replaced, as the
    /// reference: after every instruction it re-keys the stepped core and
    /// steps whichever core now has the least `(clock, core)`.
    fn run_stepwise<C: Code + ?Sized, P: Probe>(
        machine: &Machine,
        program: &C,
        ctx: &WorkloadCtx,
        seed: u64,
        probe: &mut P,
    ) -> ExecStats {
        let mut scratch = MachineScratch::new();
        let noise = machine.start_run(program, ctx, seed, &mut scratch);
        let MachineScratch {
            cores,
            rngs,
            mem,
            heap,
        } = &mut scratch;
        let mut counters = Counters::default();
        let mut cursors: Vec<Option<Cursor<'_>>> = (0..program.threads())
            .map(|t| Cursor::seek(program, t, 0, 0))
            .collect();
        for (i, core) in cores.iter().enumerate() {
            if cursors[i].is_some() {
                heap.push(core.clock, i);
            }
        }
        while let Some(idx) = heap.peek() {
            let core = &mut cores[idx];
            let cursor = cursors[idx].as_mut().expect("a queued core has code left");
            let rng = &mut rngs[idx];
            loop {
                let instr = &cursor.instrs[core.pc - cursor.base];
                probe.begin(idx, core.pc, instr);
                let before = core.clock;
                core.step_probed(instr, &machine.spec, ctx, mem, rng, &mut counters, probe);
                probe.retire(idx, core.pc, core.clock - before, core.clock);
                core.pc += 1;
                if core.pc - cursor.base == cursor.instrs.len() {
                    match Cursor::seek(program, idx, cursor.part + 1, core.pc) {
                        Some(next) => *cursor = next,
                        None => {
                            heap.pop_root();
                            break;
                        }
                    }
                }
                heap.update_root(core.clock);
                if heap.peek() != Some(idx) {
                    break;
                }
            }
        }
        machine.finish_run(cores, counters, noise)
    }

    /// A program cut into parts: per thread, the parts' slices in order.
    struct Split<'p> {
        threads: Vec<Vec<&'p [Instr]>>,
    }

    impl<'p> Split<'p> {
        /// Cut every thread of `program` at random boundaries drawn from
        /// `seed`; repeated and end-point cuts give empty parts.
        fn new(program: &'p Program, seed: u64) -> Self {
            let mut rng = SplitMix64::new(seed);
            let threads = program
                .threads
                .iter()
                .map(|stream| {
                    let len = stream.len() as u64;
                    let mut cuts: Vec<usize> = (0..rng.next_below(len + 3))
                        .map(|_| rng.next_below(len + 1) as usize)
                        .collect();
                    cuts.sort_unstable();
                    let mut from = 0;
                    let mut parts: Vec<&[Instr]> = cuts
                        .into_iter()
                        .map(|cut| {
                            let part = &stream[from..cut];
                            from = cut;
                            part
                        })
                        .collect();
                    parts.push(&stream[from..]);
                    parts
                })
                .collect();
            Split { threads }
        }
    }

    impl Code for Split<'_> {
        fn threads(&self) -> usize {
            self.threads.len()
        }

        fn part(&self, thread: usize, part: usize) -> Option<&[Instr]> {
            self.threads[thread].get(part).copied()
        }
    }

    fn any_loc() -> impl Strategy<Value = Loc> {
        // Few lines, so threads contend on them.
        prop_oneof![
            (0u64..3).prop_map(Loc::Private),
            (0u64..3).prop_map(Loc::SharedRo),
            (0u64..3).prop_map(Loc::SharedRw),
        ]
    }

    fn any_ord() -> impl Strategy<Value = AccessOrd> {
        prop_oneof![
            Just(AccessOrd::Plain),
            Just(AccessOrd::Acquire),
            Just(AccessOrd::Release),
        ]
    }

    fn any_fence() -> impl Strategy<Value = Instr> {
        (0usize..FenceKind::ALL.len()).prop_map(|i| Instr::Fence(FenceKind::ALL[i]))
    }

    fn any_instr() -> impl Strategy<Value = Instr> {
        prop_oneof![
            Just(Instr::Nop),
            Just(Instr::MovImm),
            Just(Instr::Alu),
            Just(Instr::CmpImm),
            Just(Instr::StackPush),
            Just(Instr::StackPop),
            prop_oneof![
                Just(Mispredict::Never),
                Just(Mispredict::Workload),
                (0.0f64..0.5).prop_map(Mispredict::Rate),
            ]
            .prop_map(Instr::CondBranch),
            (any_loc(), any_ord()).prop_map(|(loc, ord)| Instr::Load { loc, ord }),
            (any_loc(), any_ord()).prop_map(|(loc, ord)| Instr::Store { loc, ord }),
            (any_loc(), 0.3f64..1.0)
                .prop_map(|(loc, success_prob)| Instr::Cas { loc, success_prob }),
            any_fence(),
            (1u64..64, 0u32..2).prop_map(|(iters, spill)| Instr::CostLoop {
                iters,
                stack_spill: spill == 1
            }),
            // Zero-cycle blocks tie a core's clock with its next instruction's.
            (0u32..3).prop_map(|cycles| Instr::Compute { cycles }),
            (0u32..120).prop_map(|cycles| Instr::Compute { cycles }),
        ]
    }

    /// Half the instructions are fences, so cores' fences of one kind
    /// interleave and their float cycle sums see the retirement order.
    fn any_program() -> impl Strategy<Value = Program> {
        let instr = prop_oneof![any_instr(), any_fence()];
        prop::collection::vec(prop::collection::vec(instr, 0..24), 1..9).prop_map(Program::new)
    }

    fn any_ctx() -> impl Strategy<Value = WorkloadCtx> {
        (
            (0.0f64..0.3, 0.0f64..1.0),
            (0.0f64..0.3, 0.0f64..1.0),
            0.0f64..0.05,
        )
            .prop_map(
                |((bp_pressure, load_pressure), (l1_miss_rate, dram_frac), noise_amp)| {
                    WorkloadCtx {
                        name: "prop".to_string(),
                        bp_pressure,
                        load_pressure,
                        l1_miss_rate,
                        dram_frac,
                        noise_amp,
                    }
                },
            )
    }

    /// Every float of `stats` as bits, so `-0.0` and `0.0` differ too.
    fn float_bits(stats: &ExecStats) -> Vec<u64> {
        let fences = FenceKind::ALL
            .iter()
            .filter_map(|kind| stats.counters.fence_cycles.get(kind).copied());
        let sites = stats.per_site.iter().flatten().flat_map(|site| {
            [
                site.fence_cycles,
                site.sb_stall_cycles,
                site.mem_cycles,
                site.total_cycles,
            ]
        });
        [stats.wall_ns, stats.sb_stall_cycles]
            .into_iter()
            .chain(stats.core_cycles.iter().copied())
            .chain(fences)
            .chain(sites)
            .map(f64::to_bits)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn run_ahead_matches_the_stepwise_loop(
            program in any_program(),
            ctx in any_ctx(),
            seed in 0u64..u64::MAX,
            cuts in 0u64..u64::MAX,
        ) {
            let split = Split::new(&program, cuts);
            let mut scratch = MachineScratch::new();
            for machine in [Machine::new(armv8_xgene1()), Machine::new(power7())] {
                let unsited = run_stepwise(&machine, &program, &ctx, seed, &mut NullProbe);
                let mut probe = SiteStallProbe::new();
                let mut sited = run_stepwise(&machine, &program, &ctx, seed, &mut probe);
                sited.per_site = Some(probe.finish());
                for code in [&program as &dyn Code, &split] {
                    let got = machine.run_with(code, &ctx, seed, &mut scratch);
                    prop_assert_eq!(float_bits(&got), float_bits(&unsited));
                    prop_assert_eq!(got, unsited);
                    let got = machine.run_sited_with(code, &ctx, seed, &mut scratch);
                    prop_assert_eq!(float_bits(&got), float_bits(&sited));
                    prop_assert_eq!(got, sited);
                }
            }
        }
    }
}

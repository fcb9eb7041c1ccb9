//! The execution seam: how batches of independent simulations are run.
//!
//! Every experiment in the methodology — a [`crate::runner::measure_with`]
//! call, a [`crate::sensitivity::sweep_with`], a ranking matrix, a turnkey
//! evaluation — bottoms out in a set of *independent, deterministic*
//! simulations: each is one `(machine, program, ctx, seed)` cell, and cells
//! never depend on each other's results. [`Executor`] abstracts over how
//! such a batch is driven, and every entry point takes one as `&dyn
//! Executor`: there is no serial twin that runs without it. The
//! `wmm-harness` crate provides the parallel, caching executor that fans
//! cells out across worker threads and skips already-simulated cells via a
//! content-addressed result cache. The in-crate [`SerialExecutor`] runs
//! cells in order on the calling thread; it is the reference
//! implementation the determinism tests compare that executor against.
//!
//! The contract that makes this safe to parallelise: an executor must
//! return results **in cell order**, and each cell's result must depend
//! only on that cell's inputs. The simulator guarantees the latter
//! (`Machine::run` is deterministic in `(program, ctx, seed)`), so any
//! executor that preserves order produces bit-identical experiment output
//! regardless of worker count.
//!
//! # Cells, simulated in place
//!
//! The unit of work is a [`SimCell`]. Every campaign batch built from
//! images, sited profiling batches included, submits cells that are never
//! linked into a program: an [`ImageCode`] (an image whose literal code
//! is indexed and digested once and shared by every configuration) plus
//! one rewriter's [`SiteTable`] ([`CellProgram::Image`]). The cell's
//! [`SimCell::digest`] equals the digest of the program
//! [`SiteRewriter::link`] would return, so a caching executor keys and
//! looks it up from digests alone, and a miss is simulated in place: the
//! simulator's run loop walks each thread's parts — the image's code
//! slices and the table's site lowerings — through [`ImageCode::parts`],
//! with results bit-identical to running the linked program. A sited cell's stall records carry linear
//! indices into that stream, which [`SiteNames`] maps to site names. No
//! path through an executor copies an image cell's instructions. An
//! already-linked [`SimJob`] (a hand-built job, or the benchmark's linked
//! replica) is the trivial cell ([`CellProgram::Linked`]), keyed from its
//! stream: one executor path serves both.
//!
//! [`SiteRewriter::link`]: crate::image::SiteRewriter::link
//! [`SiteNames`]: crate::image::SiteNames
//!
//! # Telemetry through the seam
//!
//! The simulator counts every fence execution and stall cycle
//! ([`ExecStats`]), and discarding that ground truth at the seam would make
//! the methodology's Eq. 2 cost estimates impossible to audit. So the
//! primitive batch operation, [`Executor::run_cells`], returns one
//! [`JobOutcome`] per cell: always the wall time, plus the full
//! [`ExecStats`] whenever the cell was actually simulated. A caching
//! executor answers repeat cells from a wall-time-only store, so a cache
//! hit carries `stats: None` — callers that aggregate telemetry count only
//! the observed (freshly simulated) cells. [`Executor::run_batch_stats`]
//! and [`Executor::run_batch`] are the same operation over linked jobs.

use wmm_sim::machine::{Code, MachineScratch, Program, WorkloadCtx};
use wmm_sim::stats::ExecStats;
use wmm_sim::Machine;

use crate::digest::{program_digest, Digest};
use crate::image::{ImageCode, SiteTable};

/// One independent simulation cell: everything `Machine::run` needs.
///
/// Jobs own their program and context so a batch can outlive the image it
/// was linked from and cross thread boundaries freely.
pub struct SimJob<'a> {
    /// The machine to simulate on.
    pub machine: &'a Machine,
    /// The linked program.
    pub program: Program,
    /// Workload execution context.
    pub ctx: WorkloadCtx,
    /// Sample seed.
    pub seed: u64,
    /// Collect per-site stall attribution (`Machine::run_sited`). Sited
    /// runs produce identical wall times and counters to unsited ones, but
    /// their [`ExecStats`] additionally carries the per-site stall map —
    /// caching executors must treat them as always-miss so the stats are
    /// guaranteed present.
    pub sited: bool,
}

impl SimJob<'_> {
    /// Run this job to completion, returning the simulated wall time (ns).
    pub fn run(&self) -> f64 {
        self.run_stats().wall_ns
    }

    /// Run this job to completion, returning the full execution statistics
    /// (wall time, per-core cycles, event counters, fence stall cycles).
    pub fn run_stats(&self) -> ExecStats {
        self.run_stats_with(&mut MachineScratch::new())
    }

    /// [`SimJob::run_stats`] reusing a [`MachineScratch`] arena across jobs
    /// — the executor hot path. Results are bit-identical to
    /// [`SimJob::run_stats`]; only the per-run allocations disappear.
    pub fn run_stats_with(&self, scratch: &mut MachineScratch) -> ExecStats {
        simulate(
            self.machine,
            &self.program,
            &self.ctx,
            self.seed,
            self.sited,
            scratch,
        )
    }
}

fn simulate<C: Code + ?Sized>(
    machine: &Machine,
    program: &C,
    ctx: &WorkloadCtx,
    seed: u64,
    sited: bool,
    scratch: &mut MachineScratch,
) -> ExecStats {
    if sited {
        machine.run_sited_with(program, ctx, seed, scratch)
    } else {
        machine.run_with(program, ctx, seed, scratch)
    }
}

/// Where a [`SimCell`]'s program comes from.
pub enum CellProgram<'a> {
    /// An already-linked program; its digest is hashed from the stream.
    Linked(Program),
    /// An image under a rewriter's site table, simulated in place. Its
    /// digest is composed from the image's code digests and the table's
    /// site digests.
    Image(&'a ImageCode<'a>, &'a SiteTable),
}

/// The unit every [`Executor`] drains: a [`SimJob`] whose program may be
/// an image under a site table rather than a linked stream.
///
/// A caching executor keys a cell by [`SimCell::digest`] and simulates a
/// miss with [`SimCell::run_stats_with`]; neither links an
/// [`CellProgram::Image`] cell. An already-linked job is the trivial cell
/// ([`SimCell::from`]).
pub struct SimCell<'a> {
    /// The machine to simulate on.
    pub machine: &'a Machine,
    /// The program, linked or to be linked.
    pub program: CellProgram<'a>,
    /// Workload execution context.
    pub ctx: WorkloadCtx,
    /// Sample seed.
    pub seed: u64,
    /// Collect per-site stall attribution; see [`SimJob::sited`].
    pub sited: bool,
}

impl<'a> From<SimJob<'a>> for SimCell<'a> {
    fn from(job: SimJob<'a>) -> Self {
        SimCell {
            machine: job.machine,
            program: CellProgram::Linked(job.program),
            ctx: job.ctx,
            seed: job.seed,
            sited: job.sited,
        }
    }
}

impl SimCell<'_> {
    /// The digest of the cell's linked program: equal to
    /// [`program_digest`] of it, whether or not it is linked.
    pub fn digest(&self) -> Digest {
        match &self.program {
            CellProgram::Linked(p) => program_digest(p),
            CellProgram::Image(code, sites) => code.digest(sites),
        }
    }

    /// Run the cell to completion; an image cell runs in place. Results
    /// are bit-identical to [`SimJob::run_stats`] on the linked job.
    pub fn run_stats_with(&self, scratch: &mut MachineScratch) -> ExecStats {
        let (machine, ctx, seed, sited) = (self.machine, &self.ctx, self.seed, self.sited);
        match &self.program {
            CellProgram::Linked(p) => simulate(machine, p, ctx, seed, sited, scratch),
            CellProgram::Image(code, sites) => {
                simulate(machine, &code.parts(sites), ctx, seed, sited, scratch)
            }
        }
    }
}

/// The result of one job through the seam: the wall time that defines the
/// experiment's output, plus the simulator's full statistics when the job
/// was freshly simulated (`None` means the wall time came from a result
/// cache, which stores only the scalar).
pub struct JobOutcome {
    /// Simulated wall-clock time, ns — identical to what `run_batch`
    /// returns for this job.
    pub wall_ns: f64,
    /// Full execution statistics, when observed.
    pub stats: Option<ExecStats>,
}

impl JobOutcome {
    /// An outcome observed by actually running the simulation.
    pub fn observed(stats: ExecStats) -> Self {
        JobOutcome {
            wall_ns: stats.wall_ns,
            stats: Some(stats),
        }
    }

    /// An outcome answered from a wall-time-only cache.
    pub fn cached(wall_ns: f64) -> Self {
        JobOutcome {
            wall_ns,
            stats: None,
        }
    }
}

/// Strategy for draining a batch of independent simulation cells.
pub trait Executor: Sync {
    /// Run every cell and return one [`JobOutcome`] per cell **in cell
    /// order**. Wall times must be bit-identical to what direct
    /// `SimJob::run` calls on the linked cells would produce.
    fn run_cells(&self, cells: Vec<SimCell<'_>>) -> Vec<JobOutcome>;

    /// [`Executor::run_cells`] over already-linked jobs.
    fn run_batch_stats(&self, jobs: Vec<SimJob<'_>>) -> Vec<JobOutcome> {
        self.run_cells(jobs.into_iter().map(SimCell::from).collect())
    }

    /// Run every job and return the wall times (ns) **in job order** — the
    /// scalar projection of [`Executor::run_batch_stats`].
    fn run_batch(&self, jobs: Vec<SimJob<'_>>) -> Vec<f64> {
        wall_times(self.run_batch_stats(jobs))
    }
}

/// The wall times of a batch's outcomes, in order.
pub fn wall_times(outcomes: Vec<JobOutcome>) -> Vec<f64> {
    outcomes.into_iter().map(|o| o.wall_ns).collect()
}

/// The reference executor: runs cells sequentially on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn run_cells(&self, cells: Vec<SimCell<'_>>) -> Vec<JobOutcome> {
        // One scratch arena serves the whole batch: per-run state is reset
        // in place instead of reallocated per job.
        let mut scratch = MachineScratch::new();
        cells
            .iter()
            .map(|c| JobOutcome::observed(c.run_stats_with(&mut scratch)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_sim::arch::armv8_xgene1;
    use wmm_sim::isa::{FenceKind, Instr};

    #[test]
    fn serial_executor_matches_direct_runs() {
        let machine = Machine::new(armv8_xgene1());
        let ctx = WorkloadCtx::default();
        let mk = |cycles: u32, seed: u64| SimJob {
            machine: &machine,
            program: Program::new(vec![vec![Instr::Compute { cycles }]]),
            ctx: ctx.clone(),
            seed,
            sited: false,
        };
        let jobs = vec![mk(100, 1), mk(5_000, 2), mk(700, 3)];
        let direct: Vec<f64> = jobs.iter().map(SimJob::run).collect();
        let batched = SerialExecutor.run_batch(jobs);
        assert_eq!(batched, direct);
        assert!(batched[1] > batched[0]);
    }

    #[test]
    fn stats_batch_carries_full_exec_stats() {
        let machine = Machine::new(armv8_xgene1());
        let job = SimJob {
            machine: &machine,
            program: Program::new(vec![vec![
                Instr::Compute { cycles: 100 },
                Instr::Fence(FenceKind::DmbIsh),
                Instr::Fence(FenceKind::DmbIsh),
            ]]),
            ctx: WorkloadCtx::default(),
            seed: 9,
            sited: false,
        };
        let outcomes = SerialExecutor.run_batch_stats(vec![job]);
        assert_eq!(outcomes.len(), 1);
        let o = &outcomes[0];
        let stats = o.stats.as_ref().expect("serial runs always observe");
        assert_eq!(o.wall_ns, stats.wall_ns);
        assert_eq!(stats.fences(FenceKind::DmbIsh), 2);
        assert!(stats.fence_stall_cycles(FenceKind::DmbIsh) > 0.0);
    }

    #[test]
    fn cached_outcome_has_no_stats() {
        let o = JobOutcome::cached(12.5);
        assert_eq!(o.wall_ns, 12.5);
        assert!(o.stats.is_none());
    }
}

//! Cells keyed from digests and simulated in place agree with the linked
//! programs, bit for bit.
//!
//! A cache hit must not depend on whether a cell arrived linked or as an
//! image plus a rewriter's site table: `cell_key` of an image cell has to
//! equal `job_key` of the job `SiteRewriter::link` produces. And a miss
//! must not depend on it either: the image cell, simulated in place over
//! its parts, must produce exactly the `ExecStats` of the linked job —
//! wall time, per-core cycles, counters, store-buffer stalls and, for a
//! sited run, every per-site record. The property tests check both on
//! arbitrary images, including empty code, zero-length site lowerings and
//! empty threads, and check that rewriting an image without changing its
//! linked stream leaves the key alone; the exhaustive tests cover every
//! image and configuration of the quick Fig. 5, Fig. 6 and Fig. 9 sweeps.

use std::hash::Hash;

use proptest::prelude::*;

use wmm::wmm_bench::ExpConfig;
use wmm::wmm_bench::{jvm_base_strategy, jvm_costfn_spill, jvm_envelope, kernel_envelope, machine};
use wmm::wmm_harness::{cell_key, job_key};
use wmm::wmm_jvm::barrier::{sites_containing, Elemental};
use wmm::wmm_jvm::jit::JitConfig;
use wmm::wmm_kernel::macros::{default_arm_strategy, KMacro};
use wmm::wmm_sim::arch::{armv8_xgene1, Arch};
use wmm::wmm_sim::isa::{AccessOrd, FenceKind, Instr, Loc, Mispredict};
use wmm::wmm_sim::machine::{MachineScratch, WorkloadCtx};
use wmm::wmm_sim::stats::ExecStats;
use wmm::wmm_sim::Machine;
use wmm::wmm_workloads::dacapo::{dacapo_suite, profile, DacapoBench};
use wmm::wmm_workloads::kernel::{kernel_profile, KernelBench};
use wmm::wmmbench::costfn::{Calibration, CostFunction};
use wmm::wmmbench::exec::{CellProgram, SimCell, SimJob};
use wmm::wmmbench::image::{compute_envelope, Image, Injection, Segment, SiteRewriter};
use wmm::wmmbench::runner::{jobs_from_images, sample_images, SampleCode};
use wmm::wmmbench::sensitivity::pow2_targets;
use wmm::wmmbench::strategy::{FencingStrategy, FnStrategy};

/// Every field of a run's statistics, floats by bit pattern.
fn stats_bits(s: &ExecStats) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        s.wall_ns.to_bits(),
        s.core_cycles
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>(),
        &s.counters,
        s.sb_stall_cycles.to_bits(),
        s.sb_stalls,
        &s.per_site,
    )
}

/// Simulate `cell` in place and its linked `job` on the same scratch,
/// unsited and sited, and assert the statistics are identical.
fn assert_runs_match(cell: &mut SimCell<'_>, job: &mut SimJob<'_>, scratch: &mut MachineScratch) {
    assert!(matches!(cell.program, CellProgram::Image(..)));
    for sited in [false, true] {
        (cell.sited, job.sited) = (sited, sited);
        let in_place = cell.run_stats_with(scratch);
        let linked = job.run_stats();
        assert_eq!(in_place.per_site.is_some(), sited);
        assert_eq!(
            stats_bits(&in_place),
            stats_bits(&linked),
            "seed {}, sited {sited}",
            job.seed
        );
    }
}

/// Assert, for every sample and rewriter, that the image cell's key and
/// in-place runs equal the linked job's; returns the number of cells
/// checked.
fn assert_cells_match_jobs<P: Clone + Eq + Hash>(
    machine: &Machine,
    images: &[(u64, Image<P>)],
    rewriters: &[SiteRewriter<'_, P>],
) -> usize {
    let code = SampleCode::new(images);
    let mut scratch = MachineScratch::new();
    let mut checked = 0;
    for rw in rewriters {
        let sites = code.site_table(rw);
        let (mut jobs, _) = jobs_from_images(machine, images, rw);
        for (mut cell, job) in code.cells(machine, &sites).into_iter().zip(&mut jobs) {
            assert_eq!(cell_key(&cell), job_key(job), "seed {}", job.seed);
            assert_runs_match(&mut cell, job, &mut scratch);
            checked += 1;
        }
    }
    checked
}

/// The base case plus one rewriter per cost size, each injecting `inject`.
fn sweep_rewriters<'s, P: Clone + Eq + Hash>(
    strategy: &'s dyn FencingStrategy<P>,
    envelope: &std::collections::HashMap<P, u64>,
    cal: &Calibration,
    targets: &[f64],
    inject: impl Fn(CostFunction) -> Injection<P>,
) -> Vec<SiteRewriter<'s, P>> {
    let mut injections = vec![Injection::None];
    injections.extend(targets.iter().map(|&t| inject(cal.for_target_ns(t).0)));
    injections
        .into_iter()
        .map(|i| SiteRewriter::new(strategy, i, envelope.clone()))
        .collect()
}

#[test]
fn fig5_cells_key_like_their_linked_jobs_on_both_architectures() {
    let cfg = ExpConfig::quick();
    let mut checked = 0;
    for arch in [Arch::ArmV8, Arch::Power7] {
        let m = machine(arch);
        let strategy = jvm_base_strategy(arch);
        let cal = Calibration::measure(&m, jvm_costfn_spill(arch), 12);
        let env = jvm_envelope(arch);
        let rws = sweep_rewriters(&strategy, &env, &cal, &pow2_targets(0, 8), Injection::All);
        assert_eq!(rws.len(), 10);
        for bench in dacapo_suite(JitConfig::jdk8(arch), cfg.scale) {
            checked += assert_cells_match_jobs(&m, &sample_images(&bench, cfg.run), &rws);
        }
    }
    assert_eq!(checked, 2 * 8 * 10 * 4);
}

#[test]
fn fig6_set_and_fig9_at_cells_key_like_their_linked_jobs() {
    let cfg = ExpConfig::quick();
    for arch in [Arch::ArmV8, Arch::Power7] {
        let m = machine(arch);
        let strategy = jvm_base_strategy(arch);
        let cal = Calibration::measure(&m, jvm_costfn_spill(arch), 12);
        let env = jvm_envelope(arch);
        let spark = DacapoBench::new(
            profile("spark").expect("spark exists"),
            JitConfig::jdk8(arch),
            cfg.scale,
        );
        let images = sample_images(&spark, cfg.run);
        for e in Elemental::ALL {
            let rws = sweep_rewriters(&strategy, &env, &cal, &pow2_targets(0, 8), |cf| {
                Injection::Set(sites_containing(e), cf)
            });
            assert_cells_match_jobs(&m, &images, &rws);
        }
    }

    let m = machine(Arch::ArmV8);
    let strategy = default_arm_strategy();
    let cal = Calibration::measure(&m, true, 12);
    let env = kernel_envelope();
    let rws = sweep_rewriters(&strategy, &env, &cal, &pow2_targets(0, 9), |cf| {
        Injection::At(KMacro::ReadBarrierDepends, cf)
    });
    for name in [
        "ebizzy",
        "xalan",
        "netperf_udp",
        "osm_stack",
        "lmbench",
        "netperf_tcp",
    ] {
        let bench = KernelBench::new(kernel_profile(name).expect("profile exists"), cfg.scale);
        assert_cells_match_jobs(&m, &sample_images(&bench, cfg.run), &rws);
    }
}

// ---------------------------------------------------------------------------
// Arbitrary images and stream-preserving rewrites
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Path {
    Fence,
    Branchy,
    Empty,
}

const PATHS: [Path; 3] = [Path::Fence, Path::Branchy, Path::Empty];

fn lower(p: &Path) -> Vec<Instr> {
    match p {
        Path::Fence => vec![Instr::Fence(FenceKind::DmbIsh)],
        Path::Branchy => vec![
            Instr::CmpImm,
            Instr::CondBranch(Mispredict::Never),
            Instr::Fence(FenceKind::Isb),
        ],
        Path::Empty => vec![],
    }
}

/// Instructions including the multi-word encodings: wide locations, float
/// fields and large loop counts.
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        Just(Instr::Nop),
        Just(Instr::Alu),
        (0u64..u64::MAX).prop_map(|l| Instr::Load {
            loc: Loc::SharedRw(l >> (l % 64)),
            ord: AccessOrd::Acquire
        }),
        (0u64..1 << 20).prop_map(|l| Instr::Store {
            loc: Loc::Private(l),
            ord: AccessOrd::Release
        }),
        (0.0f64..1.0).prop_map(|p| Instr::Cas {
            loc: Loc::SharedRo(7),
            success_prob: p
        }),
        (0.0f64..1.0).prop_map(|r| Instr::CondBranch(Mispredict::Rate(r))),
        (0u64..u64::MAX).prop_map(|n| Instr::CostLoop {
            iters: n >> (n % 64),
            stack_spill: n % 2 == 0
        }),
        (0u32..u32::MAX).prop_map(|c| Instr::Compute { cycles: c }),
    ]
}

/// `(kind, instrs, path)`: kind 0 is code, 1 labelled code, 2 a site.
fn arb_segment() -> impl Strategy<Value = (u8, Vec<Instr>, usize)> {
    (
        0u8..3,
        prop::collection::vec(arb_instr(), 0..6),
        0usize..PATHS.len(),
    )
}

fn build_image(threads: Vec<Vec<(u8, Vec<Instr>, usize)>>) -> Image<Path> {
    Image {
        threads: threads
            .into_iter()
            .map(|segs| {
                segs.into_iter()
                    .map(|(kind, instrs, path)| match kind {
                        0 => Segment::Code(instrs),
                        1 => Segment::Labeled("tagged", instrs),
                        _ => Segment::Site(PATHS[path]),
                    })
                    .collect()
            })
            .collect(),
        ctx: WorkloadCtx::default(),
        work_units: 1.0,
    }
}

/// Rewrite one segment of `image` without changing its linked stream:
/// split literal code in two, relabel it, or inline a site's lowering.
fn rewrite(image: &mut Image<Path>, rw: &SiteRewriter<'_, Path>, at: u64, cut: usize) {
    let t = at as usize % image.threads.len();
    let segs = &mut image.threads[t];
    if segs.is_empty() {
        return;
    }
    let i = (at >> 8) as usize % segs.len();
    let replacement = match &segs[i] {
        Segment::Code(is) if at.is_multiple_of(2) => {
            let (a, b) = is.split_at(cut % (is.len() + 1));
            vec![Segment::Code(a.to_vec()), Segment::Code(b.to_vec())]
        }
        Segment::Code(is) => vec![Segment::Labeled("relabelled", is.clone())],
        Segment::Labeled(_, is) => vec![Segment::Code(is.clone())],
        Segment::Site(p) => vec![Segment::Code(rw.lower_site(p))],
    };
    segs.splice(i..=i, replacement);
}

fn cell_key_of(machine: &Machine, image: &Image<Path>, rw: &SiteRewriter<'_, Path>) -> u128 {
    let samples = [(11, image.clone())];
    let code = SampleCode::new(&samples);
    let sites = code.site_table(rw);
    let key = cell_key(&code.cells(machine, &sites)[0]);
    key
}

#[test]
#[should_panic(expected = "program needs at least one thread")]
fn zero_thread_image_cell_is_refused_like_program_new() {
    let machine = Machine::new(armv8_xgene1());
    let strategy = FnStrategy::new("mixed", lower);
    let rw = SiteRewriter::new(
        &strategy,
        Injection::None,
        compute_envelope(&PATHS, &[&strategy], 0),
    );
    let samples = [(11, build_image(vec![]))];
    let code = SampleCode::new(&samples);
    let sites = code.site_table(&rw);
    code.cells(&machine, &sites)[0].run_stats_with(&mut MachineScratch::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// An image cell simulated in place over its parts — empty code
    /// segments, zero-length site lowerings (no envelope room, no
    /// injection) and empty threads included — produces exactly the
    /// statistics of its linked job, sited or not.
    #[test]
    fn in_place_runs_equal_linked_runs(
        threads in prop::collection::vec(prop::collection::vec(arb_segment(), 0..8), 1..4),
        injection in 0u8..4,
        iters in 0u64..1 << 12,
        seed in 0u64..u64::MAX,
    ) {
        let machine = Machine::new(armv8_xgene1());
        let strategy = FnStrategy::new("mixed", lower);
        let cf = CostFunction { iters, stack_spill: iters % 2 == 1 };
        // Without an injection the envelope leaves no room beyond the
        // lowering, so `Path::Empty` sites lower to nothing.
        let (injection, room) = match injection {
            0 => (Injection::None, 0),
            1 => (Injection::All(cf), cf.size()),
            2 => (Injection::At(Path::Branchy, cf), cf.size()),
            _ => (Injection::Set(vec![Path::Fence, Path::Empty], cf), cf.size()),
        };
        let rw = SiteRewriter::new(&strategy, injection, compute_envelope(&PATHS, &[&strategy], room));
        let samples = [(seed, build_image(threads))];
        let code = SampleCode::new(&samples);
        let sites = code.site_table(&rw);
        let (mut jobs, _) = jobs_from_images(&machine, &samples, &rw);
        let mut cell = code.cells(&machine, &sites).remove(0);
        assert_runs_match(&mut cell, &mut jobs[0], &mut MachineScratch::new());
    }

    /// Splitting a code segment, relabelling it, or inlining a site's
    /// lowering as literal code leaves the composed key unchanged, and the
    /// composed key always equals `job_key` of the linked job.
    #[test]
    fn stream_preserving_rewrites_keep_the_composed_key(
        threads in prop::collection::vec(prop::collection::vec(arb_segment(), 0..8), 1..4),
        injection in 0u8..4,
        iters in 0u64..u64::MAX,
        edits in prop::collection::vec((0u64..u64::MAX, 0usize..8), 1..6),
    ) {
        let machine = Machine::new(armv8_xgene1());
        let strategy = FnStrategy::new("mixed", lower);
        let cf = CostFunction { iters: iters >> (iters % 64), stack_spill: iters % 2 == 1 };
        let envelope = compute_envelope(&PATHS, &[&strategy], cf.size());
        let injection = match injection {
            0 => Injection::None,
            1 => Injection::All(cf),
            2 => Injection::At(Path::Branchy, cf),
            _ => Injection::Set(vec![Path::Fence, Path::Empty], cf),
        };
        let rw = SiteRewriter::new(&strategy, injection, envelope);

        let mut image = build_image(threads);
        let samples = [(11, image.clone())];
        let (jobs, _) = jobs_from_images(&machine, &samples, &rw);
        let want = job_key(&jobs[0]);
        prop_assert_eq!(cell_key_of(&machine, &image, &rw), want);
        for (at, cut) in edits {
            rewrite(&mut image, &rw, at, cut);
            prop_assert_eq!(cell_key_of(&machine, &image, &rw), want);
        }
    }
}

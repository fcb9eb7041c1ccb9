//! `fence_synth` — minimal-cost automatic fence insertion with differential
//! and priced validation.
//!
//! Where `fence_lint` audits hand-written fencing strategies, this campaign
//! *derives* them: for every critical cycle of a bare program it
//! enumerates the candidate instruments that would protect it (fences,
//! acquire/release upgrades, artificial dependencies), solves a weighted
//! minimum hitting set priced by the paper's Eq. 1/Eq. 2 cost model, and
//! validates each synthesized placement twice —
//!
//! * **statically**: re-running the analyzer on the instrumented program
//!   must report zero unprotected cycles;
//! * **dynamically**: the operational explorer must no longer reach the
//!   weak outcome on the reinforced litmus shape.
//!
//! Five sections, one run manifest (`results/runs/fence_synth.json`):
//!
//! 1. **Litmus suite** — every suite program × every model, both
//!    validators on every placement.
//! 2. **Kernel `read_barrier_depends`** — synthesis on the bare RCU-style
//!    publication idiom, re-lowered through kernel macro sites and
//!    compared against all six hand strategies of Fig. 10 (synthesis must
//!    cost no more than the best protected hand strategy).
//! 3. **Dstruct reclamation** — synthesis on the bare hazard-pointer
//!    publication/scan idiom (the Treiber-pop protect skeleton) and the
//!    bare epoch idiom, re-lowered through the dstruct reclamation sites
//!    and raced against the four scheme lowerings.
//! 4. **JVM volatile idioms** — synthesis on the bare JIT lowering of the
//!    Dekker (SB) and message-passing (MP) idioms, compared against the
//!    JDK8 barrier and JDK9 `ldar`/`stlr` lowerings on ARM and the JDK9
//!    lowering on POWER.
//! 5. **Seam-measured micro costs** — per-fence ns through the `Executor`
//!    seam, recorded as a cross-check next to the static cost table (the
//!    table, not the measurement, prices synthesis: §4.2.1 shows micro
//!    timing cannot separate the `dmb` variants).
//!
//! Everything here is static or fixed-seed, so the manifest's canonical
//! content is bit-identical across runs and `--threads` worker counts;
//! `--quick` changes nothing. The campaign fails on any failed validator,
//! synthesis error, or hand strategy beating synthesis; the gate then
//! guards the manifest. Every placement of the first four sections goes
//! through one validator, `streams::synth_validated` (synthesize →
//! re-check the instrumented graph → explorer → record); the platform
//! sections reach it through `streams::synth_stream_case`, which adds the
//! re-lowering check and the hand race.

use wmm_analyze::{CostModel, Instrument, ProgramGraph, SynthConfig};
use wmm_dstruct::{
    bare_reclaim, ebr_reclaim_idiom, hp_reclaim_idiom, nr_strategy, scheme_strategies,
    strategy_from_placement as dstruct_from_placement, DSite,
};
use wmm_harness::{ParallelExecutor, RunManifest};
use wmm_jvm::jit::{lower, JitConfig};
use wmm_jvm::strategy::{arm_jdk8_barriers, null_barriers, power_jdk9, with_placement};
use wmm_kernel::publish::{bare_publish, publish_idiom, rbd_publish, strategy_from_placement};
use wmm_kernel::rbd::RbdStrategy;
use wmm_litmus::ops::ModelKind;
use wmm_litmus::suite::{self, full_suite};
use wmm_sim::arch::Arch;
use wmmbench::image::flatten_streams;
use wmmbench::strategy::FencingStrategy;

use super::{check, Ctx};
use crate::streams::{synth_stream_case, synth_validated, StreamCase, MODELS, NOMINAL_K};
use crate::{seam_fence_costs, volatile_mp_idiom, volatile_sb_idiom};

// --- section 1: litmus suite ----------------------------------------------

fn litmus_section(manifest: &mut RunManifest, errors: &mut Vec<String>, costs: &CostModel) {
    println!("== litmus suite synthesis (static + dynamic validation) ==");
    let mut programs = 0usize;
    let mut rows = 0usize;
    let mut placed = 0usize;
    for entry in full_suite() {
        programs += 1;
        let g = ProgramGraph::from_litmus(&entry.test);
        for model in MODELS {
            let label = format!("synth/litmus/{}/{}", entry.test.name, model.label());
            let cfg = SynthConfig::for_model(model);
            // A litmus program has no platform sites: the instrumented
            // graph is the program.
            let no_sites = |_: &[Instrument]| Ok(());
            if let Some(p) = synth_validated(
                manifest,
                errors,
                &label,
                &g,
                cfg,
                &entry.test,
                no_sites,
                costs,
            ) {
                rows += 1;
                placed += usize::from(!p.instruments.is_empty());
            }
        }
    }
    println!(
        "  {rows} program×model placements over {programs} programs; \
         {placed} non-empty, all validated twice"
    );
}

// --- section 2: kernel read_barrier_depends --------------------------------

fn rbd_section(manifest: &mut RunManifest, errors: &mut Vec<String>, costs: &CostModel) {
    println!("== kernel rbd publication idiom (Fig. 10 strategy space) ==");
    let case = StreamCase {
        label: "synth/rbd".into(),
        graph: "kernel/rbd-publish".into(),
        model: ModelKind::ArmV8,
        bare: bare_publish(),
        // Fences only: kernel macro sites are pure instruction sequences,
        // so upgrades/dependencies have no site to live in.
        fences_only: true,
        // Message passing has the same access skeleton as the publication
        // idiom.
        litmus: suite::message_passing().test,
        relower: Box::new(|ins| strategy_from_placement(ins).map(|s| publish_idiom(&s, None))),
        hands: RbdStrategy::ALL
            .iter()
            .map(|which| {
                let (streams, sdeps) = rbd_publish(*which);
                let tag = which.label().replace([' ', '/'], "-");
                (tag.clone(), format!("kernel/rbd={tag}"), streams, sdeps)
            })
            .collect(),
    };
    synth_stream_case(&case, manifest, errors, costs);
}

// --- section 3: dstruct reclamation ----------------------------------------

fn dstruct_section(manifest: &mut RunManifest, errors: &mut Vec<String>, costs: &CostModel) {
    println!("== dstruct hazard-pointer reclamation (Treiber protect skeleton) ==");
    // Both reclamation races are SB-shaped (announce vs scan), so the
    // store-buffering litmus is the dynamic validation shape for each.
    let hp_case = StreamCase {
        label: "synth/dstruct/hp".into(),
        graph: "dstruct/hp-reclaim".into(),
        model: ModelKind::ArmV8,
        bare: bare_reclaim(),
        // Reclamation sites are pure instruction sequences, like kernel
        // macros: fences only.
        fences_only: true,
        litmus: suite::store_buffering().test,
        relower: Box::new(|ins| dstruct_from_placement(ins).map(|s| hp_reclaim_idiom(&s))),
        hands: scheme_strategies()
            .iter()
            .map(|s| {
                let (streams, sdeps) = hp_reclaim_idiom(s);
                let tag = s.name().to_string();
                (tag.clone(), format!("dstruct/hp={tag}"), streams, sdeps)
            })
            .collect(),
    };
    synth_stream_case(&hp_case, manifest, errors, costs);

    println!("== dstruct epoch reclamation (announce/advance skeleton) ==");
    let epoch_case = StreamCase {
        label: "synth/dstruct/epoch".into(),
        graph: "dstruct/epoch-reclaim".into(),
        model: ModelKind::ArmV8,
        bare: bare_reclaim(),
        fences_only: true,
        litmus: suite::store_buffering().test,
        // The placement lands on the reader/reclaimer slots; re-home it on
        // the epoch sites and re-lower the epoch idiom.
        relower: Box::new(|ins| {
            dstruct_from_placement(ins).map(|s| {
                let e = nr_strategy()
                    .with(DSite::EpochEnter, s.lower(&DSite::HpProtect))
                    .with(DSite::EpochAdvance, s.lower(&DSite::HpScan))
                    .named("epoch=synth");
                ebr_reclaim_idiom(&e)
            })
        }),
        hands: scheme_strategies()
            .iter()
            .map(|s| {
                let (streams, sdeps) = ebr_reclaim_idiom(s);
                let tag = s.name().to_string();
                (tag.clone(), format!("dstruct/epoch={tag}"), streams, sdeps)
            })
            .collect(),
    };
    synth_stream_case(&epoch_case, manifest, errors, costs);
}

// --- section 4: JVM volatile idioms ----------------------------------------

fn jvm_section(manifest: &mut RunManifest, errors: &mut Vec<String>, costs: &CostModel) {
    println!("== JVM volatile lowerings ==");
    for (idiom_name, idiom, litmus) in [
        (
            "volatile-SB",
            volatile_sb_idiom(),
            suite::store_buffering().test,
        ),
        (
            "volatile-MP",
            volatile_mp_idiom(),
            suite::message_passing().test,
        ),
    ] {
        // ARM races the JDK8 barrier and JDK9 `ldar`/`stlr` lowerings,
        // POWER the JDK9 one. The bare program is the JDK8 lowering with
        // null barriers, and placements re-lower onto it.
        for (arch_tag, arch, model, hands) in [
            (
                "arm",
                Arch::ArmV8,
                ModelKind::ArmV8,
                vec![
                    ("jdk8", JitConfig::jdk8(Arch::ArmV8), arm_jdk8_barriers()),
                    ("jdk9", JitConfig::jdk9(Arch::ArmV8), arm_jdk8_barriers()),
                ],
            ),
            (
                "power",
                Arch::Power7,
                ModelKind::Power,
                vec![("jdk9", JitConfig::jdk9(Arch::Power7), power_jdk9())],
            ),
        ] {
            let name = format!("{arch_tag}/{idiom_name}");
            let bare_cfg = JitConfig::jdk8(arch);
            let case = StreamCase {
                label: format!("synth/jvm/{name}"),
                graph: format!("jvm/{name}"),
                model,
                bare: (
                    flatten_streams(&lower(&idiom, &bare_cfg), &null_barriers()),
                    vec![],
                ),
                fences_only: false,
                litmus: litmus.clone(),
                relower: Box::new(|ins| Some(with_placement(&idiom, &bare_cfg, ins))),
                hands: hands
                    .into_iter()
                    .map(|(tag, jit, strategy)| {
                        let streams = flatten_streams(&lower(&idiom, &jit), &strategy);
                        (
                            tag.to_string(),
                            format!("jvm/{name}/{tag}"),
                            streams,
                            vec![],
                        )
                    })
                    .collect(),
            };
            synth_stream_case(&case, manifest, errors, costs);
        }
    }
}

// --- section 5: seam-measured micro costs ----------------------------------

fn micro_section(manifest: &mut RunManifest, exec: &ParallelExecutor, costs: &CostModel) {
    println!("== seam-measured fence costs (cross-check, not solver weights) ==");
    for (arch_tag, arch) in [("arm", Arch::ArmV8), ("power", Arch::Power7)] {
        for (kind, measured) in seam_fence_costs(exec, arch) {
            let table = costs.fence_ns(kind);
            println!("  {arch_tag} {kind:?}: measured {measured:.1} ns, cost table {table:.1} ns");
            manifest.push_cell(format!("synth/micro/{arch_tag}/{kind:?}_ns"), measured);
        }
    }
}

/// Runs the five synthesis sections.
pub(crate) fn fence_synth(ctx: &Ctx) -> Result<RunManifest, String> {
    println!("fence_synth — minimal-cost fence insertion with differential validation");
    let costs = CostModel::priced(NOMINAL_K);
    let mut manifest = RunManifest::new(ctx.name, "static");
    let mut errors: Vec<String> = vec![];
    litmus_section(&mut manifest, &mut errors, &costs);
    rbd_section(&mut manifest, &mut errors, &costs);
    dstruct_section(&mut manifest, &mut errors, &costs);
    jvm_section(&mut manifest, &mut errors, &costs);
    micro_section(&mut manifest, &ctx.exec, &costs);
    check(ctx.name, &errors)?;
    Ok(manifest)
}

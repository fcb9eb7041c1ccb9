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
//! guards the manifest. The stream-ingestion skeleton (synthesize →
//! dual-validate → hand race) is [`crate::streams::synth_stream_case`],
//! shared with `fence_lint`.

use wmm_analyze::{
    analyze, apply_to_graph, graph_cost, synthesize, CostModel, ProgramGraph, SynthConfig,
};
use wmm_dstruct::{
    bare_reclaim, ebr_reclaim_idiom, hp_reclaim_idiom, nr_strategy, scheme_strategies,
    strategy_from_placement as dstruct_from_placement, DSite,
};
use wmm_harness::{ParallelExecutor, RunManifest};
use wmm_jvm::jit::{lower, JavaOp, JitConfig};
use wmm_jvm::strategy::{arm_jdk8_barriers, null_barriers, power_jdk9, with_placement};
use wmm_kernel::publish::{bare_publish, publish_idiom, rbd_publish, strategy_from_placement};
use wmm_kernel::rbd::RbdStrategy;
use wmm_litmus::ops::ModelKind;
use wmm_litmus::suite::{self, full_suite};
use wmm_litmus::LitmusTest;
use wmm_sim::arch::Arch;
use wmmbench::image::flatten_streams;
use wmmbench::strategy::FencingStrategy;

use super::{check, Ctx};
use crate::streams::{
    explorer_rejects_weak, synth_stream_case, StreamCase, COST_EPS, MODELS, NOMINAL_K,
};
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
            match synthesize(&g, SynthConfig::for_model(model), costs) {
                Ok(p) => {
                    let static_ok = analyze(&apply_to_graph(&g, &p.instruments), model).protected();
                    let dynamic_ok = explorer_rejects_weak(&entry.test, &p, model);
                    manifest.push_cell(format!("{label}/cost_ns"), p.cost_ns);
                    manifest.push_cell(format!("{label}/instruments"), p.instruments.len() as f64);
                    manifest
                        .push_cell(format!("{label}/valid"), f64::from(static_ok && dynamic_ok));
                    rows += 1;
                    placed += usize::from(!p.instruments.is_empty());
                    if !static_ok {
                        errors.push(format!("{label}: unprotected cycles after synthesis"));
                    }
                    if !dynamic_ok {
                        errors.push(format!(
                            "{label}: explorer reaches the weak outcome despite [{}]",
                            p.describe()
                        ));
                    }
                }
                Err(e) => {
                    manifest.push_cell(format!("{label}/valid"), 0.0);
                    errors.push(format!("{label}: synthesis failed: {e}"));
                }
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

struct JvmCase {
    name: &'static str,
    idiom: Vec<Vec<JavaOp>>,
    /// The litmus shape matching the idiom's bare access skeleton, for
    /// dynamic validation.
    litmus: LitmusTest,
    model: ModelKind,
    /// Barriers-mode config whose null-strategy flattening is the bare
    /// program.
    bare_cfg: JitConfig,
    /// Hand lowerings to compare against: `(tag, streams)`.
    hands: Vec<(&'static str, Vec<Vec<wmm_sim::isa::Instr>>)>,
}

fn jvm_cases() -> Vec<JvmCase> {
    let mut cases = vec![];
    for (idiom_name, idiom) in [
        ("volatile-SB", volatile_sb_idiom()),
        ("volatile-MP", volatile_mp_idiom()),
    ] {
        let litmus = if idiom_name == "volatile-SB" {
            suite::store_buffering().test
        } else {
            suite::message_passing().test
        };
        cases.push(JvmCase {
            name: if idiom_name == "volatile-SB" {
                "arm/volatile-SB"
            } else {
                "arm/volatile-MP"
            },
            idiom: idiom.clone(),
            litmus: litmus.clone(),
            model: ModelKind::ArmV8,
            bare_cfg: JitConfig::jdk8(Arch::ArmV8),
            hands: vec![
                (
                    "jdk8",
                    flatten_streams(
                        &lower(&idiom, &JitConfig::jdk8(Arch::ArmV8)),
                        &arm_jdk8_barriers(),
                    ),
                ),
                (
                    "jdk9",
                    flatten_streams(
                        &lower(&idiom, &JitConfig::jdk9(Arch::ArmV8)),
                        &arm_jdk8_barriers(),
                    ),
                ),
            ],
        });
        cases.push(JvmCase {
            name: if idiom_name == "volatile-SB" {
                "power/volatile-SB"
            } else {
                "power/volatile-MP"
            },
            idiom: idiom.clone(),
            litmus,
            model: ModelKind::Power,
            bare_cfg: JitConfig::jdk8(Arch::Power7),
            hands: vec![(
                "jdk9",
                flatten_streams(
                    &lower(&idiom, &JitConfig::jdk9(Arch::Power7)),
                    &power_jdk9(),
                ),
            )],
        });
    }
    cases
}

fn jvm_section(manifest: &mut RunManifest, errors: &mut Vec<String>, costs: &CostModel) {
    println!("== JVM volatile lowerings ==");
    for case in jvm_cases() {
        // The JVM platform re-lowers through JIT op streams rather than
        // raw instruction streams, so it keeps its own re-lowering step
        // and borrows only the shared validators and pricing.
        let label = format!("synth/jvm/{}", case.name);
        let bare = flatten_streams(&lower(&case.idiom, &case.bare_cfg), &null_barriers());
        let g = ProgramGraph::from_streams(format!("jvm/{}/bare", case.name), &bare, &[]);
        let p = match synthesize(&g, SynthConfig::for_model(case.model), costs) {
            Ok(p) => p,
            Err(e) => {
                errors.push(format!("{label}: synthesis failed: {e}"));
                continue;
            }
        };
        println!("  {}: {} ({:.1} ns)", case.name, p.describe(), p.cost_ns);
        manifest.push_cell(format!("{label}/cost_ns"), p.cost_ns);
        manifest.push_cell(format!("{label}/instruments"), p.instruments.len() as f64);

        // Static validation through the platform hook: re-impose the
        // placement on the bare lowering and re-analyze.
        let (streams, sdeps) = with_placement(&case.idiom, &case.bare_cfg, &p.instruments);
        let g2 = ProgramGraph::from_streams(format!("jvm/{}/synth", case.name), &streams, &sdeps);
        let static_ok = analyze(&g2, case.model).protected();
        let dynamic_ok = explorer_rejects_weak(&case.litmus, &p, case.model);
        manifest.push_cell(format!("{label}/valid"), f64::from(static_ok && dynamic_ok));
        if !static_ok {
            errors.push(format!("{label}: unprotected after re-imposing placement"));
        }
        if !dynamic_ok {
            errors.push(format!("{label}: explorer reaches the weak outcome"));
        }

        // Hand comparison: JDK lowerings of the same idiom.
        let mut best_hand = f64::INFINITY;
        for (tag, hand_streams) in &case.hands {
            let gh =
                ProgramGraph::from_streams(format!("jvm/{}/{tag}", case.name), hand_streams, &[]);
            let protected = analyze(&gh, case.model).protected();
            let cost = graph_cost(&gh, case.model, costs);
            println!(
                "  hand {}/{tag}: {cost:.1} ns, {}",
                case.name,
                if protected {
                    "protected"
                } else {
                    "UNPROTECTED"
                }
            );
            manifest.push_cell(format!("{label}/hand/{tag}/cost_ns"), cost);
            manifest.push_cell(
                format!("{label}/hand/{tag}/protected"),
                f64::from(protected),
            );
            if protected {
                best_hand = best_hand.min(cost);
            }
        }
        manifest.push_cell(format!("{label}/best_hand_cost_ns"), best_hand);
        if p.cost_ns > best_hand + COST_EPS {
            errors.push(format!(
                "{label}: synthesized cost {:.3} ns exceeds best hand lowering {best_hand:.3} ns",
                p.cost_ns
            ));
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

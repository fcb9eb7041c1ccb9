//! `fence_lint` — static fence-placement audit for every shipped strategy.
//!
//! Four sections, one run manifest (`results/runs/fence_lint.json`):
//!
//! 1. **Litmus differential** — for every suite program and every model,
//!    the static verdict (all Shasha–Snir critical cycles protected) must
//!    agree with the dynamic explorer (weak outcome unreachable).
//! 2. **JVM volatile idioms** — Dekker (SB) and message passing (MP)
//!    through the JIT lowering under the JDK8/JDK9 tables, analysed under
//!    the matching model. Shipped tables must protect both idioms; a
//!    seeded known-buggy table (full `Volatile` barrier weakened to
//!    `dmb ishst`) must be *caught*; the defensive JDK8 ARM lowering must
//!    draw redundant-fence lints with Eq. 2 savings estimates.
//! 3. **Kernel `read_barrier_depends`** — the RCU-style publication idiom
//!    under all six Fig. 10 strategies: `base case` and `ctrl` must be
//!    flagged unprotected, the other four protected, and the
//!    over-annotating `la/sr` must draw redundant lints.
//! 4. **Dstruct reclamation schemes** — the hazard-publication/scan and
//!    epoch idioms under all four schemes: only `hp-dmb` statically
//!    protects the HP race and only `ebr` the epoch race; `hp-asym` is
//!    *expected* unprotected (its reader ordering is a process-wide
//!    membarrier outside the per-thread fence model) and `nr` is the
//!    unsafe baseline.
//!
//! The campaign fails on any differential disagreement, any unexpected
//! protection verdict, a missed seeded bug, or a missing expected lint;
//! the gate then guards the manifest against drift. The stream-ingestion
//! path (pricing, printing, manifest rows, verdict checks) is shared with
//! `fence_synth` via [`crate::streams`].

use wmm_analyze::{check_cycle, critical_cycles, ProgramGraph};
use wmm_dstruct::{ebr_reclaim_idiom, hp_reclaim_idiom, scheme_strategies};
use wmm_harness::RunManifest;
use wmm_jvm::barrier::Composite;
use wmm_jvm::jit::{lower, JavaOp, JitConfig};
use wmm_jvm::strategy::{arm_jdk8_barriers, power_jdk9, JvmStrategy};
use wmm_kernel::publish::rbd_publish;
use wmm_kernel::rbd::RbdStrategy;
use wmm_litmus::explore::explore;
use wmm_litmus::ops::ModelKind;
use wmm_litmus::suite::full_suite;
use wmm_sim::arch::Arch;
use wmm_sim::isa::{FenceKind, Instr};
use wmmbench::image::flatten_streams;
use wmmbench::strategy::FencingStrategy;

use super::{check, Ctx};
use crate::streams::{audit_streams, MODELS};
use crate::{machine, volatile_mp_idiom, volatile_sb_idiom};

// --- section 1: litmus differential ---------------------------------------

fn litmus_section(manifest: &mut RunManifest, errors: &mut Vec<String>) {
    println!("== litmus differential (static vs explorer) ==");
    let mut agree = 0usize;
    let mut total = 0usize;
    for entry in full_suite() {
        let g = ProgramGraph::from_litmus(&entry.test);
        let cycles = critical_cycles(&g);
        for model in MODELS {
            let protected = cycles.iter().all(|c| check_cycle(&g, model, c).protected);
            let observed = explore(&entry.test, model)
                .allows_with_memory(&entry.test.interesting, &entry.test.memory);
            let ok = protected != observed;
            total += 1;
            agree += usize::from(ok);
            let label = format!("litmus/{}/{}", entry.test.name, model.label());
            manifest.push_cell(format!("{label}/protected"), f64::from(protected));
            manifest.push_cell(format!("{label}/agree"), f64::from(ok));
            if !ok {
                errors.push(format!(
                    "differential disagreement: {} under {}: static protected={} \
                     but explorer observes={}",
                    entry.test.name,
                    model.label(),
                    protected,
                    observed
                ));
            }
        }
    }
    println!("  {agree}/{total} program×model rows agree");
}

// --- section 2: JVM volatile idioms ---------------------------------------

fn jvm_section(manifest: &mut RunManifest, errors: &mut Vec<String>) {
    println!("== JVM volatile idioms ==");
    let tables: [(&str, JitConfig, JvmStrategy, ModelKind, Arch); 3] = [
        (
            "jdk8-arm",
            JitConfig::jdk8(Arch::ArmV8),
            arm_jdk8_barriers(),
            ModelKind::ArmV8,
            Arch::ArmV8,
        ),
        (
            "jdk9-arm",
            JitConfig::jdk9(Arch::ArmV8),
            arm_jdk8_barriers(),
            ModelKind::ArmV8,
            Arch::ArmV8,
        ),
        (
            "jdk9-power",
            JitConfig::jdk9(Arch::Power7),
            power_jdk9(),
            ModelKind::Power,
            Arch::Power7,
        ),
    ];
    let idioms: [(&str, Vec<Vec<JavaOp>>); 2] = [
        ("volatile-SB", volatile_sb_idiom()),
        ("volatile-MP", volatile_mp_idiom()),
    ];

    for (table, cfg, strategy, model, arch) in &tables {
        let mach = machine(*arch);
        for (idiom_name, idiom) in &idioms {
            let label = format!("jvm/{table}/{idiom_name}");
            let streams = flatten_streams(&lower(idiom, cfg), strategy);
            // Shipped tables must protect both idioms.
            let a = audit_streams(manifest, errors, &label, &streams, &[], *model, &mach, true);
            if *table != "jdk8-arm" {
                continue;
            }
            // The defensive JDK8 ARM lowering double-fences adjacent
            // volatiles: the redundancy lint must fire on SB. Its writer
            // brackets the MP publish store with full dmbs where a
            // store-store barrier suffices: the downgrade lint must spot it.
            if *idiom_name == "volatile-SB" && a.redundant.is_empty() {
                errors.push(
                    "expected redundant-fence lints on the defensive JDK8 ARM lowering".into(),
                );
            }
            if *idiom_name == "volatile-MP"
                && !a.downgrade.iter().any(|d| d.to_mnemonic == "DmbIshSt")
            {
                errors.push(
                    "expected a DmbIshSt downgrade on the JDK8 ARM volatile-MP writer".into(),
                );
            }
        }
    }

    // Seeded known-buggy table: Volatile weakened to dmb ishst. The
    // analyzer MUST flag it — this guards the detector itself.
    let buggy = arm_jdk8_barriers()
        .with_override(
            Composite::Volatile.combined(),
            vec![Instr::Fence(FenceKind::DmbIshSt)],
        )
        .named("jdk8-arm+volatile=dmb.ishst (seeded bug)");
    let streams = flatten_streams(
        &lower(&volatile_sb_idiom(), &JitConfig::jdk8(Arch::ArmV8)),
        &buggy,
    );
    let a = audit_streams(
        manifest,
        errors,
        "jvm/seeded-bug/volatile-SB",
        &streams,
        &[],
        ModelKind::ArmV8,
        &machine(Arch::ArmV8),
        false,
    );
    println!(
        "  jvm/seeded-bug/volatile-SB: {} unprotected (expected > 0)",
        a.unprotected.len()
    );
}

// --- section 3: kernel read_barrier_depends -------------------------------
// The RCU-style publication idiom itself lives in `wmm_kernel::publish`,
// shared with the differential tests and the fence_synth campaign.

fn kernel_section(manifest: &mut RunManifest, errors: &mut Vec<String>) {
    println!("== kernel read_barrier_depends strategies (Fig. 10) ==");
    let mach = machine(Arch::ArmV8);
    for which in RbdStrategy::ALL {
        let (streams, deps) = rbd_publish(which);
        let tag = which.label().replace([' ', '/'], "-");
        let label = format!("kernel/rbd={tag}");
        // §4.3.1: the base case and a bare control dependency do not order
        // the dependent load; the other four strategies do.
        let expect_protected = !matches!(which, RbdStrategy::BaseCase | RbdStrategy::Ctrl);
        let a = audit_streams(
            manifest,
            errors,
            &label,
            &streams,
            &deps,
            ModelKind::ArmV8,
            &mach,
            expect_protected,
        );
        if which == RbdStrategy::LaSr && a.redundant.is_empty() {
            errors.push("expected redundant-fence lints on the la/sr over-annotation".into());
        }
        // The full-dmb reader barrier only needs to order load→load: the
        // downgrade lint must propose dmb ishld.
        if which == RbdStrategy::DmbIsh && !a.downgrade.iter().any(|d| d.to_mnemonic == "DmbIshLd")
        {
            errors.push("expected a DmbIshLd downgrade on the rbd=dmb ish reader".into());
        }
    }
}

// --- section 4: dstruct reclamation schemes --------------------------------
// The hazard/epoch idioms live in `wmm_dstruct::retire`, shared with the
// crate's own differential tests and fence_synth's dstruct section.

fn dstruct_section(manifest: &mut RunManifest, errors: &mut Vec<String>) {
    println!("== dstruct reclamation schemes (HP + epoch races) ==");
    let mach = machine(Arch::ArmV8);
    for s in scheme_strategies() {
        // The hazard race (publish hazard vs scan): only the per-protect
        // dmb closes it statically. hp-asym is deliberately unprotected
        // here — its reader ordering is a process-wide membarrier the
        // per-thread fence model cannot see (the documented blind spot
        // both oracles agree on).
        let (streams, deps) = hp_reclaim_idiom(&s);
        audit_streams(
            manifest,
            errors,
            &format!("dstruct/hp={}", s.name()),
            &streams,
            &deps,
            ModelKind::ArmV8,
            &mach,
            s.name() == "hp-dmb",
        );
        // The epoch race (announce epoch vs advance): only EBR's boundary
        // fences close it.
        let (streams, deps) = ebr_reclaim_idiom(&s);
        audit_streams(
            manifest,
            errors,
            &format!("dstruct/epoch={}", s.name()),
            &streams,
            &deps,
            ModelKind::ArmV8,
            &mach,
            s.name() == "ebr",
        );
    }
}

/// Runs the four audit sections.
pub(crate) fn fence_lint(ctx: &Ctx) -> Result<RunManifest, String> {
    println!("fence_lint — static fence-placement audit");
    let mut manifest = RunManifest::new(ctx.name, "static");
    let mut errors: Vec<String> = vec![];
    litmus_section(&mut manifest, &mut errors);
    jvm_section(&mut manifest, &mut errors);
    kernel_section(&mut manifest, &mut errors);
    dstruct_section(&mut manifest, &mut errors);
    check(ctx.name, &errors)?;
    Ok(manifest)
}

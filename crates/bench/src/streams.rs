//! Shared stream-ingestion path for the static-audit campaigns.
//!
//! `fence_lint` and `fence_synth` both consume platform idioms as bare
//! instruction streams plus inter-thread dependencies, run them through the
//! analyzer (priced with the paper's Eq. 1/Eq. 2 model), and — for
//! synthesis — validate each derived placement twice and race it against
//! the platform's hand strategies. `audit_streams` is the one audit
//! step, `synth_validated` the one synthesize → re-check → record step
//! (every `fence_synth` placement, litmus rows included, goes through it),
//! and `synth_stream_case` adds the platform re-lowering and the hand
//! race. A strategy-site platform (the JVM volatiles, the kernel macros,
//! the dstruct reclamation schemes, the next one) plugs in with a
//! `StreamCase` and an expectation, not glue.

use wmm_analyze::{
    analyze, apply_to_graph, graph_cost, synthesize, Analysis, CostModel, Instrument, Placement,
    ProgramGraph, StreamDep, SynthConfig,
};
use wmm_harness::RunManifest;
use wmm_litmus::explore::explore;
use wmm_litmus::ops::ModelKind;
use wmm_litmus::LitmusTest;
use wmm_sim::isa::{FenceKind, Instr};
use wmm_sim::machine::Machine;

/// Nominal fence sensitivity used to price fences in lints and synthesis
/// (spark on ARMv8, the paper's most barrier-sensitive workload — Fig. 5).
pub const NOMINAL_K: f64 = 0.0087;

/// Cost slack for "synthesis ≤ best hand strategy": ties are allowed,
/// float noise is not a failure.
const COST_EPS: f64 = 1e-9;

/// The four memory models every audit runs under.
pub const MODELS: [ModelKind; 4] = [
    ModelKind::Sc,
    ModelKind::Tso,
    ModelKind::ArmV8,
    ModelKind::Power,
];

/// Per-fence cost (ns) on `mach`, keyed by the stream mnemonic.
pub(crate) fn fence_cost(mach: &Machine) -> impl Fn(&str) -> f64 + '_ {
    |mnemonic: &str| {
        let kind = match mnemonic {
            "DmbIsh" => Some(FenceKind::DmbIsh),
            "DmbIshLd" => Some(FenceKind::DmbIshLd),
            "DmbIshSt" => Some(FenceKind::DmbIshSt),
            "Isb" => Some(FenceKind::Isb),
            "HwSync" => Some(FenceKind::HwSync),
            "LwSync" => Some(FenceKind::LwSync),
            _ => None,
        };
        kind.map_or(0.0, |k| mach.time_sequence_ns(&[Instr::Fence(k)], 2000, 7))
    }
}

/// Record the analysis head-counts under `label` in the manifest.
pub(crate) fn push_analysis(m: &mut RunManifest, label: &str, a: &Analysis) {
    m.push_cell(format!("{label}/cycles"), a.cycles as f64);
    m.push_cell(format!("{label}/unprotected"), a.unprotected.len() as f64);
    m.push_cell(format!("{label}/redundant"), a.redundant.len() as f64);
    m.push_cell(format!("{label}/downgrade"), a.downgrade.len() as f64);
}

/// Print every unprotected critical cycle with its missing orderings.
pub(crate) fn print_unprotected(a: &Analysis) {
    for u in &a.unprotected {
        println!("    UNPROTECTED {}", u.cycle);
        for (from, to) in &u.missing {
            println!("      missing ordering: {from} -> {to}");
        }
    }
}

/// Print every redundant-fence lint with its Eq. 2 saving estimate.
pub(crate) fn print_redundant(a: &Analysis) {
    for r in &a.redundant {
        let place = if r.on_cycle {
            "covered elsewhere"
        } else {
            "on no cycle"
        };
        let saving = r
            .saving_ns
            .map(|ns| format!(", est. saving {ns:.1} ns/invocation"))
            .unwrap_or_default();
        println!(
            "    redundant fence: {} at t{} slot {} ({place}{saving})",
            r.mnemonic, r.thread, r.slot
        );
    }
}

/// Print every over-strong-fence downgrade proposal.
pub(crate) fn print_downgrade(a: &Analysis) {
    for d in &a.downgrade {
        let saving = d
            .saving_ns
            .map(|ns| format!(", est. saving {ns:.1} ns/invocation"))
            .unwrap_or_else(|| ", unpriced".into());
        println!(
            "    over-strong fence: {} at t{} slot {} suffices as {}{saving}",
            d.mnemonic, d.thread, d.slot, d.to_mnemonic
        );
    }
}

/// Audit one lowered idiom: analyze with savings, print the findings,
/// record the head-counts, and check the protection verdict against the
/// expectation. Returns the analysis so callers can assert extra lints
/// (redundancy, downgrades) on top.
#[allow(clippy::too_many_arguments)]
pub(crate) fn audit_streams(
    manifest: &mut RunManifest,
    errors: &mut Vec<String>,
    label: &str,
    streams: &[Vec<Instr>],
    deps: &[StreamDep],
    model: ModelKind,
    mach: &Machine,
    expect_protected: bool,
) -> Analysis {
    let g = ProgramGraph::from_streams(label.to_string(), streams, deps);
    let a = analyze(&g, model).with_savings(NOMINAL_K, fence_cost(mach));
    println!(
        "  {label}: {} cycles, {} unprotected, {} redundant",
        a.cycles,
        a.unprotected.len(),
        a.redundant.len()
    );
    print_unprotected(&a);
    print_redundant(&a);
    print_downgrade(&a);
    push_analysis(manifest, label, &a);
    if a.protected() != expect_protected {
        errors.push(format!(
            "{label}: expected protected={expect_protected}, got {}",
            a.protected()
        ));
    }
    a
}

/// A platform idiom lowered to instruction streams plus inter-thread
/// dependencies — the analyzer's stream-ingestion input shape.
pub(crate) type LoweredStreams = (Vec<Vec<Instr>>, Vec<StreamDep>);

/// One hand strategy to race synthesis against:
/// `(tag, graph_name, streams, deps)`.
pub(crate) type HandLowering = (String, String, Vec<Vec<Instr>>, Vec<StreamDep>);

/// Re-lowering hook: map synthesized instruments back onto the platform's
/// strategy sites, or `None` if a placement has no site to live at.
pub(crate) type RelowerFn<'a> = Box<dyn Fn(&[Instrument]) -> Option<LoweredStreams> + 'a>;

/// Synthesize a minimal-cost placement on `g` and validate it. Records
/// `{label}/cost_ns` and `{label}/instruments`, then checks the placement
/// statically (re-analysis of the instrumented graph must report no
/// unprotected cycle, and `platform` — the placement's round trip onto
/// real strategy sites — must return `Ok`) and dynamically (the explorer
/// must no longer reach `litmus`'s weak outcome), and records both
/// verdicts as `{label}/valid`. Every failure is pushed to `errors` under
/// `label`. Returns the placement, or `None` when synthesis failed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn synth_validated(
    manifest: &mut RunManifest,
    errors: &mut Vec<String>,
    label: &str,
    g: &ProgramGraph,
    cfg: SynthConfig,
    litmus: &LitmusTest,
    platform: impl FnOnce(&[Instrument]) -> Result<(), String>,
    costs: &CostModel,
) -> Option<Placement> {
    let p = match synthesize(g, cfg, costs) {
        Ok(p) => p,
        Err(e) => {
            manifest.push_cell(format!("{label}/valid"), 0.0);
            errors.push(format!("{label}: synthesis failed: {e}"));
            return None;
        }
    };
    manifest.push_cell(format!("{label}/cost_ns"), p.cost_ns);
    manifest.push_cell(format!("{label}/instruments"), p.instruments.len() as f64);

    let mut valid = true;
    let mut fail = |why: String| {
        valid = false;
        errors.push(format!("{label}: {why}"));
    };
    if !analyze(&apply_to_graph(g, &p.instruments), cfg.model).protected() {
        fail("unprotected cycles after synthesis".into());
    }
    if let Err(why) = platform(&p.instruments) {
        fail(why);
    }
    let reinforced = litmus.reinforced(&p.to_reinforce());
    if explore(&reinforced, cfg.model)
        .allows_with_memory(&reinforced.interesting, &reinforced.memory)
    {
        fail(format!(
            "explorer reaches the weak outcome despite [{}]",
            p.describe()
        ));
    }
    manifest.push_cell(format!("{label}/valid"), f64::from(valid));
    Some(p)
}

/// One synthesis case over a platform idiom expressed as bare streams.
pub(crate) struct StreamCase<'a> {
    /// Manifest cell prefix, e.g. `synth/rbd`.
    pub label: String,
    /// Program-graph name prefix, e.g. `kernel/rbd-publish`.
    pub graph: String,
    /// Model to synthesize for and validate under.
    pub model: ModelKind,
    /// The unfenced idiom: instruction streams + inter-thread deps.
    pub bare: LoweredStreams,
    /// Restrict synthesis to fences (platforms whose sites are pure
    /// instruction sequences have nowhere to host upgrades/dependencies).
    pub fences_only: bool,
    /// The litmus shape matching the idiom's access skeleton, for dynamic
    /// validation through the operational explorer.
    pub litmus: LitmusTest,
    /// Map the placement back onto the platform's strategy sites and
    /// re-lower; `None` means the placement has no site to live at.
    pub relower: RelowerFn<'a>,
    /// Hand strategies to race.
    pub hands: Vec<HandLowering>,
}

/// Run one [`StreamCase`]: synthesize and validate a placement on the bare
/// idiom through [`synth_validated`], with the platform re-lowering as the
/// extra static check, then race it against every hand strategy —
/// synthesis must cost no more than the best protected hand.
pub(crate) fn synth_stream_case(
    case: &StreamCase,
    manifest: &mut RunManifest,
    errors: &mut Vec<String>,
    costs: &CostModel,
) {
    let (bare, deps) = &case.bare;
    let g = ProgramGraph::from_streams(format!("{}/bare", case.graph), bare, deps);
    let cfg = if case.fences_only {
        SynthConfig::fences_only(case.model)
    } else {
        SynthConfig::for_model(case.model)
    };
    let relowered = |ins: &[Instrument]| {
        let (streams, sdeps) =
            (case.relower)(ins).ok_or("placement does not map onto platform sites")?;
        let g2 = ProgramGraph::from_streams(format!("{}/synth", case.graph), &streams, &sdeps);
        if analyze(&g2, case.model).protected() {
            Ok(())
        } else {
            Err("re-lowered strategy leaves the idiom unprotected".to_string())
        }
    };
    let Some(p) = synth_validated(
        manifest,
        errors,
        &case.label,
        &g,
        cfg,
        &case.litmus,
        relowered,
        costs,
    ) else {
        return;
    };
    println!("  synthesized: {} ({:.1} ns)", p.describe(), p.cost_ns);

    // Hand comparison: the synthesized placement must not lose to any
    // protected hand strategy on the same idiom.
    let mut best_hand = f64::INFINITY;
    for (tag, graph_name, streams, sdeps) in &case.hands {
        let gh = ProgramGraph::from_streams(graph_name.clone(), streams, sdeps);
        let protected = analyze(&gh, case.model).protected();
        let cost = graph_cost(&gh, case.model, costs);
        println!(
            "  hand {tag}: {cost:.1} ns, {}",
            if protected {
                "protected"
            } else {
                "UNPROTECTED"
            }
        );
        manifest.push_cell(format!("{}/hand/{tag}/cost_ns", case.label), cost);
        manifest.push_cell(
            format!("{}/hand/{tag}/protected", case.label),
            f64::from(protected),
        );
        if protected {
            best_hand = best_hand.min(cost);
        }
    }
    manifest.push_cell(format!("{}/best_hand_cost_ns", case.label), best_hand);
    println!(
        "  synthesis {:.1} ns vs best protected hand strategy {best_hand:.1} ns",
        p.cost_ns
    );
    if p.cost_ns > best_hand + COST_EPS {
        errors.push(format!(
            "{}: synthesized cost {:.3} ns exceeds best hand strategy {best_hand:.3} ns",
            case.label, p.cost_ns
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_kernel::publish::{bare_publish, publish_idiom, strategy_from_placement};
    use wmm_litmus::suite;

    /// `fence_synth`'s rbd publication case with `relower` swapped in and
    /// no hands to race: the recorded `valid` cell and the errors.
    fn run(relower: RelowerFn<'_>) -> (f64, Vec<String>) {
        let case = StreamCase {
            label: "synth/rbd".into(),
            graph: "kernel/rbd-publish".into(),
            model: ModelKind::ArmV8,
            bare: bare_publish(),
            fences_only: true,
            litmus: suite::message_passing().test,
            relower,
            hands: vec![],
        };
        let mut manifest = RunManifest::new("streams_test", "static");
        let mut errors = vec![];
        let costs = CostModel::priced(NOMINAL_K);
        synth_stream_case(&case, &mut manifest, &mut errors, &costs);
        let valid = manifest
            .cells
            .iter()
            .find(|c| c.label == "synth/rbd/valid")
            .expect("valid cell")
            .value;
        (valid, errors)
    }

    #[test]
    fn validator_rejects_placements_lost_on_the_platform() {
        let (valid, errors) = run(Box::new(|ins| {
            strategy_from_placement(ins).map(|s| publish_idiom(&s, None))
        }));
        assert_eq!((valid, errors), (1.0, vec![]), "the real re-lowering holds");

        // A re-lowering that drops the placement leaves the idiom bare.
        let (valid, errors) = run(Box::new(|_| Some(bare_publish())));
        assert_eq!(valid, 0.0);
        assert_eq!(
            errors,
            ["synth/rbd: re-lowered strategy leaves the idiom unprotected"]
        );

        let (valid, errors) = run(Box::new(|_| None));
        assert_eq!(valid, 0.0);
        assert_eq!(
            errors,
            ["synth/rbd: placement does not map onto platform sites"]
        );
    }
}

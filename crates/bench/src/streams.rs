//! Shared stream-ingestion path for the static-audit campaigns.
//!
//! `fence_lint` and `fence_synth` both consume platform idioms as bare
//! instruction streams plus inter-thread dependencies, run them through the
//! analyzer (priced with the paper's Eq. 1/Eq. 2 model), and — for
//! synthesis — validate each derived placement twice and race it against
//! the platform's hand strategies. That flow used to be copy-pasted per
//! platform; this module factors it so a new strategy-site platform (the
//! JVM volatiles, the kernel macros, the dstruct reclamation schemes, the
//! next one) plugs in with a `StreamCase` and an expectation, not glue.

use wmm_analyze::{
    analyze, synthesize, Analysis, CostModel, Instrument, Placement, ProgramGraph, StreamDep,
    SynthConfig,
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
pub(crate) const COST_EPS: f64 = 1e-9;

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

/// Dynamic validation: after reinforcing `test` with the placement, the
/// explorer must no longer reach the weak outcome under `model`.
pub(crate) fn explorer_rejects_weak(
    test: &LitmusTest,
    placement: &Placement,
    model: ModelKind,
) -> bool {
    let reinforced = test.reinforced(&placement.to_reinforce());
    !explore(&reinforced, model).allows_with_memory(&reinforced.interesting, &reinforced.memory)
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

/// Run one [`StreamCase`]: synthesize a minimal-cost placement on the bare
/// idiom, validate it statically (through the platform re-lowering) and
/// dynamically (through the explorer), then race it against every hand
/// strategy — synthesis must cost no more than the best protected hand.
pub(crate) fn synth_stream_case(
    case: &StreamCase,
    manifest: &mut RunManifest,
    errors: &mut Vec<String>,
    costs: &CostModel,
) {
    use wmm_analyze::{apply_to_graph, graph_cost};

    let (bare, deps) = &case.bare;
    let g = ProgramGraph::from_streams(format!("{}/bare", case.graph), bare, deps);
    let cfg = if case.fences_only {
        SynthConfig::fences_only(case.model)
    } else {
        SynthConfig::for_model(case.model)
    };
    let p = match synthesize(&g, cfg, costs) {
        Ok(p) => p,
        Err(e) => {
            errors.push(format!("{}: synthesis failed: {e}", case.label));
            return;
        }
    };
    println!("  synthesized: {} ({:.1} ns)", p.describe(), p.cost_ns);
    manifest.push_cell(format!("{}/cost_ns", case.label), p.cost_ns);
    manifest.push_cell(
        format!("{}/instruments", case.label),
        p.instruments.len() as f64,
    );

    // Static validation twice over: once on the instrumented graph itself,
    // once through the platform re-lowering (the placement must survive the
    // round trip onto real strategy sites).
    let instrumented_ok = analyze(&apply_to_graph(&g, &p.instruments), case.model).protected();
    let relowered_ok = match (case.relower)(&p.instruments) {
        Some((streams, sdeps)) => {
            let g2 = ProgramGraph::from_streams(format!("{}/synth", case.graph), &streams, &sdeps);
            analyze(&g2, case.model).protected()
        }
        None => {
            errors.push(format!(
                "{}: placement does not map onto platform sites",
                case.label
            ));
            false
        }
    };
    let static_ok = instrumented_ok && relowered_ok;
    let dynamic_ok = explorer_rejects_weak(&case.litmus, &p, case.model);
    manifest.push_cell(
        format!("{}/valid", case.label),
        f64::from(static_ok && dynamic_ok),
    );
    if !static_ok {
        errors.push(format!(
            "{}: re-lowered strategy leaves the idiom unprotected",
            case.label
        ));
    }
    if !dynamic_ok {
        errors.push(format!("{}: explorer reaches the weak outcome", case.label));
    }

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

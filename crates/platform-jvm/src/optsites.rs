//! Cost-function IR nodes at compiler-optimisation sites — the extension
//! proposed in the paper's conclusion: "explore the annotation of code paths
//! related to compiler optimisations … with the JVM JIT compiler this could
//! be accomplished by adding a dedicated cost function IR node which is
//! added to code paths where a given optimisation occurs or would occur.
//! These IR nodes could then be assembled with or without cost function
//! instructions."
//!
//! [`lower_with_optsites`] produces an image whose code paths are
//! [`JvmPath`]: either a regular combined-barrier site or a *virtual*
//! optimisation site that lowers to zero instructions — unless the
//! methodology injects a cost function there, which measures how sensitive
//! the benchmark is to the code the optimisation touches (i.e. the headroom
//! that optimisation class has).

use wmm_sim::isa::Instr;
use wmmbench::image::Segment;
use wmmbench::strategy::FencingStrategy;

use crate::barrier::Combined;
use crate::jit::{lower, JavaOp, JitConfig};

/// JIT optimisation passes whose (actual or potential) application sites
/// can be annotated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptPass {
    /// Escape analysis / scalar replacement: fires at allocation sites.
    EscapeAnalysis,
    /// Lock elision / coarsening: fires at monitor operations.
    LockElision,
    /// Redundant volatile-load elimination: fires at volatile loads.
    RedundantVolatileLoad,
}

impl OptPass {
    /// All annotated passes.
    pub const ALL: [OptPass; 3] = [
        OptPass::EscapeAnalysis,
        OptPass::LockElision,
        OptPass::RedundantVolatileLoad,
    ];

    /// Label for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OptPass::EscapeAnalysis => "escape-analysis",
            OptPass::LockElision => "lock-elision",
            OptPass::RedundantVolatileLoad => "redundant-volatile-load",
        }
    }

    /// Does this pass annotate the given Java operation?
    #[must_use]
    pub(crate) fn fires_at(self, op: &JavaOp) -> bool {
        match self {
            OptPass::EscapeAnalysis => matches!(op, JavaOp::Alloc(_)),
            OptPass::LockElision => {
                matches!(op, JavaOp::MonitorEnter(_) | JavaOp::MonitorExit(_))
            }
            OptPass::RedundantVolatileLoad => matches!(op, JavaOp::VolatileLoad(_)),
        }
    }
}

/// A code path in the optimisation-annotated IR: a barrier site or a
/// virtual optimisation site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JvmPath {
    /// A combined memory-barrier site (as in the plain lowering).
    Barrier(Combined),
    /// A cost-function IR node for an optimisation pass.
    Opt(OptPass),
}

/// Wrap a barrier strategy so it also lowers the virtual optimisation
/// sites (to nothing — they exist only to be injected into).
pub struct OptAwareStrategy<'a, S: FencingStrategy<Combined>> {
    inner: &'a S,
}

impl<'a, S: FencingStrategy<Combined>> OptAwareStrategy<'a, S> {
    /// Wrap `inner`.
    pub fn new(inner: &'a S) -> Self {
        OptAwareStrategy { inner }
    }
}

impl<S: FencingStrategy<Combined>> FencingStrategy<JvmPath> for OptAwareStrategy<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn lower(&self, path: &JvmPath) -> Vec<Instr> {
        match path {
            JvmPath::Barrier(c) => self.inner.lower(c),
            // Virtual IR node: assembles to nothing without an injection.
            JvmPath::Opt(_) => vec![],
        }
    }
}

/// Lower Java operations with optimisation-site annotations: the regular
/// barrier lowering, plus an `Opt` site before every operation each pass
/// fires at.
#[must_use]
pub fn lower_with_optsites(threads: &[Vec<JavaOp>], cfg: &JitConfig) -> Vec<Vec<Segment<JvmPath>>> {
    threads
        .iter()
        .map(|ops| {
            let mut out: Vec<Segment<JvmPath>> = Vec::new();
            for op in ops {
                for pass in OptPass::ALL {
                    if pass.fires_at(op) {
                        out.push(Segment::Site(JvmPath::Opt(pass)));
                    }
                }
                // Reuse the plain lowering for the single op.
                for seg in lower(&[vec![*op]], cfg).remove(0) {
                    out.push(match seg {
                        Segment::Code(c) => Segment::Code(c),
                        Segment::Labeled(l, c) => Segment::Labeled(l, c),
                        Segment::Site(c) => Segment::Site(JvmPath::Barrier(c)),
                    });
                }
            }
            out.shrink_to_fit();
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::arm_jdk8_barriers;
    use wmm_sim::arch::Arch;
    use wmm_sim::isa::Loc;

    #[test]
    fn opt_sites_are_emitted_where_passes_fire() {
        let cfg = JitConfig::jdk8(Arch::ArmV8);
        let ops = vec![vec![
            JavaOp::Alloc(4),
            JavaOp::MonitorEnter(1),
            JavaOp::Work(10),
            JavaOp::MonitorExit(1),
            JavaOp::VolatileLoad(Loc::SharedRw(1)),
            JavaOp::FieldLoad(Loc::Private(1)),
        ]];
        let segs = &lower_with_optsites(&ops, &cfg)[0];
        let count = |p: OptPass| {
            segs.iter()
                .filter(|s| matches!(s, Segment::Site(JvmPath::Opt(q)) if *q == p))
                .count()
        };
        assert_eq!(count(OptPass::EscapeAnalysis), 1);
        assert_eq!(count(OptPass::LockElision), 2, "enter and exit");
        assert_eq!(count(OptPass::RedundantVolatileLoad), 1);
    }

    #[test]
    fn opt_sites_assemble_to_nothing_by_default() {
        let base = arm_jdk8_barriers();
        let s = OptAwareStrategy::new(&base);
        for pass in OptPass::ALL {
            assert!(s.lower(&JvmPath::Opt(pass)).is_empty());
        }
        // Barrier sites still lower through the inner strategy.
        assert!(!s
            .lower(&JvmPath::Barrier(
                crate::barrier::Composite::Volatile.combined()
            ))
            .is_empty());
    }

    #[test]
    fn barrier_structure_is_preserved() {
        let cfg = JitConfig::jdk8(Arch::Power7);
        let ops = vec![vec![JavaOp::VolatileStore(Loc::SharedRw(2))]];
        let plain = lower(&ops, &cfg);
        let annotated = lower_with_optsites(&ops, &cfg);
        let plain_sites = plain[0]
            .iter()
            .filter(|s| matches!(s, Segment::Site(_)))
            .count();
        let barrier_sites = annotated[0]
            .iter()
            .filter(|s| matches!(s, Segment::Site(JvmPath::Barrier(_))))
            .count();
        assert_eq!(plain_sites, barrier_sites);
    }
}

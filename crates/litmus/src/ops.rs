//! Litmus-test vocabulary: operations, fence classes, dependency kinds,
//! memory models and the per-thread ordering relation.

use wmm_sim::isa::FenceKind;

/// Memory models the explorer understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Sequential consistency: program order is execution order.
    Sc,
    /// Total store order (x86-class): only store→load may reorder.
    Tso,
    /// ARMv8-class: relaxed ordering, but multi-copy atomic.
    ArmV8,
    /// POWER-class: relaxed ordering and non-multi-copy-atomic stores with
    /// cumulative barriers.
    Power,
}

impl ModelKind {
    /// Whether committed stores become visible to all threads at once.
    #[must_use]
    pub fn multi_copy_atomic(self) -> bool {
        !matches!(self, ModelKind::Power)
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Sc => "SC",
            ModelKind::Tso => "TSO",
            ModelKind::ArmV8 => "ARMv8",
            ModelKind::Power => "POWER",
        }
    }
}

/// Fence classes as the *semantics* sees them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FClass {
    /// Full barrier: `dmb ish` / `sync`. Orders all pairs, and on POWER
    /// waits until its group-A stores have propagated everywhere.
    Full,
    /// POWER `lwsync`: orders all pairs except store→load; cumulative.
    LwSync,
    /// `ARMv8` `dmb ishst`: orders store→store only.
    StSt,
    /// `ARMv8` `dmb ishld`: orders load→load and load→store.
    LdLdSt,
}

impl FClass {
    /// Whether the class orders the pair (`a_is_store`, `b_is_store`).
    #[must_use]
    pub fn covers(self, a_is_store: bool, b_is_store: bool) -> bool {
        match self {
            FClass::Full => true,
            // Everything except store->load.
            FClass::LwSync => !a_is_store || b_is_store,
            FClass::StSt => a_is_store && b_is_store,
            FClass::LdLdSt => !a_is_store,
        }
    }

    /// Map a simulator fence instruction to its semantic class, if it has
    /// one (`Compiler` has none; `Isb` only matters inside a `ctrl+isb`
    /// dependency, expressed via [`DepKind::CtrlIsb`]).
    #[must_use]
    pub fn of_fence(kind: FenceKind) -> Option<FClass> {
        match kind {
            FenceKind::DmbIsh | FenceKind::HwSync => Some(FClass::Full),
            FenceKind::LwSync => Some(FClass::LwSync),
            FenceKind::DmbIshSt => Some(FClass::StSt),
            FenceKind::DmbIshLd => Some(FClass::LdLdSt),
            FenceKind::Isb | FenceKind::Compiler => None,
        }
    }
}

/// Kinds of syntactic dependency from a load to a later operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// The loaded value feeds the address of the later access: orders the
    /// load before any dependent access.
    Addr,
    /// The loaded value feeds the stored data: orders load before the store.
    Data,
    /// The loaded value controls a branch guarding the access: orders the
    /// load before dependent *stores* only — dependent loads may still be
    /// speculated past the branch. This is exactly why the kernel's
    /// `read_barrier_depends` / `ctrl` strategy discussion (§4.3) exists.
    Ctrl,
    /// Control dependency plus `isb`: orders the load before dependent loads
    /// as well (the kernel's `ctrl+isb` strategy of Fig. 10).
    CtrlIsb,
}

impl DepKind {
    /// Does this dependency order the source load before an op where
    /// `b_is_store` says whether the dependent op is a store?
    #[must_use]
    pub fn orders(self, b_is_store: bool) -> bool {
        match self {
            DepKind::Addr | DepKind::Data | DepKind::CtrlIsb => true,
            DepKind::Ctrl => b_is_store,
        }
    }
}

/// One litmus operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LOp {
    /// Store `val` to `var`.
    Store {
        /// Variable index.
        var: usize,
        /// Value written (non-zero by convention; init is 0).
        val: u32,
        /// Release attribute (`stlr`).
        release: bool,
    },
    /// Load `var` into register `reg`.
    Load {
        /// Variable index.
        var: usize,
        /// Destination register index (unique within the thread).
        reg: usize,
        /// Acquire attribute (`ldar`).
        acquire: bool,
        /// Dependency on an earlier load in the same thread, by op index.
        dep: Option<(usize, DepKind)>,
    },
    /// A fence of the given class. `Full` fences execute as blocking
    /// operations (they wait for propagation on POWER); the weaker classes
    /// are ordering markers only.
    Fence(FClass),
}

impl LOp {
    /// Is this a memory access (load or store)?
    #[must_use]
    pub fn is_access(&self) -> bool {
        !matches!(self, LOp::Fence(_))
    }

    /// Is this a weak fence marker (any fence class but `Full`)?
    #[must_use]
    pub fn is_weak_marker(&self) -> bool {
        matches!(self, LOp::Fence(class) if *class != FClass::Full)
    }

    /// Is this a store?
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, LOp::Store { .. })
    }

    /// Variable accessed, if any.
    #[must_use]
    pub fn var(&self) -> Option<usize> {
        match self {
            LOp::Store { var, .. } | LOp::Load { var, .. } => Some(*var),
            LOp::Fence(_) => None,
        }
    }

    /// Dependency annotation, if this is a dependent op. Stores may carry a
    /// dependency too (data/ctrl); encode those in [`LitmusTest::store_deps`].
    #[must_use]
    pub fn dep(&self) -> Option<(usize, DepKind)> {
        match self {
            LOp::Load { dep, .. } => *dep,
            _ => None,
        }
    }
}

/// A register-value assertion: `(thread, reg) = value` conjuncts. The
/// "interesting" (usually weak) outcome of a litmus test.
pub type Outcome = Vec<(usize, usize, u32)>;

/// A complete litmus test.
#[derive(Debug, Clone)]
pub struct LitmusTest {
    /// Name in the standard litmus naming convention (SB, MP+dmbs, …).
    pub name: String,
    /// Per-thread operation lists.
    pub threads: Vec<Vec<LOp>>,
    /// The outcome whose reachability the test is about.
    pub interesting: Outcome,
    /// Store-side dependencies: `(thread, store_op_idx) -> (load_op_idx, kind)`.
    /// Kept out of `LOp::Store` to keep construction terse.
    pub store_deps: Vec<(usize, usize, usize, DepKind)>,
    /// Final-memory conjuncts of the interesting outcome: `(var, value)`.
    /// Empty for register-only tests; used by the S/R/2+2W/CoWW shapes
    /// whose conditions constrain the coherence-final value.
    pub memory: Vec<(usize, u32)>,
}

impl LitmusTest {
    /// Number of variables mentioned.
    pub fn num_vars(&self) -> usize {
        self.threads
            .iter()
            .flatten()
            .filter_map(LOp::var)
            .max()
            .map_or(0, |v| v + 1)
    }

    /// Dependency attached to op `(t, j)`, whether load- or store-side.
    #[must_use]
    pub fn dep_of(&self, t: usize, j: usize) -> Option<(usize, DepKind)> {
        if let Some(d) = self.threads[t][j].dep() {
            return Some(d);
        }
        self.store_deps
            .iter()
            .find(|&&(dt, dj, _, _)| dt == t && dj == j)
            .map(|&(_, _, src, kind)| (src, kind))
    }

    /// The per-thread *ordering relation*: must op `i` execute before op `j`
    /// (both indices into thread `t`, `i < j`) under `model`?
    ///
    /// This is where each model's strength is defined:
    /// * SC orders everything;
    /// * TSO orders everything except store→load on different variables;
    /// * ARMv8/POWER order only same-location pairs, fenced pairs,
    ///   acquire/release pairs, and dependency pairs.
    #[must_use]
    #[allow(clippy::many_single_char_names)] // t/i/j are positions, a/b the ops
    pub fn ordered(&self, model: ModelKind, t: usize, i: usize, j: usize) -> bool {
        debug_assert!(i < j);
        let a = &self.threads[t][i];
        let b = &self.threads[t][j];

        // Weak fence markers do not themselves execute; they order access
        // pairs via the marker scan below. Nothing is ordered against a
        // marker itself.
        if a.is_weak_marker() || b.is_weak_marker() {
            return false;
        }
        // Full fences execute in program order against every access and
        // every other full fence.
        if matches!(a, LOp::Fence(FClass::Full)) || matches!(b, LOp::Fence(FClass::Full)) {
            return true;
        }

        match model {
            ModelKind::Sc => return true,
            ModelKind::Tso => {
                // Only store->load (different location) may reorder.
                if !(a.is_store() && !b.is_store() && a.var() != b.var()) {
                    return true;
                }
            }
            ModelKind::ArmV8 | ModelKind::Power => {}
        }

        // Coherence / program order per location.
        if a.var() == b.var() {
            return true;
        }
        // Acquire loads order against all later accesses.
        if let LOp::Load { acquire: true, .. } = a {
            return true;
        }
        // Release stores order after all earlier accesses.
        if let LOp::Store { release: true, .. } = b {
            return true;
        }
        // ARMv8 release/acquire is RCsc: an acquire load stays ordered
        // after an earlier release store (`stlr; ldar` do not reorder).
        // POWER's release is lwsync-flavoured (RCpc): store->load escapes.
        if model == ModelKind::ArmV8 {
            if let (LOp::Store { release: true, .. }, LOp::Load { acquire: true, .. }) = (a, b) {
                return true;
            }
        }
        // Dependencies.
        if let Some((src, kind)) = self.dep_of(t, j) {
            if src == i && kind.orders(b.is_store()) {
                return true;
            }
        }
        // A fence marker between them that covers the pair.
        for k in (i + 1)..j {
            if let LOp::Fence(class) = self.threads[t][k] {
                if class.covers(a.is_store(), b.is_store()) {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(var: usize, val: u32) -> LOp {
        LOp::Store {
            var,
            val,
            release: false,
        }
    }

    fn ld(var: usize, reg: usize) -> LOp {
        LOp::Load {
            var,
            reg,
            acquire: false,
            dep: None,
        }
    }

    fn two_op_test(a: LOp, b: LOp) -> LitmusTest {
        LitmusTest {
            name: "pair".into(),
            threads: vec![vec![a, b]],
            interesting: vec![],
            store_deps: vec![],
            memory: vec![],
        }
    }

    #[test]
    fn sc_orders_everything() {
        let t = two_op_test(st(0, 1), ld(1, 0));
        assert!(t.ordered(ModelKind::Sc, 0, 0, 1));
    }

    #[test]
    fn tso_relaxes_only_store_load() {
        let wr = two_op_test(st(0, 1), ld(1, 0));
        assert!(!wr.ordered(ModelKind::Tso, 0, 0, 1), "W->R may reorder");
        let ww = two_op_test(st(0, 1), st(1, 1));
        assert!(ww.ordered(ModelKind::Tso, 0, 0, 1), "W->W stays ordered");
        let rw = two_op_test(ld(0, 0), st(1, 1));
        assert!(rw.ordered(ModelKind::Tso, 0, 0, 1), "R->W stays ordered");
        let rr = two_op_test(ld(0, 0), ld(1, 1));
        assert!(rr.ordered(ModelKind::Tso, 0, 0, 1), "R->R stays ordered");
    }

    #[test]
    fn relaxed_orders_same_location_only() {
        let same = two_op_test(st(0, 1), ld(0, 0));
        assert!(same.ordered(ModelKind::ArmV8, 0, 0, 1));
        for (a, b) in [
            (st(0, 1), ld(1, 0)),
            (st(0, 1), st(1, 1)),
            (ld(0, 0), st(1, 1)),
            (ld(0, 0), ld(1, 1)),
        ] {
            let t = two_op_test(a, b);
            assert!(!t.ordered(ModelKind::ArmV8, 0, 0, 1), "{a:?} -> {b:?}");
        }
    }

    #[test]
    fn fence_classes_cover_expected_pairs() {
        // (a_is_store, b_is_store)
        assert!(FClass::Full.covers(true, false));
        assert!(
            !FClass::LwSync.covers(true, false),
            "lwsync leaves W->R open"
        );
        assert!(FClass::LwSync.covers(true, true));
        assert!(FClass::LwSync.covers(false, true));
        assert!(FClass::StSt.covers(true, true));
        assert!(!FClass::StSt.covers(false, true));
        assert!(FClass::LdLdSt.covers(false, true));
        assert!(FClass::LdLdSt.covers(false, false));
        assert!(!FClass::LdLdSt.covers(true, true));
    }

    #[test]
    fn marker_fence_orders_covered_pair() {
        let t = LitmusTest {
            name: "w-wmb-w".into(),
            threads: vec![vec![st(0, 1), LOp::Fence(FClass::StSt), st(1, 1)]],
            interesting: vec![],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(t.ordered(ModelKind::ArmV8, 0, 0, 2));
        // But it does not order loads.
        let t2 = LitmusTest {
            name: "r-wmb-r".into(),
            threads: vec![vec![ld(0, 0), LOp::Fence(FClass::StSt), ld(1, 1)]],
            interesting: vec![],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(!t2.ordered(ModelKind::ArmV8, 0, 0, 2));
    }

    #[test]
    fn nothing_is_ordered_against_a_weak_marker() {
        let full = LOp::Fence(FClass::Full);
        for class in [FClass::LwSync, FClass::StSt, FClass::LdLdSt] {
            let t = LitmusTest {
                name: "marker".into(),
                threads: vec![vec![full, st(0, 1), LOp::Fence(class), ld(1, 0), full]],
                interesting: vec![],
                store_deps: vec![],
                memory: vec![],
            };
            for model in [ModelKind::Sc, ModelKind::Power] {
                for (i, j) in [(0, 2), (1, 2), (2, 3), (2, 4)] {
                    assert!(!t.ordered(model, 0, i, j), "{class:?} {model:?} {i}->{j}");
                }
                assert!(t.ordered(model, 0, 0, 4), "full fences stay ordered");
            }
        }
    }

    #[test]
    fn ctrl_dep_orders_stores_not_loads() {
        let dep_store = LitmusTest {
            name: "ctrl-store".into(),
            threads: vec![vec![ld(0, 0), st(1, 1)]],
            interesting: vec![],
            store_deps: vec![(0, 1, 0, DepKind::Ctrl)],
            memory: vec![],
        };
        assert!(dep_store.ordered(ModelKind::ArmV8, 0, 0, 1));
        let dep_load = LitmusTest {
            name: "ctrl-load".into(),
            threads: vec![vec![
                ld(0, 0),
                LOp::Load {
                    var: 1,
                    reg: 1,
                    acquire: false,
                    dep: Some((0, DepKind::Ctrl)),
                },
            ]],
            interesting: vec![],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(
            !dep_load.ordered(ModelKind::ArmV8, 0, 0, 1),
            "ctrl does not order dependent loads (speculation)"
        );
        // ...but ctrl+isb does.
        let dep_load_isb = LitmusTest {
            name: "ctrl-isb-load".into(),
            threads: vec![vec![
                ld(0, 0),
                LOp::Load {
                    var: 1,
                    reg: 1,
                    acquire: false,
                    dep: Some((0, DepKind::CtrlIsb)),
                },
            ]],
            interesting: vec![],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(dep_load_isb.ordered(ModelKind::ArmV8, 0, 0, 1));
    }

    #[test]
    fn acquire_release_attributes_order() {
        let acq = LitmusTest {
            name: "acq".into(),
            threads: vec![vec![
                LOp::Load {
                    var: 0,
                    reg: 0,
                    acquire: true,
                    dep: None,
                },
                ld(1, 1),
            ]],
            interesting: vec![],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(acq.ordered(ModelKind::ArmV8, 0, 0, 1));
        let rel = LitmusTest {
            name: "rel".into(),
            threads: vec![vec![
                st(0, 1),
                LOp::Store {
                    var: 1,
                    val: 1,
                    release: true,
                },
            ]],
            interesting: vec![],
            store_deps: vec![],
            memory: vec![],
        };
        assert!(rel.ordered(ModelKind::ArmV8, 0, 0, 1));
    }

    #[test]
    fn fence_kind_mapping() {
        assert_eq!(FClass::of_fence(FenceKind::DmbIsh), Some(FClass::Full));
        assert_eq!(FClass::of_fence(FenceKind::HwSync), Some(FClass::Full));
        assert_eq!(FClass::of_fence(FenceKind::LwSync), Some(FClass::LwSync));
        assert_eq!(FClass::of_fence(FenceKind::DmbIshSt), Some(FClass::StSt));
        assert_eq!(FClass::of_fence(FenceKind::DmbIshLd), Some(FClass::LdLdSt));
        assert_eq!(FClass::of_fence(FenceKind::Compiler), None);
        assert_eq!(FClass::of_fence(FenceKind::Isb), None);
    }
}

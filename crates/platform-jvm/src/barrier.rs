//! Elemental and composite memory barriers of the `OpenJDK` Hotspot VM.

use std::fmt;

/// The four elemental memory barriers generated by the Hotspot compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Elemental {
    /// Orders earlier loads before later loads.
    LoadLoad,
    /// Orders earlier loads before later stores.
    LoadStore,
    /// Orders earlier stores before later loads (the expensive one).
    StoreLoad,
    /// Orders earlier stores before later stores.
    StoreStore,
}

impl Elemental {
    /// All four elementals in the paper's order.
    pub const ALL: [Elemental; 4] = [
        Elemental::LoadLoad,
        Elemental::LoadStore,
        Elemental::StoreLoad,
        Elemental::StoreStore,
    ];

    /// Bit used in a [`Combined`] mask.
    fn bit(self) -> u8 {
        match self {
            Elemental::LoadLoad => 1,
            Elemental::LoadStore => 2,
            Elemental::StoreLoad => 4,
            Elemental::StoreStore => 8,
        }
    }

    /// Name as printed in Fig. 6.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Elemental::LoadLoad => "LoadLoad",
            Elemental::LoadStore => "LoadStore",
            Elemental::StoreLoad => "StoreLoad",
            Elemental::StoreStore => "StoreStore",
        }
    }
}

/// A combined barrier request: the set of elemental orderings a single
/// barrier site must enforce. Hotspot emits **one** instruction per site
/// (the weakest covering all requested orderings), so the site — not the
/// individual elemental — is the unit of rewriting; injecting into an
/// elemental targets every site whose combination contains it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Combined(u8);

impl Combined {
    /// The empty combination (no ordering; lowers to nothing).
    pub(crate) const EMPTY: Combined = Combined(0);

    /// A single-elemental combination.
    #[must_use]
    pub(crate) fn only(e: Elemental) -> Self {
        Combined(e.bit())
    }

    /// Build from a slice of elementals.
    #[must_use]
    pub(crate) fn of(es: &[Elemental]) -> Self {
        Combined(es.iter().fold(0, |m, e| m | e.bit()))
    }

    /// Does this combination include `e`?
    #[must_use]
    pub fn contains(self, e: Elemental) -> bool {
        self.0 & e.bit() != 0
    }

    /// Elementals present.
    #[must_use]
    pub(crate) fn elements(self) -> Vec<Elemental> {
        Elemental::ALL
            .iter()
            .copied()
            .filter(|e| self.contains(*e))
            .collect()
    }

    /// Whether any load-side ordering (LoadLoad/LoadStore) is requested.
    #[must_use]
    pub(crate) fn needs_load_ordering(self) -> bool {
        self.contains(Elemental::LoadLoad) || self.contains(Elemental::LoadStore)
    }

    /// Whether any store-side ordering (`StoreStore`) is requested.
    #[must_use]
    pub(crate) fn needs_store_ordering(self) -> bool {
        self.contains(Elemental::StoreStore)
    }

    /// Whether the expensive store→load ordering is requested.
    #[must_use]
    pub(crate) fn needs_store_load(self) -> bool {
        self.contains(Elemental::StoreLoad)
    }
}

impl fmt::Display for Combined {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            return write!(f, "none");
        }
        let names: Vec<&str> = self.elements().iter().map(|e| e.name()).collect();
        write!(f, "{}", names.join("+"))
    }
}

/// The higher-level IR barriers of §4.2 and their elemental decompositions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Composite {
    /// Full barrier: all four elementals.
    Volatile,
    /// `LoadLoad + LoadStore`.
    Acquire,
    /// `LoadStore + StoreStore`.
    Release,
    /// Same combination as `Acquire` (used by `Unsafe.loadFence`).
    LoadFence,
    /// Same combination as `Release` (used by `Unsafe.storeFence`).
    StoreFence,
}

impl Composite {
    /// Elemental decomposition, exactly as §4.2 describes for POWER (and
    /// identically structured on ARM).
    #[must_use]
    pub fn combined(self) -> Combined {
        use Elemental::{LoadLoad, LoadStore, StoreLoad, StoreStore};
        match self {
            Composite::Volatile => Combined::of(&[LoadLoad, LoadStore, StoreLoad, StoreStore]),
            Composite::Acquire | Composite::LoadFence => Combined::of(&[LoadLoad, LoadStore]),
            Composite::Release | Composite::StoreFence => Combined::of(&[LoadStore, StoreStore]),
        }
    }
}

/// All combined-barrier values that can appear as sites in JIT output —
/// used to size envelopes and to build elemental injection sets.
#[must_use]
pub fn all_site_combinations() -> Vec<Combined> {
    vec![
        Composite::Volatile.combined(),
        Composite::Acquire.combined(),
        Composite::Release.combined(),
        Combined::only(Elemental::StoreStore),
        Combined::only(Elemental::StoreLoad),
        Combined::only(Elemental::LoadLoad),
        Combined::only(Elemental::LoadStore),
    ]
}

/// The injection set for an elemental: every site combination containing it
/// ("if a combination of barriers is requested … a code path will appear in
/// multiple results", §4.2.1).
#[must_use]
pub fn sites_containing(e: Elemental) -> Vec<Combined> {
    all_site_combinations()
        .into_iter()
        .filter(|c| c.contains(e))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use Elemental::*;

    #[test]
    fn composites_decompose_per_paper() {
        let v = Composite::Volatile.combined();
        assert!(Elemental::ALL.iter().all(|e| v.contains(*e)));
        let a = Composite::Acquire.combined();
        assert!(a.contains(LoadLoad) && a.contains(LoadStore));
        assert!(!a.contains(StoreLoad) && !a.contains(StoreStore));
        let r = Composite::Release.combined();
        assert!(r.contains(LoadStore) && r.contains(StoreStore));
        assert!(!r.contains(LoadLoad) && !r.contains(StoreLoad));
        assert_eq!(Composite::LoadFence.combined(), a);
        assert_eq!(Composite::StoreFence.combined(), r);
    }

    #[test]
    fn union_and_elements() {
        let c = Combined::of(&[StoreStore, LoadLoad]);
        assert_eq!(c.elements(), vec![LoadLoad, StoreStore]);
        assert_eq!(c.to_string(), "LoadLoad+StoreStore");
        assert_eq!(Combined::EMPTY.to_string(), "none");
    }

    #[test]
    fn storestore_injection_set_matches_paper() {
        // StoreStore appears in Volatile, Release and its own pure site.
        let set = sites_containing(StoreStore);
        assert!(set.contains(&Composite::Volatile.combined()));
        assert!(set.contains(&Composite::Release.combined()));
        assert!(set.contains(&Combined::only(StoreStore)));
        assert!(!set.contains(&Composite::Acquire.combined()));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn loadstore_appears_in_both_acquire_and_release() {
        let set = sites_containing(LoadStore);
        assert!(set.contains(&Composite::Acquire.combined()));
        assert!(set.contains(&Composite::Release.combined()));
    }

    #[test]
    fn ordering_queries() {
        let r = Composite::Release.combined();
        assert!(r.needs_store_ordering());
        assert!(r.needs_load_ordering()); // via LoadStore
        assert!(!r.needs_store_load());
        let v = Composite::Volatile.combined();
        assert!(v.needs_store_load());
    }
}

//! The fencing-strategy abstraction.
//!
//! §2 of the paper: "we refer to a particular collection of these decisions
//! as a *fencing strategy*" — where to put fences, which fences to use,
//! whether release/acquire instructions or synthetic control-flow
//! dependencies should be used instead. A strategy is a lowering from the
//! platform's *code paths* to instruction sequences.

use wmm_sim::isa::Instr;

/// A fencing strategy over code-path type `P`.
pub trait FencingStrategy<P> {
    /// Name used in figures and reports (e.g. "JDK9 ld.acq/st.rel",
    /// "dmb ishld").
    fn name(&self) -> &str;

    /// The instruction sequence this strategy emits at code path `path`.
    fn lower(&self, path: &P) -> Vec<Instr>;
}

/// A strategy built from a closure — convenient for one-off variants in
/// experiments ("what if StoreStore were a full sync?").
pub struct FnStrategy<P, F: Fn(&P) -> Vec<Instr>> {
    name: String,
    f: F,
    _marker: std::marker::PhantomData<fn(&P)>,
}

impl<P, F: Fn(&P) -> Vec<Instr>> FnStrategy<P, F> {
    /// Wrap a closure as a named strategy.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnStrategy {
            name: name.into(),
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<P, F: Fn(&P) -> Vec<Instr>> FencingStrategy<P> for FnStrategy<P, F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn lower(&self, path: &P) -> Vec<Instr> {
        (self.f)(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmm_sim::isa::FenceKind;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Path {
        A,
        B,
    }

    #[test]
    fn fn_strategy_lowers() {
        let s = FnStrategy::new("test", |p: &Path| match p {
            Path::A => vec![Instr::Fence(FenceKind::DmbIsh)],
            Path::B => vec![],
        });
        assert_eq!(s.name(), "test");
        assert_eq!(s.lower(&Path::A), vec![Instr::Fence(FenceKind::DmbIsh)]);
        assert!(s.lower(&Path::B).is_empty());
    }
}

//! Well-formedness lint for [`LitmusTest`] programs.
//!
//! Both the hand-written suite and the generated corpus flow through this
//! lint before any oracle sees them. The checks are *value-level static*
//! checks on purpose: an explorer-reachability check for "unreachable
//! interesting outcome" would flag the coherence shapes (`CoRR`, `CoWW`)
//! whose entire point is that the outcome is forbidden everywhere. Instead
//! the lint asks whether each asserted value could ever *syntactically*
//! arise — a register can only hold 0 or a value some store writes to a
//! variable that register loads; a memory conjunct can only name a value
//! some store writes to that variable.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::ops::{LOp, LitmusTest};

/// One well-formedness finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintIssue {
    /// Two tests in the linted set share a name.
    DuplicateName {
        /// The colliding name.
        name: String,
    },
    /// An outcome conjunct names a thread the test does not have.
    OutcomeThreadOutOfRange {
        /// Thread index in the conjunct.
        thread: usize,
    },
    /// An outcome conjunct names a register no load in that thread writes.
    OutcomeRegisterUndefined {
        /// Thread index.
        thread: usize,
        /// Register index.
        reg: usize,
    },
    /// An outcome conjunct asserts a value that is neither the initial 0
    /// nor stored to any variable the register loads from — the conjunct
    /// can never hold, so the `interesting` outcome is unreachable.
    OutcomeValueUnreachable {
        /// Thread index.
        thread: usize,
        /// Register index.
        reg: usize,
        /// The impossible value.
        value: u32,
    },
    /// Two conjuncts constrain the same register to different values.
    OutcomeContradiction {
        /// Thread index.
        thread: usize,
        /// Register index.
        reg: usize,
    },
    /// A memory conjunct names a variable no operation accesses.
    MemoryVarUndefined {
        /// Variable index.
        var: usize,
    },
    /// A memory conjunct asserts a final value no store writes to that
    /// variable (and which is not the initial 0).
    MemoryValueUnreachable {
        /// Variable index.
        var: usize,
        /// The impossible value.
        value: u32,
    },
    /// Two memory conjuncts constrain the same variable differently.
    MemoryContradiction {
        /// Variable index.
        var: usize,
    },
    /// A store writes the value 0, which is indistinguishable from the
    /// initial state — outcomes lose their meaning.
    StoreWritesZero {
        /// Thread index.
        thread: usize,
        /// Op index.
        op: usize,
    },
    /// Two loads in one thread target the same destination register, so
    /// the final register file cannot witness both.
    DuplicateLoadRegister {
        /// Thread index.
        thread: usize,
        /// Register index.
        reg: usize,
    },
    /// A dependency annotation points at an op that is not an earlier load
    /// in the same thread.
    BadDependency {
        /// Thread index.
        thread: usize,
        /// Op index carrying the annotation.
        op: usize,
    },
    /// A `store_deps` entry names a thread/op pair that is out of range or
    /// not a store.
    BadStoreDep {
        /// Thread index in the entry.
        thread: usize,
        /// Op index in the entry.
        op: usize,
    },
    /// The test asserts nothing at all (no register conjuncts, no memory
    /// conjuncts): every run trivially satisfies it.
    VacuousOutcome,
}

impl fmt::Display for LintIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintIssue::DuplicateName { name } => write!(f, "duplicate test name {name:?}"),
            LintIssue::OutcomeThreadOutOfRange { thread } => {
                write!(f, "outcome names nonexistent thread {thread}")
            }
            LintIssue::OutcomeRegisterUndefined { thread, reg } => {
                write!(
                    f,
                    "outcome names register r{reg} no load in t{thread} writes"
                )
            }
            LintIssue::OutcomeValueUnreachable { thread, reg, value } => write!(
                f,
                "outcome asserts t{thread}:r{reg}={value}, but no store writes {value} \
                 to a variable that register loads"
            ),
            LintIssue::OutcomeContradiction { thread, reg } => {
                write!(
                    f,
                    "outcome constrains t{thread}:r{reg} to two different values"
                )
            }
            LintIssue::MemoryVarUndefined { var } => {
                write!(f, "memory conjunct names unaccessed variable {var}")
            }
            LintIssue::MemoryValueUnreachable { var, value } => {
                write!(f, "memory conjunct asserts var{var}={value}, never stored")
            }
            LintIssue::MemoryContradiction { var } => {
                write!(
                    f,
                    "memory conjuncts constrain var{var} to two different values"
                )
            }
            LintIssue::StoreWritesZero { thread, op } => write!(
                f,
                "store at t{thread} op {op} writes 0, indistinguishable from init"
            ),
            LintIssue::DuplicateLoadRegister { thread, reg } => {
                write!(f, "two loads in t{thread} write the same register r{reg}")
            }
            LintIssue::BadDependency { thread, op } => write!(
                f,
                "dependency at t{thread} op {op} does not point at an earlier load"
            ),
            LintIssue::BadStoreDep { thread, op } => {
                write!(f, "store_deps entry (t{thread}, op {op}) is not a store")
            }
            LintIssue::VacuousOutcome => {
                write!(f, "test asserts nothing (empty outcome and memory)")
            }
        }
    }
}

/// Values each `(thread, reg)` could syntactically hold: 0 plus every value
/// stored (by any thread) to any variable the register loads from.
fn possible_reg_values(test: &LitmusTest) -> HashMap<(usize, usize), HashSet<u32>> {
    let mut stored: HashMap<usize, HashSet<u32>> = HashMap::new();
    for ops in &test.threads {
        for op in ops {
            if let LOp::Store { var, val, .. } = op {
                stored.entry(*var).or_default().insert(*val);
            }
        }
    }
    let mut possible: HashMap<(usize, usize), HashSet<u32>> = HashMap::new();
    for (t, ops) in test.threads.iter().enumerate() {
        for op in ops {
            if let LOp::Load { var, reg, .. } = op {
                let entry = possible.entry((t, *reg)).or_default();
                entry.insert(0);
                if let Some(vals) = stored.get(var) {
                    entry.extend(vals.iter().copied());
                }
            }
        }
    }
    possible
}

/// Lint a single test. Returns every issue found (empty = well-formed).
#[must_use]
#[allow(clippy::too_many_lines)] // one arm per check; splitting hides the checklist
pub(crate) fn lint_test(test: &LitmusTest) -> Vec<LintIssue> {
    let mut issues = vec![];
    let nthreads = test.threads.len();

    // Per-thread structural checks: zero stores, duplicate load registers,
    // malformed load-side dependencies.
    for (t, ops) in test.threads.iter().enumerate() {
        let mut seen_regs: HashSet<usize> = HashSet::new();
        for (j, op) in ops.iter().enumerate() {
            match op {
                LOp::Store { val: 0, .. } => {
                    issues.push(LintIssue::StoreWritesZero { thread: t, op: j });
                }
                LOp::Load { reg, dep, .. } => {
                    if !seen_regs.insert(*reg) {
                        issues.push(LintIssue::DuplicateLoadRegister {
                            thread: t,
                            reg: *reg,
                        });
                    }
                    if let Some((src, _)) = dep {
                        let ok = *src < j && matches!(ops.get(*src), Some(LOp::Load { .. }));
                        if !ok {
                            issues.push(LintIssue::BadDependency { thread: t, op: j });
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Store-side dependency table.
    for &(t, j, src, _) in &test.store_deps {
        let is_store = test
            .threads
            .get(t)
            .and_then(|ops| ops.get(j))
            .is_some_and(LOp::is_store);
        if !is_store {
            issues.push(LintIssue::BadStoreDep { thread: t, op: j });
            continue;
        }
        let src_is_earlier_load =
            src < j && matches!(test.threads[t].get(src), Some(LOp::Load { .. }));
        if !src_is_earlier_load {
            issues.push(LintIssue::BadDependency { thread: t, op: j });
        }
    }

    // Register conjuncts.
    let possible = possible_reg_values(test);
    let mut pinned_regs: HashMap<(usize, usize), u32> = HashMap::new();
    for &(t, r, v) in &test.interesting {
        if t >= nthreads {
            issues.push(LintIssue::OutcomeThreadOutOfRange { thread: t });
            continue;
        }
        let Some(vals) = possible.get(&(t, r)) else {
            issues.push(LintIssue::OutcomeRegisterUndefined { thread: t, reg: r });
            continue;
        };
        if !vals.contains(&v) {
            issues.push(LintIssue::OutcomeValueUnreachable {
                thread: t,
                reg: r,
                value: v,
            });
        }
        if let Some(&prev) = pinned_regs.get(&(t, r)) {
            if prev != v {
                issues.push(LintIssue::OutcomeContradiction { thread: t, reg: r });
            }
        }
        pinned_regs.insert((t, r), v);
    }

    // Memory conjuncts.
    let num_vars = test.num_vars();
    let mut stored_to: HashMap<usize, HashSet<u32>> = HashMap::new();
    for ops in &test.threads {
        for op in ops {
            if let LOp::Store { var, val, .. } = op {
                stored_to.entry(*var).or_default().insert(*val);
            }
        }
    }
    let mut pinned_mem: HashMap<usize, u32> = HashMap::new();
    for &(var, v) in &test.memory {
        if var >= num_vars {
            issues.push(LintIssue::MemoryVarUndefined { var });
            continue;
        }
        let reachable = v == 0 || stored_to.get(&var).is_some_and(|s| s.contains(&v));
        if !reachable {
            issues.push(LintIssue::MemoryValueUnreachable { var, value: v });
        }
        if let Some(&prev) = pinned_mem.get(&var) {
            if prev != v {
                issues.push(LintIssue::MemoryContradiction { var });
            }
        }
        pinned_mem.insert(var, v);
    }

    if test.interesting.is_empty() && test.memory.is_empty() {
        issues.push(LintIssue::VacuousOutcome);
    }

    issues
}

/// Lint a whole corpus: per-test checks plus cross-test duplicate-name
/// detection. Returns `(test name, issue)` pairs.
pub fn lint_corpus<'a, I>(tests: I) -> Vec<(String, LintIssue)>
where
    I: IntoIterator<Item = &'a LitmusTest>,
{
    let mut findings = vec![];
    let mut names: HashSet<&str> = HashSet::new();
    for test in tests {
        if !names.insert(&test.name) {
            findings.push((
                test.name.clone(),
                LintIssue::DuplicateName {
                    name: test.name.clone(),
                },
            ));
        }
        for issue in lint_test(test) {
            findings.push((test.name.clone(), issue));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::DepKind;
    use crate::suite::full_suite;

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

    #[test]
    fn hand_suite_is_lint_clean() {
        let tests: Vec<_> = full_suite().into_iter().map(|e| e.test).collect();
        let findings = lint_corpus(tests.iter());
        assert!(findings.is_empty(), "suite lint findings: {findings:?}");
    }

    #[test]
    fn catches_undefined_register_and_unreachable_value() {
        let t = LitmusTest {
            name: "bad".into(),
            threads: vec![vec![st(0, 1), ld(1, 0)]],
            interesting: vec![(0, 5, 1), (0, 0, 9)],
            store_deps: vec![],
            memory: vec![],
        };
        let issues = lint_test(&t);
        assert!(issues.contains(&LintIssue::OutcomeRegisterUndefined { thread: 0, reg: 5 }));
        assert!(issues.contains(&LintIssue::OutcomeValueUnreachable {
            thread: 0,
            reg: 0,
            value: 9
        }));
    }

    #[test]
    fn catches_zero_store_bad_deps_and_duplicates() {
        let t = LitmusTest {
            name: "bad2".into(),
            threads: vec![vec![st(0, 0), ld(1, 0), ld(2, 0)]],
            interesting: vec![(0, 0, 0)],
            store_deps: vec![(0, 0, 2, DepKind::Data), (0, 1, 0, DepKind::Data)],
            memory: vec![(7, 1)],
        };
        let issues = lint_test(&t);
        assert!(issues.contains(&LintIssue::StoreWritesZero { thread: 0, op: 0 }));
        assert!(issues.contains(&LintIssue::DuplicateLoadRegister { thread: 0, reg: 0 }));
        // store_deps (0,0,2): src=2 is not earlier than op 0.
        assert!(issues.contains(&LintIssue::BadDependency { thread: 0, op: 0 }));
        // store_deps (0,1): op 1 is a load, not a store.
        assert!(issues.contains(&LintIssue::BadStoreDep { thread: 0, op: 1 }));
        assert!(issues.contains(&LintIssue::MemoryVarUndefined { var: 7 }));
    }

    #[test]
    fn catches_duplicate_names_and_vacuous_tests() {
        let a = LitmusTest {
            name: "same".into(),
            threads: vec![vec![st(0, 1)]],
            interesting: vec![],
            store_deps: vec![],
            memory: vec![(0, 1)],
        };
        let b = LitmusTest {
            name: "same".into(),
            threads: vec![vec![st(0, 1)]],
            interesting: vec![],
            store_deps: vec![],
            memory: vec![],
        };
        let findings = lint_corpus([&a, &b]);
        assert!(findings
            .iter()
            .any(|(_, i)| matches!(i, LintIssue::DuplicateName { .. })));
        assert!(findings
            .iter()
            .any(|(n, i)| n == "same" && *i == LintIssue::VacuousOutcome));
    }

    #[test]
    fn catches_contradictions() {
        let t = LitmusTest {
            name: "contra".into(),
            threads: vec![vec![st(0, 1), st(0, 2)], vec![ld(0, 0)]],
            interesting: vec![(1, 0, 1), (1, 0, 2)],
            store_deps: vec![],
            memory: vec![(0, 1), (0, 2)],
        };
        let issues = lint_test(&t);
        assert!(issues.contains(&LintIssue::OutcomeContradiction { thread: 1, reg: 0 }));
        assert!(issues.contains(&LintIssue::MemoryContradiction { var: 0 }));
    }
}

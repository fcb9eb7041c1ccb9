//! A JIT-like lowering from Java-level operations to instruction streams
//! with labelled barrier sites.
//!
//! This models the surface the paper instruments: "we modified the low-level
//! assembler of the JIT compiler to change the barrier instruction sequence,
//! inserting nop instructions or the cost functions" (§4.2). Java operations
//! (volatile accesses, monitor enter/exit, CAS, allocation with GC card
//! marks) lower to plain simulator instructions plus [`Combined`] barrier
//! *sites*; the fencing strategy and injector then decide what each site
//! becomes.
//!
//! Architecture differences follow the paper's observation that "the
//! developers of the ARM implementation are more defensive, adding more
//! `LoadLoad` and `LoadStore` barriers than the Power developers":
//!
//! * **`ARMv8`, barrier mode** (JDK8 / `UseBarriersForVolatile`): volatile
//!   stores are bracketed by *full* `Volatile` barriers, and the C2 locking
//!   code emits an extra `Volatile` barrier per monitor operation — the
//!   `dmb`s that the pending DMB-elimination patch removes (§4.2.1).
//! * **`ARMv8`, JDK9 mode**: volatile accesses become `ldar`/`stlr` with no
//!   barrier sites at all.
//! * **POWER**: volatile loads/stores use the composite barriers exactly as
//!   §4.2 lists them; monitor exit is a `Release` site; monitor enter is an
//!   acquiring CAS with no separate barrier site.
//!
//! GC card marks (a `StoreStore` site per reference store) are emitted on
//! both architectures — they are the dominant source of the pure
//! `StoreStore` sensitivity that spark exhibits in Fig. 6.

use wmm_sim::arch::Arch;
use wmm_sim::isa::{AccessOrd, Instr, Loc};
use wmmbench::image::Segment;

use crate::barrier::{Combined, Composite};

/// How volatile accesses are implemented (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VolatileMode {
    /// JDK8 behaviour / `-XX:+UseBarriersForVolatile`: explicit barriers.
    Barriers,
    /// JDK9 behaviour on `ARMv8`: `ldar`/`stlr` instructions.
    LoadAcquireStoreRelease,
}

/// JIT configuration for one compilation.
#[derive(Debug, Clone, Copy)]
pub struct JitConfig {
    /// Target architecture (selects the composite tables).
    pub arch: Arch,
    /// Volatile implementation.
    pub volatile_mode: VolatileMode,
    /// Whether the pending DMB-elimination locking patch [Haley 2015] is
    /// applied: monitor operations lose their extra `Volatile` barrier.
    /// With barriers mode the restructured lock paths retry marginally more
    /// (the paper's unexplained −1%; see DESIGN.md).
    pub locking_patch: bool,
}

impl JitConfig {
    /// Stock JDK9 configuration for an architecture: POWER keeps barriers,
    /// ARM uses load-acquire/store-release.
    #[must_use]
    pub fn jdk9(arch: Arch) -> Self {
        JitConfig {
            arch,
            volatile_mode: match arch {
                Arch::ArmV8 => VolatileMode::LoadAcquireStoreRelease,
                Arch::Power7 => VolatileMode::Barriers,
            },
            locking_patch: false,
        }
    }

    /// JDK8 behaviour (barriers everywhere).
    #[must_use]
    pub fn jdk8(arch: Arch) -> Self {
        JitConfig {
            arch,
            volatile_mode: VolatileMode::Barriers,
            locking_patch: false,
        }
    }
}

/// Java-level operations produced by workload generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JavaOp {
    /// Straight-line computation worth `cycles` cycles.
    Work(u32),
    /// Plain field load.
    FieldLoad(Loc),
    /// Plain field store.
    FieldStore(Loc),
    /// Reference store: field store plus GC card mark (`StoreStore` site).
    RefStore(Loc),
    /// Volatile field load.
    VolatileLoad(Loc),
    /// Volatile field store.
    VolatileStore(Loc),
    /// Monitor (synchronized block) entry on a lock object.
    MonitorEnter(u64),
    /// Monitor exit.
    MonitorExit(u64),
    /// `java.util.concurrent` CAS.
    Cas(Loc),
    /// Allocation: TLAB bump (private stores) of roughly `words` words.
    Alloc(u32),
    /// Explicit `Unsafe`/`VarHandle` fence.
    Fence(Composite),
}

/// Lower per-thread Java operation streams to image segments.
#[must_use]
pub fn lower(threads: &[Vec<JavaOp>], cfg: &JitConfig) -> Vec<Vec<Segment<Combined>>> {
    threads.iter().map(|ops| lower_thread(ops, *cfg)).collect()
}

// One arm per JavaOp; splitting the match would obscure the lowering table.
#[allow(clippy::too_many_lines)]
fn lower_thread(ops: &[JavaOp], cfg: JitConfig) -> Vec<Segment<Combined>> {
    // Pending literal code moves into a segment of exactly its size, and
    // the buffer keeps its capacity for the next run of code: images are
    // held for a whole sweep, so slack capacity would be held with them.
    fn flush(code: &mut Vec<Instr>, segs: &mut Vec<Segment<Combined>>) {
        if !code.is_empty() {
            segs.push(Segment::Code(code.to_vec()));
            code.clear();
        }
    }
    let mut segs: Vec<Segment<Combined>> = Vec::new();
    let mut code: Vec<Instr> = Vec::new();
    let site = |segs: &mut Vec<Segment<Combined>>, code: &mut Vec<Instr>, c: Combined| {
        flush(code, segs);
        segs.push(Segment::Site(c));
    };
    // Volatile accesses are tagged with a label in *every* volatile mode, so
    // per-site profiles of barrier and ldar/stlr JITs put the access cost on
    // the same row and a cross-JIT diff isolates the ordering surcharge.
    let labeled = |segs: &mut Vec<Segment<Combined>>,
                   code: &mut Vec<Instr>,
                   label: &'static str,
                   i: Instr| {
        flush(code, segs);
        segs.push(Segment::Labeled(label, vec![i]));
    };

    let lasr = cfg.volatile_mode == VolatileMode::LoadAcquireStoreRelease;
    // ARM's C2 locking code carries extra full barriers unless patched.
    let arm_lock_dmb = cfg.arch == Arch::ArmV8 && !cfg.locking_patch;
    // See JitConfig::locking_patch: restructured lock paths with plain
    // barriers retry marginally more.
    let cas_success = if cfg.locking_patch && !lasr {
        0.20
    } else {
        0.95
    };

    for op in ops {
        match *op {
            JavaOp::Work(cycles) => code.push(Instr::Compute { cycles }),
            JavaOp::FieldLoad(loc) => code.push(Instr::Load {
                loc,
                ord: AccessOrd::Plain,
            }),
            JavaOp::FieldStore(loc) => code.push(Instr::Store {
                loc,
                ord: AccessOrd::Plain,
            }),
            JavaOp::RefStore(loc) => {
                code.push(Instr::Store {
                    loc,
                    ord: AccessOrd::Plain,
                });
                // GC card-table mark: a byte store that must not overtake
                // the reference store — a pure StoreStore site.
                site(
                    &mut segs,
                    &mut code,
                    Combined::only(crate::barrier::Elemental::StoreStore),
                );
                code.push(Instr::Store {
                    loc: Loc::SharedRo(0xCA4D ^ (loc.line() % 64)),
                    ord: AccessOrd::Plain,
                });
            }
            JavaOp::VolatileLoad(loc) => {
                if lasr {
                    labeled(
                        &mut segs,
                        &mut code,
                        "vol.ld",
                        Instr::Load {
                            loc,
                            ord: AccessOrd::Acquire,
                        },
                    );
                } else {
                    // "each volatile load is preceded by an invocation of
                    // the Volatile barrier and followed by Acquire" (§4.2).
                    site(&mut segs, &mut code, Composite::Volatile.combined());
                    labeled(
                        &mut segs,
                        &mut code,
                        "vol.ld",
                        Instr::Load {
                            loc,
                            ord: AccessOrd::Plain,
                        },
                    );
                    site(&mut segs, &mut code, Composite::Acquire.combined());
                }
            }
            JavaOp::VolatileStore(loc) => {
                if lasr {
                    labeled(
                        &mut segs,
                        &mut code,
                        "vol.st",
                        Instr::Store {
                            loc,
                            ord: AccessOrd::Release,
                        },
                    );
                } else if cfg.arch == Arch::ArmV8 {
                    // Defensive ARM lowering: full barriers on both sides.
                    site(&mut segs, &mut code, Composite::Volatile.combined());
                    labeled(
                        &mut segs,
                        &mut code,
                        "vol.st",
                        Instr::Store {
                            loc,
                            ord: AccessOrd::Plain,
                        },
                    );
                    site(&mut segs, &mut code, Composite::Volatile.combined());
                } else {
                    // "volatile stores are preceded by Release and followed
                    // by Volatile" (§4.2).
                    site(&mut segs, &mut code, Composite::Release.combined());
                    labeled(
                        &mut segs,
                        &mut code,
                        "vol.st",
                        Instr::Store {
                            loc,
                            ord: AccessOrd::Plain,
                        },
                    );
                    site(&mut segs, &mut code, Composite::Volatile.combined());
                }
            }
            JavaOp::MonitorEnter(lock) => {
                code.push(Instr::Cas {
                    loc: Loc::SharedRw(0x10C0 + lock),
                    success_prob: cas_success,
                });
                if arm_lock_dmb {
                    site(&mut segs, &mut code, Composite::Volatile.combined());
                } else if cfg.arch == Arch::Power7 {
                    // C2's MemBarAcquireLock lowers to an lwsync on PPC64,
                    // requesting LoadStore+StoreStore ordering around the
                    // acquired lock word — a Release-class combination.
                    site(&mut segs, &mut code, Composite::Release.combined());
                }
            }
            JavaOp::MonitorExit(lock) => {
                if cfg.arch == Arch::ArmV8 {
                    // aarch64 C2 uses stlr for the unlock store…
                    code.push(Instr::Store {
                        loc: Loc::SharedRw(0x10C0 + lock),
                        ord: AccessOrd::Release,
                    });
                    // …but unpatched code still emits a trailing dmb.
                    if arm_lock_dmb {
                        site(&mut segs, &mut code, Composite::Volatile.combined());
                    }
                } else {
                    site(&mut segs, &mut code, Composite::Release.combined());
                    code.push(Instr::Store {
                        loc: Loc::SharedRw(0x10C0 + lock),
                        ord: AccessOrd::Plain,
                    });
                }
            }
            JavaOp::Cas(loc) => {
                code.push(Instr::Cas {
                    loc,
                    success_prob: 0.9,
                });
                // Unsafe CAS has volatile semantics: a full barrier request.
                if !lasr {
                    site(&mut segs, &mut code, Composite::Volatile.combined());
                }
            }
            JavaOp::Alloc(words) => {
                // TLAB bump: private stores, no barriers.
                code.push(Instr::Compute { cycles: 4 });
                for w in 0..words.min(8) {
                    code.push(Instr::Store {
                        loc: Loc::Private(0x71AB + u64::from(w)),
                        ord: AccessOrd::Plain,
                    });
                }
            }
            JavaOp::Fence(c) => {
                site(&mut segs, &mut code, c.combined());
            }
        }
    }
    flush(&mut code, &mut segs);
    segs.shrink_to_fit();
    segs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::Elemental;

    fn count_sites(segs: &[Segment<Combined>], pred: impl Fn(&Combined) -> bool) -> usize {
        segs.iter()
            .filter(|s| matches!(s, Segment::Site(c) if pred(c)))
            .count()
    }

    #[test]
    fn volatile_load_emits_volatile_then_acquire_in_barrier_mode() {
        let cfg = JitConfig::jdk8(Arch::Power7);
        let segs = lower_thread(&[JavaOp::VolatileLoad(Loc::SharedRw(1))], cfg);
        let sites: Vec<Combined> = segs
            .iter()
            .filter_map(|s| match s {
                Segment::Site(c) => Some(*c),
                _ => None,
            })
            .collect();
        assert_eq!(
            sites,
            vec![
                Composite::Volatile.combined(),
                Composite::Acquire.combined()
            ]
        );
    }

    #[test]
    fn power_volatile_store_uses_release_then_volatile() {
        let cfg = JitConfig::jdk8(Arch::Power7);
        let segs = lower_thread(&[JavaOp::VolatileStore(Loc::SharedRw(1))], cfg);
        let sites: Vec<Combined> = segs
            .iter()
            .filter_map(|s| match s {
                Segment::Site(c) => Some(*c),
                _ => None,
            })
            .collect();
        assert_eq!(
            sites,
            vec![
                Composite::Release.combined(),
                Composite::Volatile.combined()
            ]
        );
    }

    #[test]
    fn arm_volatile_store_is_defensive() {
        let cfg = JitConfig::jdk8(Arch::ArmV8);
        let segs = lower_thread(&[JavaOp::VolatileStore(Loc::SharedRw(1))], cfg);
        assert_eq!(
            count_sites(&segs, |c| *c == Composite::Volatile.combined()),
            2,
            "full barriers both sides"
        );
        assert_eq!(
            count_sites(&segs, |c| *c == Composite::Release.combined()),
            0
        );
    }

    #[test]
    fn jdk9_arm_volatiles_have_no_sites() {
        let cfg = JitConfig::jdk9(Arch::ArmV8);
        let segs = lower_thread(
            &[
                JavaOp::VolatileLoad(Loc::SharedRw(1)),
                JavaOp::VolatileStore(Loc::SharedRw(2)),
            ],
            cfg,
        );
        assert_eq!(count_sites(&segs, |_| true), 0);
        // The accesses became labeled acquire/release instructions instead.
        let has_acq = segs.iter().any(|s| {
            matches!(s, Segment::Labeled("vol.ld", is) if is.iter().any(|i| matches!(i, Instr::Load { ord: AccessOrd::Acquire, .. })))
        });
        let has_rel = segs.iter().any(|s| {
            matches!(s, Segment::Labeled("vol.st", is) if is.iter().any(|i| matches!(i, Instr::Store { ord: AccessOrd::Release, .. })))
        });
        assert!(has_acq && has_rel);
    }

    #[test]
    fn ref_store_emits_card_mark() {
        let cfg = JitConfig::jdk8(Arch::Power7);
        let segs = lower_thread(&[JavaOp::RefStore(Loc::SharedRw(3))], cfg);
        assert_eq!(
            count_sites(&segs, |c| *c == Combined::only(Elemental::StoreStore)),
            1
        );
    }

    #[test]
    fn locking_patch_removes_arm_monitor_dmbs() {
        let ops = [JavaOp::MonitorEnter(1), JavaOp::MonitorExit(1)];
        let unpatched = lower_thread(
            &ops,
            JitConfig {
                arch: Arch::ArmV8,
                volatile_mode: VolatileMode::LoadAcquireStoreRelease,
                locking_patch: false,
            },
        );
        let patched = lower_thread(
            &ops,
            JitConfig {
                arch: Arch::ArmV8,
                volatile_mode: VolatileMode::LoadAcquireStoreRelease,
                locking_patch: true,
            },
        );
        assert_eq!(count_sites(&unpatched, |_| true), 2);
        assert_eq!(count_sites(&patched, |_| true), 0);
    }

    #[test]
    fn power_monitor_exit_is_release_site() {
        let cfg = JitConfig::jdk8(Arch::Power7);
        let segs = lower_thread(&[JavaOp::MonitorExit(1)], cfg);
        assert_eq!(
            count_sites(&segs, |c| *c == Composite::Release.combined()),
            1
        );
    }

    #[test]
    fn work_ops_merge_into_code_segments() {
        let cfg = JitConfig::jdk8(Arch::Power7);
        let segs = lower_thread(
            &[
                JavaOp::Work(10),
                JavaOp::Work(20),
                JavaOp::FieldLoad(Loc::Private(1)),
            ],
            cfg,
        );
        assert_eq!(segs.len(), 1, "adjacent plain ops coalesce: {segs:?}");
    }
}

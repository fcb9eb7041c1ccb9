//! # wmm-sim
//!
//! A deterministic, discrete-event **timing simulator** of weak-memory
//! multicores, standing in for the ARMv8 (X-Gene 1) and POWER7 machines used
//! in *Benchmarking Weak Memory Models* (Ritson & Owens, PPoPP 2016).
//!
//! ## Why a simulator
//!
//! The paper's methodology treats the machine as a device whose fence costs
//! are *context dependent*: a `dmb ish` costs more when the store buffer is
//! full, `dmb ishld` costs more when loads are outstanding, `isb` pays a
//! pipeline flush, POWER's `sync` pays a global acknowledgement that `lwsync`
//! does not, and microbenchmarks (which run with empty buffers) cannot
//! observe any of this. This crate models exactly those phenomena:
//!
//! * per-core **store buffers** drained asynchronously, with drain cost
//!   depending on cache-line ownership ([`sbuf`]);
//! * a **coherence directory** over shared lines plus private-L1/LLC/DRAM
//!   latencies ([`mem`]);
//! * an **out-of-order overlap** model that hides part of small costs
//!   ([`machine`]);
//! * per-architecture **fence semantics and costs** ([`arch`], [`exec`]);
//! * native, closed-form timing of the paper's spin-loop **cost functions**
//!   (Figs. 2–4), including the sub-linear small-N region caused by
//!   pipelining ([`isa::Instr::CostLoop`]).
//!
//! Everything is seeded and reproducible: the same ([`Program`],
//! [`WorkloadCtx`], seed) triple always yields the same [`stats::ExecStats`].
//!
//! ## Quick example
//!
//! ```
//! use wmm_sim::{arch, isa::{Instr, Loc, AccessOrd, FenceKind}, Machine, Program, WorkloadCtx};
//!
//! let spec = arch::armv8_xgene1();
//! let thread = vec![
//!     Instr::Store { loc: Loc::SharedRw(1), ord: AccessOrd::Plain },
//!     Instr::Fence(FenceKind::DmbIsh),
//!     Instr::Load { loc: Loc::SharedRw(2), ord: AccessOrd::Plain },
//! ];
//! let prog = Program::new(vec![thread.clone(), thread]);
//! let stats = Machine::new(spec).run(&prog, &WorkloadCtx::default(), 42);
//! assert!(stats.wall_ns > 0.0);
//! assert_eq!(stats.fences(FenceKind::DmbIsh), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod arch;
pub mod exec;
pub mod isa;
pub mod machine;
pub mod mem;
pub mod probe;
pub mod rng;
pub mod sbuf;
pub mod sched;
pub mod stats;

pub use isa::FenceKind;
pub use machine::{Code, Machine, MachineScratch, Program, WorkloadCtx};
pub use probe::Probe;
pub use rng::SplitMix64;

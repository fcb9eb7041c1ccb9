//! # wmm-kernel
//!
//! A Linux-kernel-like **platform model**: the memory-model macro machinery
//! of §4.3 of *Benchmarking Weak Memory Models*.
//!
//! The Linux kernel memory model is enforced by explicit barrier macros
//! (documented in `memory-barriers.txt`), implemented per architecture in
//! `include/asm/barriers.h`. This crate models:
//!
//! * [`macros`] — the 14 macros the paper investigates (`smp_mb`,
//!   `read_once`, `read_barrier_depends`, …) and their default `ARMv8`
//!   lowerings (only `smp_mb` and friends produce instructions; `read_once`,
//!   `write_once` and `read_barrier_depends` are compiler-only);
//! * [`rbd`] — the six `read_barrier_depends` fencing strategies of Fig. 10:
//!   `base case`, `ctrl`, `ctrl+isb`, `dmb ishld`, `dmb ish` and `la/sr`
//!   (which also annotates `READ_ONCE`/`WRITE_ONCE`), each "replicating a
//!   method for introducing ordering dependencies from the `ARMv8` manual";
//! * [`publish`] — the RCU-style publication idiom those strategies exist
//!   for, lowered under any strategy, plus the bridge mapping a
//!   `wmm-analyze` synthesized fence placement back onto the kernel's
//!   macro sites;
//! * [`services`] — kernel code paths (syscall entry, network TX/RX over
//!   loopback, RCU read sections, page allocation, scheduler wakeups) as
//!   segment generators with macro sites at realistic densities, from which
//!   the `wmm-workloads` crate composes whole benchmarks.
//!
//! As in the paper, the kernel "binary" is compiled once with identifiable
//! site markers and rewritten per test, keeping code size invariant — that
//! machinery is `wmmbench::image`, shared with the JVM platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod macros;
pub mod publish;
pub mod rbd;
pub mod services;

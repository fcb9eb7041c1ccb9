//! # wmmbench
//!
//! The methodology of *Benchmarking Weak Memory Models* (Ritson & Owens,
//! PPoPP 2016), as a library.
//!
//! The paper's question: when a systems programmer chooses a **fencing
//! strategy** — which barrier instructions to emit at which code paths of a
//! platform (a JVM, an OS kernel) — how do they measure whether the choice
//! matters for real applications? The answer is a small toolkit:
//!
//! 1. **Cost functions** ([`costfn`]): spin loops with predictable, tunable
//!    execution time, injected inline at the code paths under study. Unlike
//!    invocation counters they need no shared memory and barely perturb the
//!    memory subsystem (Figs. 2–4).
//! 2. **Size-invariant rewriting** ([`image`]): every variant of a code path
//!    (different barriers, injected cost function, or plain `nop` padding for
//!    the base case) is padded to a common envelope so that code layout and
//!    instruction-cache effects do not contaminate the measurement (§4.1).
//! 3. **The sensitivity model** ([`model`]): normalised performance under an
//!    injected per-invocation cost of `a` ns follows
//!    `p(a) = 1/((1-k) + k·a)` (Eq. 1); `k` is fitted by non-linear least
//!    squares. Inverting the model (Eq. 2) turns a measured performance
//!    ratio for a *real* strategy change into an equivalent cost in ns.
//! 4. **Sweeps, rankings and comparisons** ([`sensitivity`], [`ranking`],
//!    [`runner`]): the two complementary uses of §3 — establish which code
//!    paths a platform's benchmarks are sensitive to, and establish which
//!    benchmarks are usable (sensitive *and* stable) for evaluating a
//!    change.
//!
//! The toolkit is generic over the *code path* type `P`: `wmm-jvm` uses its
//! elemental memory barriers, `wmm-kernel` its barrier macros.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod costfn;
pub mod digest;
pub mod exec;
pub mod image;
pub mod json;
pub mod model;
pub mod ranking;
pub mod report;
pub mod runner;
pub mod sensitivity;
pub mod strategy;
pub mod turnkey;

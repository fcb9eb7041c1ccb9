//! # wmm-jvm
//!
//! A Hotspot-like **platform model**: the `OpenJDK` memory-barrier machinery of
//! §4.2 of *Benchmarking Weak Memory Models*.
//!
//! Within `OpenJDK` the Java Memory Model is enforced by *elemental* memory
//! barriers — `LoadLoad`, `LoadStore`, `StoreLoad`, `StoreStore` — generated
//! by the JIT compiler, plus higher-level composites (`Volatile`, `Acquire`,
//! `Release`, `LoadFence`, `StoreFence`). The assembler then lowers each
//! (possibly combined) barrier request to the target's fence instructions:
//!
//! * **POWER**: `StoreLoad` becomes `sync` (hwsync); every other elemental
//!   becomes `lwsync`.
//! * **`ARMv8`, JDK8 behaviour** (`-XX:+UseBarriersForVolatile`): `LoadLoad`
//!   and `LoadStore` become `dmb ishld`, `StoreStore` becomes `dmb ishst`,
//!   `StoreLoad` becomes `dmb ish`.
//! * **`ARMv8`, JDK9 behaviour**: volatile accesses use load-acquire /
//!   store-release instructions (`ldar`/`stlr`) instead of barriers.
//!
//! The crate exposes:
//! * [`barrier`] — the elemental/composite vocabulary; the code-path type is
//!   [`barrier::Combined`], a set of elementals, because Hotspot emits one
//!   instruction per combined request and the paper notes that injecting
//!   into one elemental therefore hits every combination containing it;
//! * [`strategy`] — the lowering strategies above, plus the single-barrier
//!   modifications the paper evaluates (`StoreStore` → `dmb ish`,
//!   `StoreStore` → `sync`);
//! * [`jit`] — a JIT-like lowering from Java-level operations (volatile
//!   accesses, monitors, CAS, allocation with card marks) to an
//!   instruction-level [`wmmbench::image::Image`] with labelled barrier sites,
//!   including the `UseBarriersForVolatile` flag and the pending
//!   DMB-elimination locking patch the paper tests (§4.2.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod barrier;
pub mod jit;
pub mod optsites;
pub mod strategy;

pub use barrier::Composite;

//! # wmm-workloads
//!
//! Synthetic workload generators reproducing the *observable
//! characteristics* of the paper's benchmark suites:
//!
//! * [`dacapo`] — the concurrent DaCapo 9.12 subset (h2, lusearch, sunflow,
//!   tomcat, tradebeans, tradesoap, xalan, selected per Kalibera et al.) plus
//!   the Apache Spark GraphX PageRank workload of §4.2, as Java-operation
//!   streams for the `wmm-jvm` platform;
//! * [`kernel`] — the §4.3 suite: kernel compilation, netperf TCP/UDP over
//!   loopback, ebizzy, the OSM tile-server stack, the lmbench
//!   microbenchmark subset, and the three JVM benchmarks re-used as
//!   kernel-insensitive controls.
//!
//! The methodology treats benchmarks as black boxes characterised by their
//! *sensitivity* to each code path, their *stability*, and their pipeline
//! context. Profiles here are tuned so that the same sweep-and-fit pipeline
//! the paper runs recovers sensitivities near the published values (Fig. 5:
//! spark ≈ 0.009/0.012; Fig. 9: netperf_udp ≈ 0.009, osm ≈ 0.0002), with
//! the published instabilities (xalan on POWER, netperf TCP) appearing as
//! seeded noise. Absolute magnitudes are calibrated; *orderings and
//! divergences are emergent* from the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod dacapo;
pub mod kernel;
